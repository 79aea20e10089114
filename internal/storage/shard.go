package storage

// ShardBackend connects a store to a cross-process storage tier — in
// practice internal/cluster.Node, the consistent-hash ring over real
// doocserve peers. The interface lives here so storage does not import
// the cluster package.
//
// The tier behaves as remote memory with explicit durability: a fully
// written block is pushed toward its ring owners in the background, and
// only when the push reports durable (enough distinct remote peers hold
// the bytes to survive any single peer death) does the block become
// evictable without a local disk spill. A miss on fetch is a clean
// fallback — the store clears its shard marking and resumes the normal
// disk/peer load path.
//
// All methods must be safe for concurrent use; the store calls them from
// short-lived goroutines, never from its actor loop.
type ShardBackend interface {
	// FetchBlock resolves a block over the tier. ok=false means no live
	// peer holds it. The returned slice is shared and must be treated as
	// immutable; the store copies it into its own buffer.
	FetchBlock(array string, block int) (data []byte, ok bool)
	// PushBlock places a written block on the tier. The return value
	// reports durability; the backend must not retain data after
	// returning.
	PushBlock(array string, block int, data []byte) (durable bool)
	// InvalidateArray drops the array from the tier everywhere (the
	// array was deleted).
	InvalidateArray(array string)
}

// shardDone delivers an asynchronous shard-tier fetch to the actor loop.
// data (on ok) is an arena buffer owned by the message.
type shardDone struct {
	array string
	block int
	data  []byte
	ok    bool
}

// shardPushed delivers a background push's durability verdict.
type shardPushed struct {
	array   string
	block   int
	durable bool
}

// shardFetch runs off-loop: resolve the block over the tier and post the
// result. The backend's slice is copied into an arena buffer because the
// backend (replica cache, block table) retains and may replace its own.
func (s *Store) shardFetch(array string, block int) {
	data, ok := s.cfg.Shard.FetchBlock(array, block)
	if !ok {
		s.post(shardDone{array: array, block: block})
		return
	}
	buf := sharedArena.Get(len(data))
	copy(buf, data)
	s.post(shardDone{array: array, block: block, data: buf, ok: true})
}

// handleShardDone installs a shard-tier fetch, or falls back to the
// normal load path on a miss.
func (s *Store) handleShardDone(st *loopState, m shardDone) {
	ast, ok := st.arrays[m.array]
	if !ok {
		sharedArena.Put(m.data)
		return
	}
	b := s.getBlock(ast, m.block)
	b.fetching = false
	if !m.ok && len(b.waiters) == 0 {
		b.prefetched = false // a prefetch alone does not chase the block further
	}
	st.reserve(ast.info, m.block, b)
	if m.ok {
		st.stats.ShardFetches++
		st.stats.BytesFetchedShard += int64(len(m.data))
		s.metrics.shardFetches.Inc()
		s.metrics.shardFetchBytes.Add(int64(len(m.data)))
		s.installBlock(st, ast, m.block, b, m.data, false, false)
		return
	}
	// The tier no longer holds the block (owner died, or the copy was
	// shed). Clear the shard marking — the durability it promised is gone
	// — and resume the normal path for the blocked waiters.
	st.stats.ShardFallbacks++
	s.metrics.shardFallbacks.Inc()
	if b.shardDurable {
		s.tellHome(st, msgNotify{array: m.array, block: m.block, node: s.cfg.NodeID, onDisk: true, gone: true})
	}
	b.shardBacked = false
	b.shardDurable = false
	if len(b.waiters) > 0 {
		s.ensureBlockData(st, ast, m.block, b)
	}
}

// maybeShardPush starts a background push of a fully written block toward
// its ring owners. Runs on the actor loop right after write publication.
func (s *Store) maybeShardPush(st *loopState, ast *arrayState, bi int, b *blockState) {
	if s.cfg.Shard == nil || b.shardPushing {
		return
	}
	bs := ast.info.BlockSpan(bi)
	if b.buf == nil || !b.resident.full(bs.Hi-bs.Lo) {
		return
	}
	b.shardPushing = true
	st.stats.ShardPushes++
	st.stats.BytesPushedShard += int64(len(b.buf))
	s.metrics.shardPushes.Inc()
	s.metrics.shardPushBytes.Add(int64(len(b.buf)))
	data := sharedArena.Get(len(b.buf))
	copy(data, b.buf)
	name := ast.info.Name
	go func() {
		durable := s.cfg.Shard.PushBlock(name, bi, data)
		sharedArena.Put(data)
		s.post(shardPushed{array: name, block: bi, durable: durable})
	}()
}

// handleShardPushed records a push's durability verdict. A durable block
// gains the spill-free eviction right; reclamation is retried since the
// block may be exactly what an over-budget store was waiting to shed. Once
// dropped, the copy on the tier is one only this node knows of, so the
// block's directory is told this node holds it durably: a peer's read is
// redirected here and handleQuery fetches the block back on its behalf.
func (s *Store) handleShardPushed(st *loopState, m shardPushed) {
	ast, ok := st.arrays[m.array]
	if !ok {
		return // array deleted while the push was in flight
	}
	b, ok := ast.blocks[m.block]
	if !ok {
		return
	}
	b.shardPushing = false
	if m.durable {
		b.shardBacked = true
		b.shardDurable = true
		st.stats.ShardDurablePushes++
		s.metrics.shardDurable.Inc()
		s.tellHome(st, msgNotify{array: m.array, block: m.block, node: s.cfg.NodeID, onDisk: true})
		s.reclaim(st, "", -1)
	}
}
