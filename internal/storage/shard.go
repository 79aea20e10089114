package storage

import (
	"sync"
	"sync/atomic"
)

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
// A deleted array's copies die with it: the stores invalidate an array only
// after every push of it they started has returned, so no push lands after
// the invalidation, and a push whose array is deleted meanwhile may stop
// early.
//
// All methods must be safe for concurrent use; the store calls them from
// short-lived goroutines, never from its actor loop.
type ShardBackend interface {
	// FetchBlock resolves a block over the tier. ok=false means no live
	// peer holds it. The returned bytes become the store's, which installs
	// them as the block and later puts them into SharedArena(): a backend
	// returns a buffer it will not touch again — ideally one from
	// SharedArena() — never bytes it keeps.
	FetchBlock(array string, block int) (data []byte, ok bool)
	// PushBlock places a written block on the tier. The return value
	// reports durability; the backend must not retain data after
	// returning. dead turns true once the array has been deleted; the
	// backend may then skip the copies it has not placed yet, since the
	// store ignores the verdict and invalidates the array after the push
	// returns.
	PushBlock(array string, block int, data []byte, dead *atomic.Bool) (durable bool)
	// InvalidateArray drops the array from the tier everywhere (the
	// array was deleted). It follows every push the stores started for
	// that array.
	InvalidateArray(array string)
}

// pushDrains counts, per array name, the shard pushes a network's stores
// have started and not yet seen return. It is how a delete waits for them:
// the invalidation runs when the array is deleted and nothing is in flight,
// on whichever goroutine brings that about — the deleting client's when
// nothing was in flight, else the last push's. The stores of one network
// share one, since a delete on any of them removes the array from all.
type pushDrains struct {
	mu     sync.Mutex
	arrays map[string]*pushDrain
}

// pushDrain is one array name's pushes in flight. dead is set when the
// array is deleted: its pushes may stop walking their owners, their
// verdicts are void, and a new array of the same name pushes nothing until
// the drain ends — the old incarnation's invalidation would drop its copies.
type pushDrain struct {
	pushes int // guarded by pushDrains.mu
	dead   atomic.Bool
}

func newPushDrains() *pushDrains {
	return &pushDrains{arrays: make(map[string]*pushDrain)}
}

// start counts a push of array, or returns nil while a deleted array of
// the same name is still draining.
func (d *pushDrains) start(array string) *pushDrain {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.arrays[array]
	if p == nil {
		p = &pushDrain{}
		d.arrays[array] = p
	} else if p.dead.Load() {
		return nil
	}
	p.pushes++
	return p
}

// pushed records that one of p's pushes returned.
func (d *pushDrains) pushed(shard ShardBackend, array string, p *pushDrain) {
	d.mu.Lock()
	p.pushes--
	d.settleLocked(shard, array, p)
}

// deleted records that array was deleted from every store of the network.
func (d *pushDrains) deleted(shard ShardBackend, array string) {
	d.mu.Lock()
	p := d.arrays[array]
	if p == nil {
		p = &pushDrain{}
		d.arrays[array] = p
	}
	p.dead.Store(true)
	d.settleLocked(shard, array, p)
}

// settleLocked ends p once no push is in flight: a live array's record
// simply goes, a deleted one's is invalidated on the tier first, so that
// a new array of the name pushes nothing until the invalidation is done.
// It is called with d.mu held and releases it.
func (d *pushDrains) settleLocked(shard ShardBackend, array string, p *pushDrain) {
	if p.pushes > 0 {
		d.mu.Unlock()
		return
	}
	dead := p.dead.Load()
	if !dead {
		delete(d.arrays, array)
	}
	d.mu.Unlock()
	if !dead {
		return
	}
	shard.InvalidateArray(array)
	d.mu.Lock()
	if d.arrays[array] == p {
		delete(d.arrays, array)
	}
	d.mu.Unlock()
}

// shardDone delivers an asynchronous shard-tier fetch to the actor loop.
// data (on ok) is an arena buffer owned by the message.
type shardDone struct {
	array string
	block int
	data  []byte
	ok    bool
}

// shardPushed delivers a background push's durability verdict. drain is
// the push's count; once it is dead the verdict belongs to a deleted array.
type shardPushed struct {
	array   string
	block   int
	durable bool
	drain   *pushDrain
}

// shardFetch runs off-loop: resolve the block over the tier and post the
// result. The backend hands over its buffer, which is installed as is.
func (s *Store) shardFetch(array string, block int) {
	data, ok := s.cfg.Shard.FetchBlock(array, block)
	if !ok {
		s.post(shardDone{array: array, block: block})
		return
	}
	s.post(shardDone{array: array, block: block, data: data, ok: true})
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
// While a deleted array of the same name is still draining, the block is
// not pushed: it stays local and non-durable, and spills on eviction as any
// unpushed block does.
func (s *Store) maybeShardPush(st *loopState, ast *arrayState, bi int, b *blockState) {
	if s.cfg.Shard == nil || b.shardPushing {
		return
	}
	if !b.readable(ast.info.BlockSpan(bi)) {
		return
	}
	name := ast.info.Name
	drain := s.drains.start(name)
	if drain == nil {
		return
	}
	b.shardPushing = true
	st.stats.ShardPushes++
	st.stats.BytesPushedShard += int64(len(b.buf))
	s.metrics.shardPushes.Inc()
	s.metrics.shardPushBytes.Add(int64(len(b.buf)))
	data := sharedArena.Get(len(b.buf))
	copy(data, b.buf)
	go func() {
		durable := s.cfg.Shard.PushBlock(name, bi, data, &drain.dead)
		sharedArena.Put(data)
		// The verdict is posted before the push stops counting: a delete
		// that finds the push returned then also finds its verdict queued
		// ahead of any re-create of the name.
		s.post(shardPushed{array: name, block: bi, durable: durable, drain: drain})
		s.drains.pushed(s.cfg.Shard, name, drain)
	}()
}

// handleShardPushed records a push's durability verdict. A durable block
// gains the spill-free eviction right; reclamation is retried since the
// block may be exactly what an over-budget store was waiting to shed. Once
// dropped, the copy on the tier is one only this node knows of, so the
// block's directory is told this node holds it durably: a peer's read is
// redirected here and handleQuery fetches the block back on its behalf.
func (s *Store) handleShardPushed(st *loopState, m shardPushed) {
	if m.drain.dead.Load() {
		return // the pushed array is deleted; an array of that name now is another one
	}
	ast, ok := st.arrays[m.array]
	if !ok {
		return // deleted on this store, not yet on all of them
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
