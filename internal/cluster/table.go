package cluster

import (
	"sync"

	"dooc/internal/storage"
)

// BlockTable is an epoch-tagged, byte-budgeted LRU of blocks, and the one
// cache type of the cluster tier. A Node holds two: the shard table — the
// blocks this process holds on behalf of the ring (its own pushes included
// when it owns the key), where a pusher may pin an entry as durable — and
// the replica cache — read replicas of hot blocks on the reading side (the
// SpMV input vector is read K times per iteration, so a forwarded fetch that
// will repeat is worth keeping), where nothing is pinned. A put with an
// older epoch than the resident entry is refused, so a late replay can never
// roll a block back; over budget, the least recently served unpinned entries
// are dropped (they are a cache tier over the pusher's durability path,
// never the only copy unless the pusher marked them durable, in which case
// two distinct peers hold them).
//
// The table owns its bytes, in buffers from storage.SharedArena(): Put
// copies a block in, Get copies it out under the table lock, and a drop,
// replacement, DeleteArray or Close gives the buffer back. No caller ever
// holds a reference into the table, so a buffer it gives back can be reused
// at once.
type BlockTable struct {
	mu     sync.Mutex
	closed bool
	budget int64
	used   int64
	pinned int64 // bytes held by durable entries, bounded by budget
	tick   int64
	blocks map[string]*tableEntry         // BlockKey -> entry
	arrays map[string]map[int]*tableEntry // array -> block -> entry
}

type tableEntry struct {
	array   string
	block   int
	epoch   uint64
	data    []byte
	lastUse int64
	pinned  bool // durable entries are never LRU-dropped
}

// DefaultTableBytes bounds a peer's shard table when the caller does not
// choose: 256 MiB of remote blocks. DefaultReplicaBytes does the same for
// its replica cache: 64 MiB of hot blocks.
const (
	DefaultTableBytes   = 256 << 20
	DefaultReplicaBytes = 64 << 20
)

// NewBlockTable builds a table bounded to budget bytes (DefaultTableBytes
// when <= 0).
func NewBlockTable(budget int64) *BlockTable {
	if budget <= 0 {
		budget = DefaultTableBytes
	}
	return &BlockTable{
		budget: budget,
		blocks: make(map[string]*tableEntry),
		arrays: make(map[string]map[int]*tableEntry),
	}
}

// Put stores (or refreshes) a block at the given epoch. A put older than
// the resident epoch is refused (ok=false); equal epochs overwrite — a
// replayed push after reconnect is byte-identical, so the overwrite is
// idempotent. durable pins the entry against LRU drops: the pusher is
// counting on this copy to survive. Pinned bytes are bounded by the
// budget — a durable put that would exceed it is refused outright, which
// the pusher sees as a missing ack and keeps its local durability path
// (backpressure instead of unbounded pinning). The table keeps a copy of
// data; a closed table refuses every put.
func (t *BlockTable) Put(array string, block int, epoch uint64, data []byte, durable bool) bool {
	arena := storage.SharedArena()
	buf := arena.Get(len(data))
	copy(buf, data)
	t.mu.Lock()
	ok := t.putLocked(BlockKey(array, block), array, block, epoch, buf, durable)
	t.mu.Unlock()
	if !ok {
		arena.Put(buf)
	}
	return ok
}

// putLocked stores data, which the table then owns, unless the put is
// refused.
func (t *BlockTable) putLocked(key, array string, block int, epoch uint64, data []byte, durable bool) bool {
	if t.closed {
		return false
	}
	if e, ok := t.blocks[key]; ok {
		if epoch < e.epoch {
			return false
		}
		delta := int64(len(data)) - int64(len(e.data))
		if (durable || e.pinned) && !e.pinned {
			if t.pinned+int64(len(data)) > t.budget {
				return false
			}
			t.pinned += int64(len(data))
		} else if e.pinned {
			t.pinned += delta
		}
		t.used += delta
		storage.SharedArena().Put(e.data)
		e.epoch, e.data = epoch, data
		e.pinned = e.pinned || durable
		t.tick++
		e.lastUse = t.tick
		t.reclaimLocked()
		return true
	}
	if durable && t.pinned+int64(len(data)) > t.budget {
		return false
	}
	e := &tableEntry{array: array, block: block, epoch: epoch, data: data, pinned: durable}
	t.tick++
	e.lastUse = t.tick
	t.blocks[key] = e
	byBlock, ok := t.arrays[array]
	if !ok {
		byBlock = make(map[int]*tableEntry)
		t.arrays[array] = byBlock
	}
	byBlock[block] = e
	t.used += int64(len(data))
	if durable {
		t.pinned += int64(len(data))
	}
	t.reclaimLocked()
	return true
}

// Get returns a copy of a block's bytes, and its epoch. The copy is a
// buffer from storage.SharedArena() and the caller's: put it back there, or
// hand it on to an owner that will.
func (t *BlockTable) Get(array string, block int) (data []byte, epoch uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, found := t.blocks[BlockKey(array, block)]
	if !found {
		return nil, 0, false
	}
	t.tick++
	e.lastUse = t.tick
	data = storage.SharedArena().Get(len(e.data))
	copy(data, e.data)
	return data, e.epoch, true
}

// Delete drops one block (a write-back supersedes a replica, or a reader
// found it at the wrong epoch). Deleting an absent block is a no-op.
func (t *BlockTable) Delete(array string, block int) {
	key := BlockKey(array, block)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.blocks[key]; ok {
		t.dropLocked(key, e)
	}
}

// DeleteArray drops every block of an array (the pusher deleted it).
func (t *BlockTable) DeleteArray(array string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	byBlock, ok := t.arrays[array]
	if !ok {
		return 0
	}
	n := len(byBlock)
	for block, e := range byBlock {
		t.dropLocked(BlockKey(array, block), e)
	}
	return n
}

// Close drops every block, giving its buffer back, and refuses puts from
// then on.
func (t *BlockTable) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for key, e := range t.blocks {
		t.dropLocked(key, e)
	}
}

// Len returns the resident block count.
func (t *BlockTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.blocks)
}

// Bytes returns the resident byte total.
func (t *BlockTable) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// reclaimLocked drops least-recently-served unpinned entries until the
// table fits its budget. Pinned (durable) entries survive even over
// budget: dropping them would silently break the pusher's spill-free
// eviction contract.
func (t *BlockTable) reclaimLocked() {
	for t.used > t.budget {
		var victim *tableEntry
		for _, e := range t.blocks {
			if e.pinned {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		t.dropLocked(BlockKey(victim.array, victim.block), victim)
	}
}

// dropLocked unlinks one entry from both indexes and the byte accounting,
// and gives its buffer back.
func (t *BlockTable) dropLocked(key string, e *tableEntry) {
	delete(t.blocks, key)
	if byBlock, ok := t.arrays[e.array]; ok {
		delete(byBlock, e.block)
		if len(byBlock) == 0 {
			delete(t.arrays, e.array)
		}
	}
	t.used -= int64(len(e.data))
	if e.pinned {
		t.pinned -= int64(len(e.data))
	}
	storage.SharedArena().Put(e.data)
	e.data = nil
}
