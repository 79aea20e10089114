package core

import (
	"sync"

	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// decodeCache memoizes CRS decoding per node. The storage layer holds raw
// encoded bytes (faithful to the paper's untyped arrays); every task that
// multiplies with a block must otherwise decode it again. Matrix arrays are
// immutable, so a decoded copy keyed by array name is always valid; the
// cache is LRU-bounded and counts its own bytes separately from the storage
// budget (enable via Options.DecodeCacheBytes).
type decodeCache struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	tick    int64
	entries map[string]*decEntry

	hits, misses int64

	// Observability mirrors of hits/misses plus the pipeline-overlap credit
	// (nil counters are no-ops; wired by NewSystem when Options.Obs is set).
	obsHits, obsMisses, obsOverlap *obs.Counter
}

type decEntry struct {
	m       *sparse.CSR
	bytes   int64
	lastUse int64
	// pipelined marks an entry decoded ahead of use by the decode pipeline
	// and not yet consumed: the first hit credits a fully-overlapped decode.
	// A consumer that had to wait on the in-flight decode clears the flag
	// first, so the overlap counter only counts decodes that finished before
	// anyone asked.
	pipelined bool
}

func newDecodeCache(capBytes int64) *decodeCache {
	if capBytes <= 0 {
		return nil
	}
	return &decodeCache{cap: capBytes, entries: make(map[string]*decEntry)}
}

// matrix returns the decoded block for `array`, reading through the store
// on a miss. A nil receiver always reads through (cache disabled).
func (c *decodeCache) matrix(store *storage.Store, array string) (*sparse.CSR, error) {
	if c != nil {
		c.mu.Lock()
		if e, ok := c.entries[array]; ok {
			m := c.hitLocked(e)
			c.mu.Unlock()
			return m, nil
		}
		c.misses++
		c.obsMisses.Inc()
		c.mu.Unlock()
	}
	lease, err := store.RequestBlock(array, 0, storage.PermRead)
	if err != nil {
		return nil, err
	}
	m, err := sparse.DecodeCRSBytes(lease.Data)
	lease.Release()
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.put(array, m)
	}
	return m, nil
}

// hitLocked records a cache hit and returns the entry's matrix; caller
// holds c.mu.
func (c *decodeCache) hitLocked(e *decEntry) *sparse.CSR {
	c.tick++
	e.lastUse = c.tick
	c.hits++
	c.obsHits.Inc()
	if e.pipelined {
		e.pipelined = false
		c.obsOverlap.Inc()
	}
	return e.m
}

// peek reports residency without touching recency or hit/miss accounting —
// used by the scheduler's residency scoring and by the pipeline to skip
// already-decoded blocks.
func (c *decodeCache) peek(array string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	_, ok := c.entries[array]
	c.mu.Unlock()
	return ok
}

// clearPipelined removes the overlap credit from an entry whose consumer
// had to wait for the in-flight decode.
func (c *decodeCache) clearPipelined(array string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[array]; ok {
		e.pipelined = false
	}
	c.mu.Unlock()
}

func (c *decodeCache) put(array string, m *sparse.CSR) {
	c.insert(array, m, false)
}

// putPipelined inserts a block decoded ahead of use by the pipeline.
func (c *decodeCache) putPipelined(array string, m *sparse.CSR) {
	c.insert(array, m, true)
}

func (c *decodeCache) insert(array string, m *sparse.CSR, pipelined bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[array]; dup {
		return
	}
	sz := m.Bytes()
	c.tick++
	c.entries[array] = &decEntry{m: m, bytes: sz, lastUse: c.tick, pipelined: pipelined}
	c.used += sz
	for c.used > c.cap && len(c.entries) > 1 {
		victim := ""
		var vt int64
		for k, e := range c.entries {
			if k == array {
				continue
			}
			if victim == "" || e.lastUse < vt || (e.lastUse == vt && k < victim) {
				victim, vt = k, e.lastUse
			}
		}
		if victim == "" {
			return
		}
		c.used -= c.entries[victim].bytes
		delete(c.entries, victim)
	}
}

// invalidate drops an entry (used when an array is deleted).
func (c *decodeCache) invalidate(array string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[array]; ok {
		c.used -= e.bytes
		delete(c.entries, array)
	}
	c.mu.Unlock()
}

// stats reports cache effectiveness.
func (c *decodeCache) stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// validMemo remembers, per matrix array, the checksum of the block bytes
// that last passed the O(nnz) structural walk (sparse's Validate). Arrays
// are immutable, so a lease whose CRC — verified on every lease — equals
// the remembered one holds the same bytes and needs no second walk. An
// entry is forgotten wherever the decode cache's is invalidated: a deleted
// name may come back with other bytes.
type validMemo struct {
	mu  sync.Mutex
	crc map[string]uint32
}

func (v *validMemo) has(array string, crc uint32) bool {
	v.mu.Lock()
	got, ok := v.crc[array]
	v.mu.Unlock()
	return ok && got == crc
}

func (v *validMemo) record(array string, crc uint32) {
	v.mu.Lock()
	if v.crc == nil {
		v.crc = make(map[string]uint32)
	}
	v.crc[array] = crc
	v.mu.Unlock()
}

func (v *validMemo) forget(array string) {
	v.mu.Lock()
	delete(v.crc, array)
	v.mu.Unlock()
}
