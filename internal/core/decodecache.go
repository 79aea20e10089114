package core

import (
	"fmt"
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

	// The node's dooc_core_decode_cache_* series; stats reads them back.
	hits, misses *obs.Counter
}

type decEntry struct {
	m       *sparse.CSR
	bytes   int64
	lastUse int64
}

// newDecodeCache returns node's cache, nil (disabled) when capBytes <= 0.
func newDecodeCache(capBytes int64, reg *obs.Registry, node int) *decodeCache {
	if capBytes <= 0 {
		return nil
	}
	l := obs.L("node", fmt.Sprint(node))
	return &decodeCache{
		cap:     capBytes,
		entries: make(map[string]*decEntry),
		hits:    reg.Counter("dooc_core_decode_cache_hits_total", "decoded-block cache hits", l),
		misses:  reg.Counter("dooc_core_decode_cache_misses_total", "decoded-block cache misses (synchronous decodes)", l),
	}
}

// matrix returns the decoded block for `array`, reading through the store
// on a miss. A nil receiver always reads through (cache disabled).
func (c *decodeCache) matrix(store *storage.Store, array string) (*sparse.CSR, error) {
	if c != nil {
		c.mu.Lock()
		if e, ok := c.entries[array]; ok {
			c.tick++
			e.lastUse = c.tick
			c.mu.Unlock()
			c.hits.Inc()
			return e.m, nil
		}
		c.mu.Unlock()
		c.misses.Inc()
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

// peek reports residency without touching recency or hit/miss accounting —
// used by the scheduler's residency scoring and to skip the storage
// prefetch of an already-decoded block.
func (c *decodeCache) peek(array string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	_, ok := c.entries[array]
	c.mu.Unlock()
	return ok
}

func (c *decodeCache) put(array string, m *sparse.CSR) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[array]; dup {
		return
	}
	sz := m.Bytes()
	c.tick++
	c.entries[array] = &decEntry{m: m, bytes: sz, lastUse: c.tick}
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
	return c.hits.Value(), c.misses.Value()
}

// validMemo remembers what the uncached matrix path has verified, per matrix
// array and node: the residency (storage.Lease.Gen) whose bytes passed the CRC
// and the checksum that passed the O(nnz) structural walk (sparse's Validate).
// Arrays are immutable, so a lease on the remembered residency holds bytes
// already checked, in memory nobody wrote since: both checks are skipped. A
// later residency — the block was evicted and read back, or the name deleted
// and created again — is checksummed anew, and walked again only if the
// checksum is not the remembered one. An entry is forgotten wherever the
// decode cache's is invalidated.
type validMemo struct {
	mu   sync.Mutex
	recs map[string][]validRec // array → record per node
}

// validRec is one node's record for one array; the zero value remembers
// nothing (a residency's generation is never 0).
type validRec struct {
	gen int64
	crc uint32
}

// trust is how much of the verification of a lease on residency gen, whose
// block carries checksum crc, the record vouches for.
func (r validRec) trust(gen int64, crc uint32) sparse.Trust {
	switch {
	case r.gen == 0:
		return sparse.TrustNothing
	case r.gen == gen:
		return sparse.TrustBytes
	case r.crc == crc:
		return sparse.TrustStructure
	}
	return sparse.TrustNothing
}

func (v *validMemo) get(node int, array string) validRec {
	v.mu.Lock()
	defer v.mu.Unlock()
	if recs := v.recs[array]; node < len(recs) {
		return recs[node]
	}
	return validRec{}
}

func (v *validMemo) put(node int, array string, r validRec) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.recs == nil {
		v.recs = make(map[string][]validRec)
	}
	recs := v.recs[array]
	for len(recs) <= node {
		recs = append(recs, validRec{})
	}
	recs[node] = r
	v.recs[array] = recs
}

func (v *validMemo) forget(array string) {
	v.mu.Lock()
	delete(v.recs, array)
	v.mu.Unlock()
}
