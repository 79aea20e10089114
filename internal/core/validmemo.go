package core

import (
	"sync"

	"dooc/internal/sparse"
)

// validMemo remembers what ExecContext.Matrix has verified, per matrix array
// and node: the residency (storage.Lease.Gen) whose bytes passed the CRC
// and the checksum that passed the O(nnz) structural walk (sparse's Validate).
// Arrays are immutable, so a lease on the remembered residency holds bytes
// already checked, in memory nobody wrote since: both checks are skipped. A
// later residency — the block was evicted and read back, or the name deleted
// and created again — is checksummed anew, and walked again only if the
// checksum is not the remembered one. An entry is forgotten when its array is
// deleted (System.invalidateDecoded), so the map holds live arrays only.
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
