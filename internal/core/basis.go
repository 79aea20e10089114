package core

import (
	"fmt"

	"dooc/internal/storage"
)

// BasisStore keeps Lanczos basis vectors in DOoC storage arrays instead of
// process memory. With Spill enabled, every appended vector is immediately
// flushed to the scratch directory and evicted, so the resident footprint
// of a k-step run stays O(dim) instead of O(k·dim) — out-of-core
// reorthogonalization, the natural next step after the paper's out-of-core
// SpMV ("our out-of-core code does not implement the full Lanczos algorithm
// required for MFDn computations").
//
// A vector is one block of an array that holds basisChunk of them, so a
// step's append creates no array, no scratch file and no sidecar of its
// own — a chunk's first append does, once for all of them; the spill writes
// the vector into its slot of the chunk's open file.
type BasisStore struct {
	// Store is the node-local storage filter holding the vectors.
	Store *storage.Store
	// Prefix namespaces the vector arrays (default "lanczos").
	Prefix string
	// Spill flushes + evicts each vector right after it is written,
	// forcing genuine out-of-core streaming during reorthogonalization.
	// Requires the store to have a scratch directory.
	Spill bool

	count int
	dim   int       // length of every stored vector
	buf   []float64 // what Vector returns, reused from call to call
}

// basisChunk is how many basis vectors share one storage array.
const basisChunk = 32

// place returns where basis vector j lives: the array of its chunk and its
// block in it.
func (b *BasisStore) place(j int) (array string, block int) {
	p := b.Prefix
	if p == "" {
		p = "lanczos"
	}
	return fmt.Sprintf("%s:c%d", p, j/basisChunk), j % basisChunk
}

// Append implements lanczos.Basis.
func (b *BasisStore) Append(v []float64) error {
	if b.count > 0 && len(v) != b.dim {
		return fmt.Errorf("core: basis vector %d has %d elements, the basis holds vectors of %d", b.count, len(v), b.dim)
	}
	name, block := b.place(b.count)
	size := int64(8 * len(v))
	if block == 0 {
		if err := b.Store.Create(name, basisChunk*size, size); err != nil {
			return err
		}
	}
	l, err := b.Store.RequestBlock(name, block, storage.PermWrite)
	if err != nil {
		return err
	}
	storage.PutFloat64s(l, v)
	l.Release()
	if b.Spill {
		// Every earlier block of the chunk is on scratch already: the
		// flush writes this one alone.
		if err := b.Store.Flush(name); err != nil {
			return err
		}
		if err := b.Store.Evict(name, block); err != nil {
			return err
		}
	}
	b.count, b.dim = b.count+1, len(v)
	return nil
}

// Len implements lanczos.Basis.
func (b *BasisStore) Len() int { return b.count }

// Vector implements lanczos.Basis. The vector is a copy-out read into the
// basis' one read buffer: a spilled vector goes from its scratch slot
// straight into it and never becomes resident, so reorthogonalisation evicts
// nothing. As the interface says, the result is valid until the next call.
func (b *BasisStore) Vector(j int) ([]float64, error) {
	if j < 0 || j >= b.count {
		return nil, fmt.Errorf("core: basis vector %d out of [0,%d)", j, b.count)
	}
	if cap(b.buf) < b.dim {
		b.buf = make([]float64, b.dim)
	}
	v := b.buf[:b.dim]
	name, block := b.place(j)
	if err := b.Store.ReadBlockFloat64s(name, block, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Close deletes all stored vectors.
func (b *BasisStore) Close() error {
	var first error
	for j := 0; j < b.count; j += basisChunk {
		name, _ := b.place(j)
		if err := b.Store.Delete(name); err != nil && first == nil {
			first = err
		}
	}
	b.count = 0
	return first
}
