package sparse

import "fmt"

// GridPartition describes the K×K block decomposition of a square matrix
// used by the paper's iterated SpMV: sub-matrix A[u][v] covers rows
// [RowStart(u), RowStart(u+1)) and columns [RowStart(v), RowStart(v+1)).
// Row and column cuts coincide because the input/output vectors share the
// same partitioning.
type GridPartition struct {
	Dim int // global dimension (square)
	K   int // grid order
}

// NewGridPartition validates and returns a K×K partition of a dim×dim matrix.
func NewGridPartition(dim, k int) (GridPartition, error) {
	if dim <= 0 || k <= 0 {
		return GridPartition{}, fmt.Errorf("sparse: invalid partition dim=%d K=%d", dim, k)
	}
	if k > dim {
		return GridPartition{}, fmt.Errorf("sparse: K=%d exceeds dimension %d", k, dim)
	}
	return GridPartition{Dim: dim, K: k}, nil
}

// Start returns the first global index of part u (0 <= u <= K; Start(K)==Dim).
// Parts differ in size by at most one.
func (p GridPartition) Start(u int) int {
	if u < 0 || u > p.K {
		panic(fmt.Sprintf("sparse: part %d out of [0,%d]", u, p.K))
	}
	q, r := p.Dim/p.K, p.Dim%p.K
	if u <= r {
		return u * (q + 1)
	}
	return r*(q+1) + (u-r)*q
}

// Size returns the number of rows/cols in part u.
func (p GridPartition) Size(u int) int { return p.Start(u+1) - p.Start(u) }

// PartOf returns the part containing global index i.
func (p GridPartition) PartOf(i int) int {
	if i < 0 || i >= p.Dim {
		panic(fmt.Sprintf("sparse: index %d out of [0,%d)", i, p.Dim))
	}
	q, r := p.Dim/p.K, p.Dim%p.K
	cut := r * (q + 1)
	if i < cut {
		return i / (q + 1)
	}
	return r + (i-cut)/q
}

// Block extracts sub-matrix A[u][v] of m under partition p. Column indices
// are rebased to the block's local coordinates.
func Block(m *CSR, p GridPartition, u, v int) (*CSR, error) {
	if m.Rows != p.Dim || m.Cols != p.Dim {
		return nil, fmt.Errorf("sparse: matrix %dx%d does not match partition dim %d", m.Rows, m.Cols, p.Dim)
	}
	if u < 0 || u >= p.K || v < 0 || v >= p.K {
		return nil, fmt.Errorf("sparse: block (%d,%d) out of %dx%d grid", u, v, p.K, p.K)
	}
	r0, r1 := p.Start(u), p.Start(u+1)
	c0, c1 := p.Start(v), p.Start(v+1)
	b := &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int64, r1-r0+1)}
	for i := r0; i < r1; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := int(m.ColIdx[k])
			if c < c0 {
				continue
			}
			if c >= c1 {
				break // columns are sorted
			}
			b.ColIdx = append(b.ColIdx, int32(c-c0))
			b.Val = append(b.Val, m.Val[k])
		}
		b.RowPtr[i-r0+1] = int64(len(b.Val))
	}
	return b, nil
}

// Assemble reverses Block: it stitches a K×K grid of blocks back into one
// matrix. Used by tests to verify partition round-trips.
func Assemble(p GridPartition, blocks [][]*CSR) (*CSR, error) {
	if len(blocks) != p.K {
		return nil, fmt.Errorf("sparse: %d block rows, want %d", len(blocks), p.K)
	}
	var ts []Triplet
	for u := 0; u < p.K; u++ {
		if len(blocks[u]) != p.K {
			return nil, fmt.Errorf("sparse: block row %d has %d blocks, want %d", u, len(blocks[u]), p.K)
		}
		for v := 0; v < p.K; v++ {
			b := blocks[u][v]
			if b.Rows != p.Size(u) || b.Cols != p.Size(v) {
				return nil, fmt.Errorf("sparse: block (%d,%d) is %dx%d, want %dx%d", u, v, b.Rows, b.Cols, p.Size(u), p.Size(v))
			}
			r0, c0 := p.Start(u), p.Start(v)
			for i := 0; i < b.Rows; i++ {
				for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
					ts = append(ts, Triplet{r0 + i, c0 + int(b.ColIdx[k]), b.Val[k]})
				}
			}
		}
	}
	return FromTriplets(p.Dim, p.Dim, ts)
}
