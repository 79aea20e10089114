package sparse

import (
	"fmt"
	"slices"
)

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
// are rebased to the block's local coordinates. To take several blocks of
// one block row, split it once (SplitBlockRow).
func Block(m *CSR, p GridPartition, u, v int) (*CSR, error) {
	if u < 0 || u >= p.K || v < 0 || v >= p.K {
		return nil, fmt.Errorf("sparse: block (%d,%d) out of %dx%d grid", u, v, p.K, p.K)
	}
	row, err := SplitBlockRow(m, p, u)
	if err != nil {
		return nil, err
	}
	return row.Block(v), nil
}

// BlockRow is one block row of a matrix split at the partition's column
// boundaries: for every row, the entry at which it crosses into each block
// column, and the entry at which it reaches its own diagonal. Counting a
// block's entries then reads two offsets a row; building it copies one slice
// of every row into arrays of exactly its size, and encoding it reads the
// same slices where they lie.
type BlockRow struct {
	m      *CSR
	u      int   // the block column of the diagonal
	starts []int // column boundaries: starts[v] opens block column v, starts[K] is m.Cols
	// cut[r*(K+1)+v] is the first entry of the block row's r-th row at a
	// column ≥ starts[v], cut[r*(K+1)+K] the row's end; diag[r] its first
	// entry on or after the diagonal.
	cut  []int64
	diag []int64
}

// SplitBlockRow validates block row u of m and splits it in one sweep over
// its rows. A row's columns ascend, so each cut is a binary search of what
// the previous cut left of the row, and every block of the row is as valid
// as the row.
func SplitBlockRow(m *CSR, p GridPartition, u int) (*BlockRow, error) {
	if m.Rows != p.Dim || m.Cols != p.Dim {
		return nil, fmt.Errorf("sparse: matrix %dx%d does not match partition dim %d", m.Rows, m.Cols, p.Dim)
	}
	if u < 0 || u >= p.K {
		return nil, fmt.Errorf("sparse: block row %d out of %d", u, p.K)
	}
	r0, r1 := p.Start(u), p.Start(u+1)
	if err := m.validateRows(r0, r1); err != nil {
		return nil, err
	}
	starts := make([]int, p.K+1)
	for v := range starts {
		starts[v] = p.Start(v)
	}
	return splitRows(m, r0, r1, u, starts), nil
}

// splitRows is SplitBlockRow of rows [r0, r1), the diagonal in block column
// u, at the column boundaries starts, which open with 0 and close with
// m.Cols. m must carry ColIdx.
func splitRows(m *CSR, r0, r1, u int, starts []int) *BlockRow {
	k := len(starts) - 1
	b := &BlockRow{m: m, u: u, starts: starts, cut: make([]int64, (r1-r0)*(k+1)), diag: make([]int64, r1-r0)}
	// firstAt is the first entry in [lo, hi) at a column ≥ c, or hi.
	firstAt := func(lo, hi int64, c int) int64 {
		at, _ := slices.BinarySearch(m.ColIdx[lo:hi], int32(c))
		return lo + int64(at)
	}
	for r := range b.diag {
		lo, hi := m.RowPtr[r0+r], m.RowPtr[r0+r+1]
		cut := b.cut[r*(k+1) : (r+1)*(k+1)]
		cut[0], cut[k] = lo, hi
		for v := 1; v < k; v++ {
			cut[v] = firstAt(cut[v-1], hi, starts[v])
		}
		b.diag[r] = firstAt(lo, hi, r0+r)
	}
	return b
}

// rows is the rows of block v of the row, read in the matrix; upper starts
// every row at its diagonal.
func (b *BlockRow) rows(v int, upper bool) blockRows {
	k := len(b.starts) - 1
	s := blockRows{rows: len(b.diag), cols: b.starts[v+1] - b.starts[v], colIdx: b.m.ColIdx, val: b.m.Val, c0: int32(b.starts[v]),
		span: func(r int) (int64, int64) {
			lo, hi := b.cut[r*(k+1)+v], b.cut[r*(k+1)+v+1]
			if upper {
				lo = b.diag[r]
			}
			return lo, hi
		}}
	for r := 0; r < s.rows; r++ {
		lo, hi := s.span(r)
		s.nnz += hi - lo
	}
	return s
}

// NNZ returns the number of entries block v of the row holds.
func (b *BlockRow) NNZ(v int) int64 { return b.rows(v, false).nnz }

// UpperNNZ returns the number of entries on or above the diagonal of the
// row's diagonal block.
func (b *BlockRow) UpperNNZ() int64 { return b.rows(b.u, true).nnz }

// Block builds block v of the row, its columns rebased to the block.
func (b *BlockRow) Block(v int) *CSR { return build(b.rows(v, false)) }

// AppendBlockCRS2 appends to dst the V2 block WriteCRS2 writes of Block(v),
// encoded from the matrix's own arrays: no block is built.
func (b *BlockRow) AppendBlockCRS2(dst []byte, v int) []byte {
	return encodeCRS2(dst, b.rows(v, false))
}

// AppendUpperTriangleCRS2 is AppendBlockCRS2 of the diagonal block's upper
// triangle (CSR.UpperTriangle) — what a mirrored set stages for it.
func (b *BlockRow) AppendUpperTriangleCRS2(dst []byte) []byte {
	return encodeCRS2(dst, b.rows(b.u, true))
}

// build copies the rows s into a matrix of exactly their size, columns
// rebased.
func build(s blockRows) *CSR {
	out := &CSR{Rows: s.rows, Cols: s.cols, RowPtr: make([]int64, s.rows+1),
		ColIdx: make([]int32, s.nnz), Val: make([]float64, s.nnz)}
	for r := 0; r < s.rows; r++ {
		lo, hi := s.span(r)
		at := out.RowPtr[r]
		for i, c := range s.colIdx[lo:hi] {
			out.ColIdx[at+int64(i)] = c - s.c0
		}
		copy(out.Val[at:], s.val[lo:hi])
		out.RowPtr[r+1] = at + hi - lo
	}
	return out
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
