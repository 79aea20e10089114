// Package sparse provides the sparse linear-algebra substrate of the DOoC
// reproduction: CSR matrices, the binary CRS on-disk format used by the
// paper's out-of-core SpMV, the paper's random-gap matrix generator, a K×K
// grid partitioner, and parallel SpMV kernels.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// RowPtr has Rows+1 entries; the column indices and values of row i live in
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices within a row are strictly increasing.
//
// A view of a DOOCCRS2 block (ViewCRSBytes) may carry its columns in gap
// form instead: ColIdx is nil, RowFirst holds the first column of every row
// and exactly one of Gap8 and Gap16 the distance of every stored entry from
// the entry before it in its row — 0 for a row's first entry, at least 1 for
// any other. NNZ, Bytes, Validate, Columns, Pool.MulVec and MulVecRows
// understand the gap form; everything else in this package wants ColIdx.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float64

	RowFirst []int32
	Gap8     []uint8
	Gap16    []uint16
}

// gapForm reports whether m carries its columns as in-row gaps.
func (m *CSR) gapForm() bool { return m.RowFirst != nil }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.Rows]
}

// Bytes returns the in-memory footprint of the matrix payload
// (row pointers + column indices + values).
func (m *CSR) Bytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*8 +
		int64(len(m.RowFirst))*4 + int64(len(m.Gap8)) + int64(len(m.Gap16))*2
}

// Validate checks structural invariants, of either column form, and returns
// a descriptive error on the first violation.
func (m *CSR) Validate() error {
	if err := m.validateShape(); err != nil {
		return err
	}
	if !m.gapForm() {
		return m.checkRows(0, m.Rows)
	}
	nnz := m.RowPtr[m.Rows]
	if len(m.ColIdx) != 0 || len(m.RowFirst) != m.Rows || int64(len(m.Val)) != nnz ||
		int64(len(m.Gap8)+len(m.Gap16)) != nnz || len(m.Gap8) != 0 && len(m.Gap16) != 0 {
		return fmt.Errorf("sparse: gap form with len(ColIdx)=%d len(RowFirst)=%d len(Gap8)=%d len(Gap16)=%d len(Val)=%d, want 0, %d, and %d gaps of one width and values",
			len(m.ColIdx), len(m.RowFirst), len(m.Gap8), len(m.Gap16), len(m.Val), m.Rows, nnz)
	}
	if len(m.Gap16) != 0 {
		return validateGapRows(m, m.Gap16)
	}
	return validateGapRows(m, m.Gap8)
}

// validateShape checks the dimensions and the ends of the row pointers.
func (m *CSR) validateShape() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: len(RowPtr)=%d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0]=%d, want 0", m.RowPtr[0])
	}
	return nil
}

// validateRows is Validate of a matrix that carries ColIdx with the entries
// of rows [r0, r1) checked, no others.
func (m *CSR) validateRows(r0, r1 int) error {
	if m.gapForm() {
		return fmt.Errorf("sparse: a matrix in gap form has no ColIdx to split")
	}
	if err := m.validateShape(); err != nil {
		return err
	}
	return m.checkRows(r0, r1)
}

// checkRows is Validate's walk over rows [r0, r1) of a matrix in ColIdx
// form: the arrays hold every entry, the row pointers ascend within them,
// and every row's columns ascend strictly within the matrix.
func (m *CSR) checkRows(r0, r1 int) error {
	nnz := m.RowPtr[m.Rows]
	if int64(len(m.ColIdx)) != nnz || int64(len(m.Val)) != nnz {
		return fmt.Errorf("sparse: len(ColIdx)=%d len(Val)=%d, want %d", len(m.ColIdx), len(m.Val), nnz)
	}
	for i := r0; i < r1; i++ {
		if m.RowPtr[i] < 0 || m.RowPtr[i] > m.RowPtr[i+1] || m.RowPtr[i+1] > nnz {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d: %d, %d, last %d", i, m.RowPtr[i], m.RowPtr[i+1], nnz)
		}
		prev := int32(-1)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: row %d col %d out of range [0,%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// validateGapRows is Validate's walk over the gap form, one gap per stored
// entry: a row opens at its RowFirst, inside the matrix, with a gap of 0;
// every later entry adds a gap of at least 1 — a zero gap would repeat a
// column — and stays inside.
func validateGapRows[G uint8 | uint16](m *CSR, gaps []G) error {
	nnz := m.RowPtr[m.Rows]
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi || hi > nnz {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d: %d, %d, last %d", i, lo, hi, nnz)
		}
		if lo == hi {
			continue
		}
		c := int(m.RowFirst[i])
		if c < 0 || c >= m.Cols || gaps[lo] != 0 {
			return fmt.Errorf("sparse: row %d opens at column %d of %d with gap %d", i, c, m.Cols, gaps[lo])
		}
		for k := lo + 1; k < hi; k++ {
			if gaps[k] == 0 {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, c)
			}
			if c += int(gaps[k]); c >= m.Cols {
				return fmt.Errorf("sparse: row %d col %d out of range [0,%d)", i, c, m.Cols)
			}
		}
	}
	return nil
}

// Columns returns the column index of every stored entry: ColIdx itself, or
// — for a matrix in gap form — a fresh slice holding what its gaps add up to,
// in one pass over the rows. The matrix must be valid.
func (m *CSR) Columns() []int32 {
	switch {
	case !m.gapForm():
		return m.ColIdx
	case len(m.Gap16) != 0:
		return gapColumns(m, m.Gap16, make([]int32, len(m.Gap16)))
	}
	return gapColumns(m, m.Gap8, make([]int32, len(m.Gap8)))
}

// gapColumns materialises the columns of a valid gap-form matrix into dst.
func gapColumns[G uint8 | uint16](m *CSR, gaps []G, dst []int32) []int32 {
	for i := 0; i < m.Rows; i++ {
		c := m.RowFirst[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c += int32(gaps[k])
			dst[k] = c
		}
	}
	return dst
}

// Triplet is one (row, col, value) entry, used to assemble matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets assembles a CSR matrix from unordered triplets. Duplicate
// (row, col) entries are summed, in the order they appear in ts, matching
// standard assembly semantics.
//
// A counting sort buckets the triplets by row, keeping input order; each row
// is then sorted on one uint64 per entry — the column above the entry's place
// in its row — so no comparison function runs, equal columns stay in input
// order, and the result does not depend on the sort's stability.
func FromTriplets(rows, cols int, ts []Triplet) (*CSR, error) {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of %dx%d", t.Row, t.Col, rows, cols)
		}
		m.RowPtr[t.Row+1]++
	}
	if len(ts) == 0 {
		return m, nil
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	next := append([]int64(nil), m.RowPtr[:rows]...)
	keys := make([]uint64, len(ts))
	vals := make([]float64, len(ts))
	for _, t := range ts {
		p := next[t.Row]
		next[t.Row]++
		keys[p] = uint64(t.Col)<<32 | uint64(p-m.RowPtr[t.Row])
		vals[p] = t.Val
	}
	m.ColIdx = make([]int32, 0, len(ts))
	m.Val = make([]float64, 0, len(ts))
	lo := int64(0)
	for i := 0; i < rows; i++ {
		hi := m.RowPtr[i+1]
		m.RowPtr[i] = int64(len(m.Val))
		row, rowVals := keys[lo:hi], vals[lo:hi]
		slices.Sort(row)
		for k := 0; k < len(row); {
			col := row[k] >> 32
			v := 0.0
			for ; k < len(row) && row[k]>>32 == col; k++ {
				v += rowVals[uint32(row[k])]
			}
			m.ColIdx = append(m.ColIdx, int32(col))
			m.Val = append(m.Val, v)
		}
		lo = hi
	}
	m.RowPtr[rows] = int64(len(m.Val))
	return m, nil
}

// FromDense builds a CSR matrix from a dense row-major matrix, storing
// entries with |v| > 0.
func FromDense(rows, cols int, dense []float64) *CSR {
	if len(dense) != rows*cols {
		panic(fmt.Sprintf("sparse: dense length %d != %d*%d", len(dense), rows, cols))
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := dense[i*cols+j]
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int64(len(m.Val))
	}
	return m
}

// Dense expands the matrix into a dense row-major slice (test/debug helper;
// do not call on large matrices).
func (m *CSR) Dense() []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i*m.Cols+int(m.ColIdx[k])] = m.Val[k]
		}
	}
	return out
}

// At returns the entry at (i, j), zero if not stored. Binary search per row.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := int(m.ColIdx[mid]); {
		case c == j:
			return m.Val[mid]
		case c < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Transpose returns the transpose of m, also in CSR.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int64(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			p := next[c]
			t.ColIdx[p] = int32(i)
			t.Val[p] = m.Val[k]
			next[c]++
		}
	}
	return t
}

// IsSymmetric reports whether the matrix equals its transpose, entry for
// stored entry. tol == 0 asks for bit equality (math.Float64bits: −0 and +0
// differ, a NaN matches only the same NaN); tol > 0 for |a − b| ≤ tol, which
// no NaN meets.
//
// One pass over the rows in order, with a cursor per row into the part of
// the row above the diagonal. The mirror of an entry (i, j) below the
// diagonal is the entry of row j that rows above i have not yet claimed, so
// it must sit at row j's cursor; the matrix is symmetric when every entry
// below the diagonal finds its mirror there and no entry above it is left
// unclaimed. The walk returns at the first entry whose mirror is missing or
// differs.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	cols := m.Columns()
	next := make([]int64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		k, end := m.RowPtr[i], m.RowPtr[i+1]
		for ; k < end && int(cols[k]) < i; k++ {
			j := cols[k]
			p := next[j]
			if p == m.RowPtr[j+1] || int(cols[p]) != i {
				return false
			}
			a, b := m.Val[k], m.Val[p]
			if tol == 0 && math.Float64bits(a) != math.Float64bits(b) || tol != 0 && !(math.Abs(a-b) <= tol) {
				return false
			}
			next[j]++
		}
		if k < end && int(cols[k]) == i {
			if a := m.Val[k]; tol != 0 && a != a { // a NaN is not within tol of itself
				return false
			}
			k++
		}
		next[i] = k
	}
	for i := 0; i < m.Rows; i++ {
		if next[i] != m.RowPtr[i+1] {
			return false
		}
	}
	return true
}
