package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// GapGenConfig configures the paper's synthetic matrix generator
// (Section V): within each row, the separation between two consecutive
// nonzero entries is uniformly distributed in [1:2d], so a row of length
// `cols` carries about cols/(d+0.5) nonzeros in expectation. d is chosen to
// yield a target nnz count.
type GapGenConfig struct {
	Rows, Cols int
	// D is the gap parameter d. Gaps are uniform on [1, 2d].
	D int
	// Seed makes generation deterministic and reproducible.
	Seed int64
	// Symmetric, when set and Rows==Cols, mirrors the strictly-upper pattern
	// into the lower triangle so the result is symmetric (as the nuclear
	// Hamiltonians in the paper are). The diagonal is fully populated to keep
	// the matrix well conditioned for iterative solvers.
	Symmetric bool
}

// ExpectedNNZ estimates the nonzero count the generator will produce.
func (c GapGenConfig) ExpectedNNZ() int64 {
	perRow := float64(c.Cols) / (float64(c.D) + 0.5)
	return int64(perRow * float64(c.Rows))
}

// DForTargetNNZ returns the gap parameter d that yields approximately
// `target` nonzeros in a rows×cols matrix, the paper's calibration rule
// ("d is chosen to yield a certain number of total non-zero elements").
func DForTargetNNZ(rows, cols int, target int64) int {
	if target <= 0 {
		return cols // effectively empty rows
	}
	perRow := float64(target) / float64(rows)
	d := int(float64(cols)/perRow - 0.5)
	if d < 1 {
		d = 1
	}
	return d
}

// GapMatrix generates a random sparse matrix using the gap scheme. Values
// are uniform on [-1, 1).
//
// Both forms are built straight into CSR arrays, with no triplet list and no
// sort, the rng drawn row by row in one order: a row's first offset, then for
// every entry its value and the gap to the next. The general form fills rows
// as it draws them, into arrays of the capacity gapCapacity bounds (0.03 %
// over on a 3000² matrix at d = 8; copying into exact arrays would cost a
// third of the generation). The symmetric form draws the diagonal and
// strictly-upper entries of every row first, counting each column's mirrored
// entries as it goes, and then fills exactly-sized arrays row by row: the
// mirrors of column r from rows i < r (in ascending i, as the rows are
// walked), the diagonal, its own upper entries.
func GapMatrix(cfg GapGenConfig) (*CSR, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("sparse: gap generator needs positive dims, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("sparse: gap parameter d=%d must be >= 1", cfg.D)
	}
	if cfg.Symmetric && cfg.Rows != cfg.Cols {
		return nil, fmt.Errorf("sparse: symmetric generation needs a square matrix, got %dx%d", cfg.Rows, cfg.Cols)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, d := cfg.Rows, cfg.D
	if !cfg.Symmetric {
		rowPtr := make([]int64, n+1)
		capacity := gapCapacity(n, float64(n)*float64(cfg.Cols), d)
		cols, vals := make([]int32, 0, capacity), make([]float64, 0, capacity)
		for i := 0; i < n; i++ {
			// First nonzero lands after a random offset so column coverage is
			// uniform; subsequent gaps are uniform on [1, 2d].
			for col := rng.Intn(d); col < cfg.Cols; col += 1 + rng.Intn(2*d) {
				cols = append(cols, int32(col))
				vals = append(vals, 2*rng.Float64()-1)
			}
			rowPtr[i+1] = int64(len(vals))
		}
		return &CSR{Rows: n, Cols: cfg.Cols, RowPtr: rowPtr, ColIdx: cols, Val: vals}, nil
	}
	// Symmetric: draw every row's diagonal (diagonally dominant-ish) and
	// strictly-upper entries by the gap scheme; mirrors[c] counts the upper
	// entries in column c, the mirrored entries row c will hold.
	diag := make([]float64, n)
	upPtr, mirrors := make([]int64, n+1), make([]int64, n)
	capacity := gapCapacity(n, float64(n)*float64(n-1)/2, d)
	upCols, upVals := make([]int32, 0, capacity), make([]float64, 0, capacity)
	for i := 0; i < n; i++ {
		diag[i] = 2 + rng.Float64()
		for col := i + 1 + rng.Intn(d); col < n; col += 1 + rng.Intn(2*d) {
			upCols = append(upCols, int32(col))
			upVals = append(upVals, 2*rng.Float64()-1)
			mirrors[col]++
		}
		upPtr[i+1] = int64(len(upVals))
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] = m.RowPtr[r] + mirrors[r] + 1 + upPtr[r+1] - upPtr[r]
	}
	nnz := m.RowPtr[n]
	m.ColIdx, m.Val = make([]int32, nnz), make([]float64, nnz)
	next := mirrors // reused: row r's next mirror slot
	for r := 0; r < n; r++ {
		at := m.RowPtr[r] + mirrors[r]
		next[r] = m.RowPtr[r]
		m.ColIdx[at], m.Val[at] = int32(r), diag[r]
		copy(m.ColIdx[at+1:], upCols[upPtr[r]:upPtr[r+1]])
		copy(m.Val[at+1:], upVals[upPtr[r]:upPtr[r+1]])
	}
	for i := 0; i < n; i++ {
		for k := upPtr[i]; k < upPtr[i+1]; k++ {
			c := upCols[k]
			m.ColIdx[next[c]], m.Val[next[c]] = int32(i), upVals[k]
			next[c]++
		}
	}
	return m, nil
}

// gapCapacity is a bound on the entries the gap scheme draws over span
// column positions in all, split into rows rows: the expected count — a gap
// averages d + 1/2, a row's offset adds at most one entry — plus six
// standard deviations. An array of that capacity is appended to without
// growing but in the rarest draws.
func gapCapacity(rows int, span float64, d int) int {
	mean := float64(d) + 0.5
	variance := (4*float64(d)*float64(d) - 1) / 12
	return int(span/mean + float64(rows) + 6*math.Sqrt(span*variance/(mean*mean*mean)) + 16)
}

// Stats summarizes a matrix for reporting.
type Stats struct {
	Rows, Cols int
	NNZ        int64
	AvgPerRow  float64
	MinPerRow  int64
	MaxPerRow  int64
	Bytes      int64
}

// Summarize computes row-population statistics for m.
func Summarize(m *CSR) Stats {
	s := Stats{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), Bytes: m.Bytes()}
	if m.Rows == 0 {
		return s
	}
	s.MinPerRow = int64(m.Cols) + 1
	for i := 0; i < m.Rows; i++ {
		n := m.RowPtr[i+1] - m.RowPtr[i]
		if n < s.MinPerRow {
			s.MinPerRow = n
		}
		if n > s.MaxPerRow {
			s.MaxPerRow = n
		}
	}
	s.AvgPerRow = float64(s.NNZ) / float64(m.Rows)
	return s
}
