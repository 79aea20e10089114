package sparse

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a random valid matrix for property tests.
func randomCSR(rng *rand.Rand, maxDim int) *CSR {
	rows := 1 + rng.Intn(maxDim)
	cols := 1 + rng.Intn(maxDim)
	var ts []Triplet
	n := rng.Intn(rows * cols)
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()})
	}
	m, err := FromTriplets(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestFromTripletsBasic(t *testing.T) {
	m, err := FromTriplets(2, 3, []Triplet{{0, 1, 2.5}, {1, 0, -1}, {0, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 2.5 {
		t.Errorf("At(0,1) = %v, want 2.5", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

// Duplicates are summed in input order: (1e16 + 1) + -1e16 is 0, where
// (1e16 + -1e16) + 1 is 1.
func TestFromTripletsSumsDuplicates(t *testing.T) {
	m, err := FromTriplets(2, 2, []Triplet{{1, 1, 1e16}, {0, 0, 1}, {1, 1, 1}, {0, 0, 2}, {1, 1, -1e16}, {0, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 6 {
		t.Errorf("At(0,0) = %v, want 6", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0 ((1e16 + 1) - 1e16 in input order)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestFromTripletsRejectsOutOfRange(t *testing.T) {
	if _, err := FromTriplets(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := FromTriplets(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for negative col")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := []float64{1, 0, 2, 0, 0, 3}
	m := FromDense(2, 3, d)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	got := m.Dense()
	for i := range d {
		if got[i] != d[i] {
			t.Fatalf("Dense()[%d] = %v, want %v", i, got[i], d[i])
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 2, 3, 4})
	m.ColIdx[1] = 9 // out of range
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range column")
	}
	m = FromDense(2, 2, []float64{1, 2, 3, 4})
	m.RowPtr[1] = 5 // non-monotone
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation error for non-monotone RowPtr")
	}
	// A row that ends past the last entry is an error, not an index out of
	// range, whichever way the columns are held.
	past := &CSR{Rows: 2, Cols: 8, RowPtr: []int64{0, 5, 3}, ColIdx: []int32{0, 1, 2}, Val: []float64{1, 2, 3}}
	if err := past.Validate(); err == nil {
		t.Fatal("expected validation error for a row running past the entries")
	}
	past.ColIdx, past.RowFirst, past.Gap8 = nil, []int32{0, 0}, []uint8{0, 1, 1}
	if err := past.Validate(); err == nil {
		t.Fatal("expected validation error for a row of gaps running past the entries")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 12)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Val {
			if tt.ColIdx[i] != m.ColIdx[i] || tt.Val[i] != m.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 10)
	tr := m.Transpose()
	d := m.Dense()
	td := tr.Dense()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if d[i*m.Cols+j] != td[j*tr.Cols+i] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestIsSymmetric: tol 0 is bit equality, a NaN is never within a
// tolerance, and the one-pass walk sees an asymmetry wherever it is.
func TestIsSymmetric(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	sym := func(n int, ts ...Triplet) *CSR {
		m, err := FromTriplets(n, n, ts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, c := range []struct {
		name       string
		m          *CSR
		exact, tol bool // IsSymmetric(0), IsSymmetric(1e-9)
	}{
		{"symmetric", sym(3, Triplet{0, 1, 2}, Triplet{1, 0, 2}, Triplet{2, 2, 1}), true, true},
		{"NaN facing a value", sym(2, Triplet{0, 1, nan}, Triplet{1, 0, 1}), false, false},
		{"a value facing NaN", sym(2, Triplet{0, 1, 1}, Triplet{1, 0, nan}), false, false},
		{"the same NaN both sides", sym(2, Triplet{0, 1, nan}, Triplet{1, 0, nan}), true, false},
		{"NaN on the diagonal", sym(2, Triplet{1, 1, nan}), true, false},
		// By hand: FromTriplets sums onto +0, which turns −0 into +0.
		{"-0 facing +0", &CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{1, 0}, Val: []float64{negZero, 0}}, false, true},
		{"values within tol", sym(2, Triplet{0, 1, 1}, Triplet{1, 0, 1 + 1e-12}), false, true},
		{"one asymmetric entry in the last row", sym(4, Triplet{0, 3, 1}, Triplet{3, 0, 1}, Triplet{1, 2, 5}, Triplet{2, 1, 5}, Triplet{3, 2, 7}), false, false},
		{"mirror missing in an earlier row", sym(3, Triplet{2, 0, 1}), false, false},
		{"mirror missing in a later row", sym(3, Triplet{0, 1, 2}), false, false},
		{"empty rows", sym(5, Triplet{1, 3, 4}, Triplet{3, 1, 4}), true, true},
		{"empty", sym(4), true, true},
		{"non-square", FromDense(2, 3, make([]float64, 6)), false, false},
	} {
		if got := c.m.IsSymmetric(0); got != c.exact {
			t.Errorf("%s: IsSymmetric(0) = %v, want %v", c.name, got, c.exact)
		}
		if got := c.m.IsSymmetric(1e-9); got != c.tol {
			t.Errorf("%s: IsSymmetric(1e-9) = %v, want %v", c.name, got, c.tol)
		}
		if g := c.m; g.NNZ() > 0 && g.Rows == g.Cols {
			if got := gapFormOf(t, g, 1).IsSymmetric(0); got != c.exact {
				t.Errorf("%s in gap form: IsSymmetric(0) = %v, want %v", c.name, got, c.exact)
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 15)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, m.Rows)
		MulVec(m, x, y)
		d := m.Dense()
		for i := 0; i < m.Rows; i++ {
			want := 0.0
			for j := 0; j < m.Cols; j++ {
				want += d[i*m.Cols+j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, workers := range []int{1, 2, 3, 4, 8} {
		m := randomCSR(rng, 200)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		seq := make([]float64, m.Rows)
		par := make([]float64, m.Rows)
		MulVec(m, x, seq)
		p := NewPool(workers)
		p.MulVec(m, x, par)
		p.Close()
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: par[%d]=%v seq=%v", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestMulVecAdd(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 2, 3, 4})
	x := []float64{1, 1}
	y := []float64{10, 20}
	MulVecAdd(m, x, y)
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("y = %v, want [13 27]", y)
	}
}

func TestMulVecShapePanics(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 2, 3, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MulVec(m, make([]float64, 3), make([]float64, 2))
}

func TestNNZBalancedStripesCoverAllRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 50)
		w := 1 + rng.Intn(8)
		b := nnzBalancedStripesInto(nil, m, w)
		if b[0] != 0 || b[w] != m.Rows {
			return false
		}
		for i := 0; i < w; i++ {
			if b[i] > b[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy: y = %v", y)
	}
	if got := Dot(x, []float64{1, 1, 1}); got != 6 {
		t.Fatalf("Dot = %v, want 6", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	Scale(0.5, x)
	if x[0] != 0.5 || x[2] != 1.5 {
		t.Fatalf("Scale: x = %v", x)
	}
	dst := []float64{1, 1}
	Sum(dst, []float64{2, 3})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Sum: dst = %v", dst)
	}
}

func TestBytesAccounting(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 0, 0, 2})
	// RowPtr: 3*8 + ColIdx: 2*4 + Val: 2*8 = 48.
	if got := m.Bytes(); got != 48 {
		t.Fatalf("Bytes = %d, want 48", got)
	}
}

// shaOfCSR is the SHA-256 of m's DOOCCRS1 encoding: shape, row pointers,
// column indices and value bits.
func shaOfCSR(t *testing.T, m *CSR) string {
	t.Helper()
	h := sha256.New()
	if err := WriteCRS(h, m); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFromTripletsPinned holds FromTriplets to the bytes the sort.Slice
// assembly produced, on the two shapes of input callers hand it: the
// symmetric generator's duplicate-free list, and an unordered list heavy with
// duplicates. Columns under 37 of the second carry about four entries a cell
// with values in eighths (their sum is exact, whatever order it is taken in);
// columns from 37 carry exactly two full-mantissa entries a cell, far apart in
// the list (a + b is b + a). Three or more inexact duplicates of one cell were
// summed in whatever order the unstable sort left them and are summed in input
// order now (TestFromTripletsSumsDuplicates), the one case with no old bytes
// to hold to.
func TestFromTripletsPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "79bbf364d74a624d0941c384bb4dc29e7bcceaa7fb84adacc3213369cb441e65",
		2: "db66ee24cc96f6181540a8971d5b02c29532685be4640a4bc1b9ac147a7893ab",
		3: "9df814169025b093670c32255838c64baffe5666ddfeef6b90dbfb257dd275b9",
	} {
		m, err := GapMatrix(GapGenConfig{Rows: 500, Cols: 500, D: 4, Seed: seed, Symmetric: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := shaOfCSR(t, m); got != want {
			t.Errorf("symmetric gap matrix, seed %d: %s, pinned %s", seed, got, want)
		}
	}

	const rows, half = 40, 37
	rng := rand.New(rand.NewSource(7))
	var ts []Triplet
	for i := 0; i < 6000; i++ {
		ts = append(ts, Triplet{rng.Intn(rows), rng.Intn(half), float64(rng.Intn(129)-64) / 8})
	}
	pairs := rng.Perm(rows * half)[:500]
	for _, cell := range pairs {
		ts = append(ts, Triplet{cell / half, half + cell%half, rng.NormFloat64()})
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	for _, cell := range pairs {
		ts = append(ts, Triplet{cell / half, half + cell%half, rng.NormFloat64()})
	}
	m, err := FromTriplets(rows, 2*half, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	const want = "c6d903a09e3603e9f202e14dba3138ce3a0327e1dc0cb9c92996ec5bc80a2667"
	if got := shaOfCSR(t, m); got != want {
		t.Errorf("duplicate-heavy list (%d triplets, %d cells): %s, pinned %s", len(ts), m.NNZ(), got, want)
	}
}
