package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// columnForms returns a in each of the three column forms the kernels
// serve: int32 indices, one-byte gaps and two-byte gaps (which an empty
// matrix has no entry to take).
func columnForms(t *testing.T, a *CSR) map[string]*CSR {
	t.Helper()
	if a.NNZ() == 0 {
		return map[string]*CSR{"int32": a}
	}
	return map[string]*CSR{"int32": a, "gap8": gapFormOf(t, a, 1), "gap16": gapFormOf(t, a, 2)}
}

// garbage is n values no kernel may leave behind: the arena hands out
// recycled buffers.
func garbage(n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = math.NaN()
	}
	return g
}

// mirrorBlocks are the shapes a grid partition cuts: square and rectangular
// (the shorter last part), random density with empty rows (randomPoolCSR's
// every seventh trial), one-entry rows, and long ragged rows.
func mirrorBlocks(t *testing.T, rng *rand.Rand) []*CSR {
	var ms []*CSR
	for trial := 0; trial < 21; trial++ {
		rows := 1 + rng.Intn(30)
		cols := rows
		if trial%3 == 1 {
			cols = 1 + rng.Intn(30)
		}
		ms = append(ms, randomPoolCSR(t, rng, rows, cols, trial))
	}
	var one []Triplet
	for i := 0; i < 17; i++ {
		one = append(one, Triplet{Row: i, Col: (i * 5) % 13, Val: rng.NormFloat64()})
	}
	oneEntry, err := FromTriplets(17, 13, one)
	if err != nil {
		t.Fatal(err)
	}
	return append(ms, oneEntry, raggedLongRows(rng, 64, 2), raggedLongRows(rng, 61, 1))
}

// TestMulVecPairBitIdentical: one pass of the pair kernel is MulVec over A
// and over A.Transpose(), bit for bit, in every column form.
func TestMulVecPairBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, a := range mirrorBlocks(t, rng) {
		x, xt := randVec(rng, a.Cols), randVec(rng, a.Rows)
		want, wantT := make([]float64, a.Rows), make([]float64, a.Cols)
		MulVec(a, x, want)
		MulVec(a.Transpose(), xt, wantT)
		for form, g := range columnForms(t, a) {
			y, yt := garbage(a.Rows), garbage(a.Cols)
			MulVecPair(g, x, xt, y, yt)
			bitsEqual(t, form+" pair gather", y, want)
			bitsEqual(t, form+" pair scatter", yt, wantT)
		}
	}
}

// TestMulVecTriangleBitIdentical: the triangle kernel over the upper
// triangle of a symmetric block is MulVec over the whole block, bit for bit,
// in every column form.
func TestMulVecTriangleBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, b := range mirrorBlocks(t, rng) {
		s := symmetricOf(t, b)
		x := randVec(rng, s.Cols)
		want := make([]float64, s.Rows)
		MulVec(s, x, want)
		for form, g := range columnForms(t, s.UpperTriangle()) {
			y := garbage(s.Rows)
			MulVecTriangle(g, x, y)
			bitsEqual(t, form+" triangle", y, want)
		}
	}
}

// symmetricOf is the square symmetric matrix with b's entries on and above
// the diagonal of b's leading square, its diagonal included; entries of b
// below that diagonal are mirrored up first.
func symmetricOf(t *testing.T, b *CSR) *CSR {
	t.Helper()
	n := min(b.Rows, b.Cols)
	var ts []Triplet
	for i := 0; i < n; i++ {
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			j := int(b.ColIdx[k])
			switch {
			case j >= n:
			case j == i:
				ts = append(ts, Triplet{Row: i, Col: i, Val: b.Val[k]})
			case j > i || b.At(j, i) == 0:
				ts = append(ts, Triplet{Row: i, Col: j, Val: b.Val[k]}, Triplet{Row: j, Col: i, Val: b.Val[k]})
			}
		}
	}
	s, err := FromTriplets(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSymmetric(0) {
		t.Fatal("symmetricOf built an asymmetric matrix")
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestUpperTriangle(t *testing.T) {
	m, err := FromTriplets(3, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 0, 3}, {2, 1, 4}, {2, 2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	u := m.UpperTriangle()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 2, 0, 0, 0, 0, 0, 5}
	for i, v := range u.Dense() {
		if v != want[i] {
			t.Fatalf("upper triangle %v, want %v", u.Dense(), want)
		}
	}
}

// BenchmarkMulVecPair is what a mirrored set's off-diagonal task does with
// its staged block, against what the full grid does with the same pair: the
// pair kernel over block (0,1) of the bench's symmetric 3000², D=8 matrix in
// a 4×4 grid, interleaved in one loop with the two gathers it replaces, over
// (0,1) and (1,0). ns/op is the pair kernel's; "x-gathers" is the median of
// its time over the two gathers' (pairedRatio), which make perf-gate holds at
// ≤ 1.15 on any machine.
func BenchmarkMulVecPair(b *testing.B) {
	m, err := GapMatrix(GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1, Symmetric: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewGridPartition(3000, 4)
	if err != nil {
		b.Fatal(err)
	}
	view := func(u, v int) *CSR {
		blk, err := Block(m, p, u, v)
		if err != nil {
			b.Fatal(err)
		}
		g, _, err := ViewCRSBytes(atOffset(encodeCRS(b, blk, true), 0), new(ViewScratch), nil)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	up, down := view(0, 1), view(1, 0)
	x0, x1 := make([]float64, p.Size(0)), make([]float64, p.Size(1))
	for i := range x0 {
		x0[i] = float64(i%17) * 0.25
	}
	for i := range x1 {
		x1[i] = float64(i%13) * 0.5
	}
	y0, y1 := make([]float64, p.Size(0)), make([]float64, p.Size(1))
	b.ReportAllocs()
	ratio, pairTime := pairedRatio(b, func() {
		(*Pool)(nil).MulVec(up, x1, y0)
		(*Pool)(nil).MulVec(down, x0, y1)
	}, func() { MulVecPair(up, x1, x0, y0, y1) })
	b.ReportMetric(float64(pairTime)/float64(b.N), "ns/op")
	b.ReportMetric(ratio, "x-gathers")
}

// BenchmarkMulVecTriangle: the triangle kernel over diagonal block (0,0)'s
// staged triangle against one gather over the whole block, interleaved.
func BenchmarkMulVecTriangle(b *testing.B) {
	m, err := GapMatrix(GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1, Symmetric: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewGridPartition(3000, 4)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := Block(m, p, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	view := func(a *CSR) *CSR {
		g, _, err := ViewCRSBytes(atOffset(encodeCRS(b, a, true), 0), new(ViewScratch), nil)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	whole, tri := view(blk), view(blk.UpperTriangle())
	x := make([]float64, blk.Cols)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	y := make([]float64, blk.Rows)
	b.ReportAllocs()
	ratio, triTime := pairedRatio(b, func() { (*Pool)(nil).MulVec(whole, x, y) }, func() { MulVecTriangle(tri, x, y) })
	b.ReportMetric(float64(triTime)/float64(b.N), "ns/op")
	b.ReportMetric(ratio, "x-gather")
}
