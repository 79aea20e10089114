package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomCSR builds a random rows x cols matrix; trial%7 == 0 inserts
// alternating empty rows, matching the parallel-fuzz generator.
func randomPoolCSR(t *testing.T, rng *rand.Rand, rows, cols, trial int) *CSR {
	t.Helper()
	density := rng.Float64() * 0.3
	var ts []Triplet
	for i := 0; i < rows; i++ {
		if trial%7 == 0 && i%2 == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	a, err := FromTriplets(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func bitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s element %d: got %v want %v", tag, i, got[i], want[i])
		}
	}
}

// TestNnzBalancedStripesDenseRow is the regression test for the
// sort.Search rewrite: a single dense row holding every stored entry must
// yield empty leading/trailing stripes (tolerated, skipped by callers)
// while still covering all nnz exactly once and keeping boundaries
// monotone.
func TestNnzBalancedStripesDenseRow(t *testing.T) {
	for _, denseRow := range []int{0, 7, 15} {
		var ts []Triplet
		for j := 0; j < 200; j++ {
			ts = append(ts, Triplet{Row: denseRow, Col: j % 16, Val: float64(j + 1)})
		}
		a, err := FromTriplets(16, 16, ts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			bounds := stripesCoverRows(t, a, workers)
			covered := int64(0)
			owners := 0
			for w := 0; w < workers; w++ {
				covered += int64(a.RowPtr[bounds[w+1]] - a.RowPtr[bounds[w]])
				if bounds[w] <= denseRow && denseRow < bounds[w+1] {
					owners++
				}
			}
			if covered != a.NNZ() {
				t.Fatalf("dense row %d, %d workers: stripes cover %d nnz, want %d", denseRow, workers, covered, a.NNZ())
			}
			if owners != 1 {
				t.Fatalf("dense row %d owned by %d stripes, want 1 (bounds %v)", denseRow, owners, bounds)
			}
		}
	}
}

// TestNnzBalancedStripesIntoReuse checks the stripe planner reuses a caller
// buffer and plans the same bounds into it as into a fresh one.
func TestNnzBalancedStripesIntoReuse(t *testing.T) {
	a, err := FromTriplets(12, 12, []Triplet{{0, 0, 1}, {3, 3, 2}, {7, 1, 3}, {11, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]int, 16)
	got := nnzBalancedStripesInto(scratch, a, 5)
	want := nnzBalancedStripesInto(nil, a, 5)
	if &got[0] != &scratch[0] {
		t.Fatal("nnzBalancedStripesInto did not reuse the provided buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds differ at %d: got %v want %v", i, got, want)
		}
	}
}

// wideCSR is a rows x cols matrix with int32 column indices and 4 + i%5
// entries in row i, spread over every column: the shape (wider than 32Ki
// columns, four or more entries a row) a column-tiled traversal would take.
func wideCSR(t *testing.T, rng *rand.Rand, rows, cols int) *CSR {
	t.Helper()
	var ts []Triplet
	for i := 0; i < rows; i++ {
		for j, n := 0, 4+i%5; j < n; j++ {
			ts = append(ts, Triplet{Row: i, Col: (j*cols + rng.Intn(cols)) / n, Val: rng.NormFloat64()})
		}
	}
	a, err := FromTriplets(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPoolMulVecFuzzEquivalence checks the persistent pool's dispatch (the
// inline nil pool and widths 1–8, reused across trials) against sequential
// MulVec bit-for-bit, over small random matrices and one wide int32 matrix.
func TestPoolMulVecFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pools := []*Pool{nil}
	for w := 1; w <= 8; w++ {
		p := NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	var ms []*CSR
	for trial := 0; trial < 40; trial++ {
		ms = append(ms, randomPoolCSR(t, rng, 1+rng.Intn(64), 1+rng.Intn(64), trial))
	}
	ms = append(ms, wideCSR(t, rng, 96, 40000))
	for _, a := range ms {
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, a.Rows)
		MulVec(a, x, want)
		for _, p := range pools {
			got := make([]float64, a.Rows)
			for i := range got {
				got[i] = math.NaN()
			}
			p.MulVec(a, x, got)
			bitsEqual(t, "Pool.MulVec", got, want)
		}
	}
}

// TestMulVecFusedFuzzEquivalence proves MulVecDot and MulVecAxpyDot are
// bit-identical to the composed MulVec + Dot + Axpy reference across random
// square systems, the inline nil pool and pool widths 1..8, and the
// empty-matrix edge.
func TestMulVecFusedFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pools := []*Pool{nil}
	for w := 1; w <= 8; w++ {
		p := NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(96)
		var a *CSR
		if trial == 3 {
			// Empty-matrix edge: square, zero stored entries.
			empty, err := FromTriplets(n, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			a = empty
		} else {
			a = randomPoolCSR(t, rng, n, n, trial)
		}
		x := make([]float64, n)
		prev := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			prev[i] = rng.NormFloat64()
		}
		beta := rng.NormFloat64()

		// Composed reference, built with the public kernels exactly as
		// lanczos.Solve composes them.
		want := make([]float64, n)
		MulVec(a, x, want)
		alphaWant := Dot(want, x)

		for pi, p := range pools {
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN()
			}
			alpha := p.MulVecDot(a, x, got)
			if math.Float64bits(alpha) != math.Float64bits(alphaWant) {
				t.Fatalf("trial %d pool %d: MulVecDot alpha %v want %v", trial, pi, alpha, alphaWant)
			}
			bitsEqual(t, "MulVecDot y", got, want)

			// Three-term update, with and without the prev vector.
			for _, withPrev := range []bool{false, true} {
				pv := prev
				if !withPrev {
					pv = nil
				}
				wantW := append([]float64(nil), want...)
				Axpy(-alphaWant, x, wantW)
				if withPrev {
					Axpy(-beta, prev, wantW)
				}

				gotW := make([]float64, n)
				for i := range gotW {
					gotW[i] = math.NaN()
				}
				aG := p.MulVecAxpyDot(a, x, pv, beta, gotW)
				if math.Float64bits(aG) != math.Float64bits(alphaWant) {
					t.Fatalf("trial %d pool %d prev=%v: alpha %v want %v", trial, pi, withPrev, aG, alphaWant)
				}
				bitsEqual(t, "MulVecAxpyDot y", gotW, wantW)
			}
		}
	}
}

// TestMulVecRowsPartial checks the exported row-range kernel against the
// matching slice of a full MulVec.
func TestMulVecRowsPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomPoolCSR(t, rng, 37, 23, 1)
	x := make([]float64, 23)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 37)
	MulVec(a, x, want)
	for _, rr := range [][2]int{{0, 37}, {0, 0}, {5, 9}, {3, 36}, {36, 37}, {0, 4}} {
		lo, hi := rr[0], rr[1]
		got := make([]float64, hi-lo)
		for i := range got {
			got[i] = math.NaN()
		}
		MulVecRows(a, x, got, lo, hi)
		bitsEqual(t, "MulVecRows", got, want[lo:hi])
	}
}

// gapFormOf returns a in gap form of the given width, by the only road there
// is: written as a V2 block and viewed.
func gapFormOf(t *testing.T, a *CSR, width int) *CSR {
	t.Helper()
	g, _, err := ViewCRSBytes(atOffset(encodeCRS2Form(t, a, width), 0), new(ViewScratch), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.gapForm() || g.ColIdx != nil {
		t.Fatalf("a view of a width-%d block is not in gap form", width)
	}
	return g
}

// raggedLongRows is an n × n matrix whose row i holds 5 + 7i mod 19 entries,
// stride columns apart: neighbouring rows share a prefix of five entries or
// more and end at different lengths.
func raggedLongRows(rng *rand.Rand, n, stride int) *CSR {
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < 5+7*i%19; j++ {
			ts = append(ts, Triplet{Row: i, Col: i%stride + j*stride, Val: rng.NormFloat64()})
		}
	}
	a, err := FromTriplets(n, n, ts)
	if err != nil {
		panic(err)
	}
	return a
}

// TestMulVecGapBitIdentical: the gap kernel is mulVecRows bit for bit — over
// whole blocks through every pool width, over every MulVecRows(r0, r1) split,
// and beneath the fused kernels, which reach it through the same dispatch —
// for one-byte and two-byte gaps alike, with empty rows, ragged row groups
// and, in the last two matrices, rows long enough that the groups' common
// prefix runs through the four-entry passes and leaves a remainder.
func TestMulVecGapBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pools := []*Pool{nil}
	for w := 1; w <= 4; w++ {
		p := NewPool(w)
		defer p.Close()
		pools = append(pools, p)
	}
	var ms []*CSR
	for trial := 0; trial < 28; trial++ {
		n := 1 + rng.Intn(40)
		ms = append(ms, randomPoolCSR(t, rng, n, n, trial))
	}
	ms = append(ms, raggedLongRows(rng, 64, 2), raggedLongRows(rng, 61, 1))
	for _, a := range ms {
		n := a.Rows
		if a.NNZ() == 0 {
			continue
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		mulVecRows(a, x, want, 0, n)
		for _, width := range []int{1, 2} {
			g := gapFormOf(t, a, width)
			got := make([]float64, n)
			for _, p := range pools {
				for i := range got {
					got[i] = math.NaN()
				}
				p.MulVec(g, x, got)
				bitsEqual(t, "Pool.MulVec over gaps", got, want)
			}
			for r0 := 0; r0 <= n; r0++ {
				for r1 := r0; r1 <= n; r1++ {
					part := got[:r1-r0]
					for i := range part {
						part[i] = math.NaN()
					}
					MulVecRows(g, x, part, r0, r1)
					bitsEqual(t, "MulVecRows over gaps", part, want[r0:r1])
				}
			}
			prev := make([]float64, n)
			for i := range prev {
				prev[i] = rng.NormFloat64()
			}
			yWant, yGot := make([]float64, n), make([]float64, n)
			alphaWant := pools[0].MulVecAxpyDot(a, x, prev, 0.375, yWant)
			alphaGot := pools[2].MulVecAxpyDot(g, x, prev, 0.375, yGot)
			if math.Float64bits(alphaGot) != math.Float64bits(alphaWant) {
				t.Fatalf("MulVecAxpyDot over gaps: alpha %v, want %v", alphaGot, alphaWant)
			}
			bitsEqual(t, "MulVecAxpyDot over gaps", yGot, yWant)
		}
	}
}

// TestPoolConcurrentCallers hammers one pool from several goroutines; the
// dispatch lock must serialize them without corrupting results (run under
// -race in CI).
func TestPoolConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomPoolCSR(t, rng, 200, 200, 1)
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 200)
	MulVec(a, x, want)
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, 200)
			for it := 0; it < 50; it++ {
				p.MulVec(a, x, y)
				for i := range want {
					if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
						t.Errorf("concurrent caller diverged at row %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolCloseIdempotent ensures Close is safe on nil pools and called
// twice.
func TestPoolCloseIdempotent(t *testing.T) {
	var nilPool *Pool
	nilPool.Close() // must not panic
	p := NewPool(3)
	p.Close()
	p.Close()
}

// BenchmarkMulVecFused measures the fused SpMV + dot + double-AXPY Lanczos
// update; SetBytes counts the matrix stream so go test -bench reports GB/s.
func BenchmarkMulVecFused(b *testing.B) {
	m, err := GapMatrix(GapGenConfig{Rows: 4096, Cols: 4096, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.Cols)
	prev := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%17) * 0.25
		prev[i] = float64(i%13) * 0.5
	}
	p := NewPool(4)
	defer p.Close()
	b.SetBytes(m.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulVecAxpyDot(m, x, prev, 0.5, y)
	}
}
