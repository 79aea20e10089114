package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// stripesCoverRows asserts the invariants every caller of
// nnzBalancedStripesInto relies on: monotone boundaries from 0 to Rows,
// exactly workers stripes.
func stripesCoverRows(t *testing.T, a *CSR, workers int) []int {
	t.Helper()
	bounds := nnzBalancedStripesInto(nil, a, workers)
	if len(bounds) != workers+1 {
		t.Fatalf("nnzBalancedStripesInto(%d workers): %d bounds, want %d", workers, len(bounds), workers+1)
	}
	if bounds[0] != 0 || bounds[workers] != a.Rows {
		t.Fatalf("bounds span [%d,%d], want [0,%d]", bounds[0], bounds[workers], a.Rows)
	}
	for w := 0; w < workers; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("bounds not monotone at %d: %v", w, bounds)
		}
	}
	return bounds
}

func TestNnzBalancedStripesEmptyRows(t *testing.T) {
	// Rows 0..3 empty, all nnz in rows 4..7, rows 8..9 empty again.
	var ts []Triplet
	for i := 4; i < 8; i++ {
		for j := 0; j < 5; j++ {
			ts = append(ts, Triplet{Row: i, Col: j, Val: 1})
		}
	}
	a, err := FromTriplets(10, 10, ts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := stripesCoverRows(t, a, 4)
	// Every stored entry must land in exactly one stripe; leading empty rows
	// must not push any boundary past a row holding data it skips.
	covered := int64(0)
	for w := 0; w < 4; w++ {
		covered += int64(a.RowPtr[bounds[w+1]] - a.RowPtr[bounds[w]])
	}
	if covered != a.NNZ() {
		t.Fatalf("stripes cover %d nnz, matrix has %d", covered, a.NNZ())
	}
}

func TestNnzBalancedStripesMoreWorkersThanRows(t *testing.T) {
	a, err := FromTriplets(3, 3, []Triplet{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// More stripes than rows: extras must collapse to empty stripes, not
	// read past Rows.
	stripesCoverRows(t, a, 8)
}

func TestNnzBalancedStripesDominatingRow(t *testing.T) {
	// One row holds almost all entries; balanced stripes cannot split a row,
	// so the dominating row's stripe absorbs the skew and the remaining
	// boundaries must still be valid.
	var ts []Triplet
	for j := 0; j < 100; j++ {
		ts = append(ts, Triplet{Row: 2, Col: j % 6, Val: float64(j)})
	}
	ts = append(ts, Triplet{Row: 0, Col: 0, Val: 1}, Triplet{Row: 5, Col: 5, Val: 1})
	a, err := FromTriplets(6, 6, ts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := stripesCoverRows(t, a, 3)
	// Row 2 must fall inside exactly one stripe.
	owners := 0
	for w := 0; w < 3; w++ {
		if bounds[w] <= 2 && 2 < bounds[w+1] {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("dominating row owned by %d stripes, want 1 (bounds %v)", owners, bounds)
	}
}

func TestNnzBalancedStripesEmptyMatrix(t *testing.T) {
	a, err := FromTriplets(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripesCoverRows(t, a, 3)
}

// TestMulVecParallelFuzzEquivalence fuzzes random matrices (including
// pathological shapes) and checks the pool's row-striped MulVec against
// sequential MulVec bit-for-bit: striping only partitions rows, so per-row
// summation order is identical and the results must be exactly equal, not
// merely close.
func TestMulVecParallelFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(64)
		cols := 1 + rng.Intn(64)
		density := rng.Float64() * 0.3
		var ts []Triplet
		for i := 0; i < rows; i++ {
			if trial%7 == 0 && i%2 == 0 {
				continue // alternating empty rows
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
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		MulVec(a, x, want)
		for _, workers := range []int{1, 2, 3, 4, rows + 3} {
			got := make([]float64, rows)
			for i := range got {
				got[i] = math.NaN() // catch unwritten rows
			}
			p := NewPool(workers)
			p.MulVec(a, x, got)
			p.Close()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d workers %d row %d: got %v want %v", trial, workers, i, got[i], want[i])
				}
			}
		}
	}
}
