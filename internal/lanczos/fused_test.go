package lanczos

import (
	"math"
	"math/rand"
	"testing"

	"dooc/internal/sparse"
)

// composedOperator hides MatrixOperator's fused interfaces so Solve takes
// the Apply + Dot + Axpy branch.
type composedOperator struct{ m MatrixOperator }

func (c composedOperator) Dim() int                             { return c.m.Dim() }
func (c composedOperator) Apply(x []float64) ([]float64, error) { return c.m.Apply(x) }

// TestSolveFusedBitIdentical runs the same Lanczos problem through the
// fused kernel path and the composed path and requires every coefficient
// and eigenvalue to match bit-for-bit — the fusion is a strength reduction,
// not a numerical change.
func TestSolveFusedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4 + rng.Float64()})
		if i+1 < n {
			v := rng.NormFloat64()
			ts = append(ts, sparse.Triplet{Row: i, Col: i + 1, Val: v}, sparse.Triplet{Row: i + 1, Col: i, Val: v})
		}
	}
	m, err := sparse.FromTriplets(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	opts := Options{Steps: 40, X0: x0}

	want, err := Solve(composedOperator{MatrixOperator{M: m}}, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		pool := sparse.NewPool(workers)
		defer pool.Close()
		for _, op := range []Operator{
			MatrixOperator{M: m},             // fused, inline nil pool
			MatrixOperator{M: m, Pool: pool}, // fused, persistent pool
		} {
			got, err := Solve(op, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Alphas) != len(want.Alphas) || len(got.Betas) != len(want.Betas) {
				t.Fatalf("fused run shape: %d alphas %d betas, want %d and %d",
					len(got.Alphas), len(got.Betas), len(want.Alphas), len(want.Betas))
			}
			for i := range want.Alphas {
				if math.Float64bits(got.Alphas[i]) != math.Float64bits(want.Alphas[i]) {
					t.Fatalf("alpha[%d]: fused %v composed %v", i, got.Alphas[i], want.Alphas[i])
				}
			}
			for i := range want.Betas {
				if math.Float64bits(got.Betas[i]) != math.Float64bits(want.Betas[i]) {
					t.Fatalf("beta[%d]: fused %v composed %v", i, got.Betas[i], want.Betas[i])
				}
			}
			for i := range want.Eigenvalues {
				if math.Float64bits(got.Eigenvalues[i]) != math.Float64bits(want.Eigenvalues[i]) {
					t.Fatalf("eigenvalue[%d]: fused %v composed %v", i, got.Eigenvalues[i], want.Eigenvalues[i])
				}
			}
		}
	}
}
