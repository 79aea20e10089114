package lanczos

import (
	"fmt"
	"math"
	"math/rand"

	"dooc/internal/sparse"
)

// Operator is a linear operator y = A x. Implementations include the
// in-core sparse matrix below and the DOoC out-of-core SpMV (internal/core).
type Operator interface {
	Dim() int
	Apply(x []float64) ([]float64, error)
}

// FusedOperator is an Operator that can run the Lanczos three-term update
// as one fused kernel: w = A x, alpha = w·x, w -= alpha·x (and, when prev
// is non-nil, w -= beta·prev), returning w and alpha. Implementations MUST
// be bit-identical to the composed Apply + sparse.Dot + sparse.Axpy
// sequence — Solve uses the fusion as a pure strength reduction, never a
// numerical change.
type FusedOperator interface {
	Operator
	ApplyAxpyDot(x, prev []float64, beta float64) ([]float64, float64, error)
}

// DotOperator is an Operator that fuses the inner product the CG iteration
// needs right after its SpMV: ap = A p plus p·ap in one pass, bit-identical
// to Apply followed by sparse.Dot(p, ap).
type DotOperator interface {
	Operator
	ApplyDot(x []float64) ([]float64, float64, error)
}

// MatrixOperator adapts an in-core CSR matrix.
type MatrixOperator struct {
	M *sparse.CSR
	// Pool, when non-nil, runs the kernels on a persistent stripe pool; nil
	// runs them inline on the calling goroutine.
	Pool *sparse.Pool
}

// Dim returns the operator dimension.
func (m MatrixOperator) Dim() int { return m.M.Rows }

// Apply computes A x.
func (m MatrixOperator) Apply(x []float64) ([]float64, error) {
	if m.M.Rows != m.M.Cols {
		return nil, fmt.Errorf("lanczos: operator matrix is %dx%d, need square", m.M.Rows, m.M.Cols)
	}
	y := make([]float64, m.M.Rows)
	m.Pool.MulVec(m.M, x, y)
	return y, nil
}

// ApplyAxpyDot implements FusedOperator: the SpMV, the reduction dot, and
// the orthogonalization AXPYs in one pass over the output. Per-row and
// per-element operation order match the composed sequence exactly, so the
// result is bit-identical (see internal/sparse.Pool.MulVecAxpyDot).
func (m MatrixOperator) ApplyAxpyDot(x, prev []float64, beta float64) ([]float64, float64, error) {
	if m.M.Rows != m.M.Cols {
		return nil, 0, fmt.Errorf("lanczos: operator matrix is %dx%d, need square", m.M.Rows, m.M.Cols)
	}
	y := make([]float64, m.M.Rows)
	alpha := m.Pool.MulVecAxpyDot(m.M, x, prev, beta, y)
	return y, alpha, nil
}

// ApplyDot implements DotOperator: y = A x and x·y in one kernel call.
func (m MatrixOperator) ApplyDot(x []float64) ([]float64, float64, error) {
	if m.M.Rows != m.M.Cols {
		return nil, 0, fmt.Errorf("lanczos: operator matrix is %dx%d, need square", m.M.Rows, m.M.Cols)
	}
	y := make([]float64, m.M.Rows)
	dot := m.Pool.MulVecDot(m.M, x, y)
	return y, dot, nil
}

var (
	_ FusedOperator = MatrixOperator{}
	_ DotOperator   = MatrixOperator{}
)

// Basis stores the growing set of Lanczos vectors. The default keeps them
// in memory; out-of-core implementations (e.g. internal/core.BasisStore)
// keep them in DOoC storage arrays so the full reorthogonalization of very
// long runs does not need k·dim doubles resident — the memory the paper's
// Table I attributes to "local Lanczos vectors".
type Basis interface {
	// Append stores the next basis vector (index Len()).
	Append(v []float64) error
	// Len reports how many vectors are stored.
	Len() int
	// Vector returns basis vector j. The returned slice must be treated as
	// read-only and not retained across calls.
	Vector(j int) ([]float64, error)
}

// MemoryBasis is the default in-core basis.
type MemoryBasis struct {
	vs [][]float64
}

// Append implements Basis.
func (m *MemoryBasis) Append(v []float64) error {
	m.vs = append(m.vs, append([]float64(nil), v...))
	return nil
}

// Len implements Basis.
func (m *MemoryBasis) Len() int { return len(m.vs) }

// Vector implements Basis.
func (m *MemoryBasis) Vector(j int) ([]float64, error) { return m.vs[j], nil }

// Options tunes Solve.
type Options struct {
	// Steps is k, the Krylov subspace size (required, >= 1).
	Steps int
	// Seed randomizes the starting vector (used when X0 is nil).
	Seed int64
	// X0 is an explicit starting vector.
	X0 []float64
	// WantVectors requests Ritz vectors alongside values.
	WantVectors bool
	// Basis overrides where Lanczos vectors are kept (nil: in memory).
	Basis Basis
	// SkipReorth disables full reorthogonalization, leaving only the
	// three-term recurrence. This is cheaper per step but loses basis
	// orthogonality once Ritz pairs converge, producing spurious duplicate
	// eigenvalues — the instability MFDn pays the orthonormalization cost
	// to avoid (kept here for the reorthogonalization ablation/tests).
	SkipReorth bool
}

// Result holds the output of a Lanczos run.
type Result struct {
	// Eigenvalues are the Ritz values in ascending order.
	Eigenvalues []float64
	// Vectors, when requested, are the Ritz vectors (column i approximates
	// the eigenvector of Eigenvalues[i]); each has length Dim.
	Vectors [][]float64
	// Residuals estimates ‖A v − λ v‖ for each Ritz pair via the classic
	// |β_k · s_{k,i}| bound.
	Residuals []float64
	// Alphas and Betas are the tridiagonal coefficients (diagnostics).
	Alphas, Betas []float64
	// Steps is the number of Lanczos steps actually performed (may be less
	// than requested if an invariant subspace was found).
	Steps int
	// SpMVs counts operator applications.
	SpMVs int
}

// Solve runs k-step Lanczos with full reorthogonalization on op.
//
// Full reorthogonalization is what MFDn does (the paper counts the
// "orthonormalization of Lanczos vectors" as the second-largest cost after
// SpMV); it keeps the basis numerically orthogonal at O(k·dim) extra work
// per step.
func Solve(op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	if n <= 0 {
		return nil, fmt.Errorf("lanczos: operator has dimension %d", n)
	}
	k := opts.Steps
	if k <= 0 {
		return nil, fmt.Errorf("lanczos: Steps must be positive, got %d", k)
	}
	if k > n {
		k = n
	}

	v := make([]float64, n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, fmt.Errorf("lanczos: X0 has length %d, want %d", len(opts.X0), n)
		}
		copy(v, opts.X0)
	} else {
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x1a2c))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	nrm := sparse.Norm2(v)
	if nrm == 0 {
		return nil, fmt.Errorf("lanczos: zero starting vector")
	}
	sparse.Scale(1/nrm, v)

	basis := opts.Basis
	if basis == nil {
		basis = &MemoryBasis{}
	}
	if basis.Len() != 0 {
		return nil, fmt.Errorf("lanczos: basis already holds %d vectors", basis.Len())
	}
	if err := basis.Append(v); err != nil {
		return nil, fmt.Errorf("lanczos: storing v1: %w", err)
	}
	// The current and previous vectors stay resident; the rest of the basis
	// is streamed from the Basis for reorthogonalization.
	cur := append([]float64(nil), v...)
	var prev []float64
	var alphas, betas []float64
	spmvs := 0

	fop, fused := op.(FusedOperator)
	for j := 0; j < k; j++ {
		var w []float64
		var alpha float64
		var err error
		if fused {
			// One fused kernel for SpMV + dot + both orthogonalization AXPYs.
			// FusedOperator implementations are bit-identical to the composed
			// branch below, so both paths produce the same coefficients.
			var bprev []float64
			var b0 float64
			if j > 0 {
				bprev, b0 = prev, betas[j-1]
			}
			w, alpha, err = fop.ApplyAxpyDot(cur, bprev, b0)
			if err != nil {
				return nil, fmt.Errorf("lanczos: fused SpMV at step %d: %w", j+1, err)
			}
			spmvs++
			if len(w) != n {
				return nil, fmt.Errorf("lanczos: operator returned %d entries, want %d", len(w), n)
			}
			alphas = append(alphas, alpha)
		} else {
			w, err = op.Apply(cur)
			if err != nil {
				return nil, fmt.Errorf("lanczos: SpMV at step %d: %w", j+1, err)
			}
			spmvs++
			if len(w) != n {
				return nil, fmt.Errorf("lanczos: operator returned %d entries, want %d", len(w), n)
			}
			alpha = sparse.Dot(w, cur)
			alphas = append(alphas, alpha)
			sparse.Axpy(-alpha, cur, w)
			if j > 0 {
				sparse.Axpy(-betas[j-1], prev, w)
			}
		}
		// Full reorthogonalization (two passes of modified Gram-Schmidt —
		// w is updated after every dot, so each dot sees the w the previous
		// vectors left — the "twice is enough" rule), streaming the basis.
		if !opts.SkipReorth {
			for pass := 0; pass < 2; pass++ {
				for bi := 0; bi < basis.Len(); bi++ {
					b, err := basis.Vector(bi)
					if err != nil {
						return nil, fmt.Errorf("lanczos: loading basis vector %d: %w", bi, err)
					}
					c := sparse.Dot(w, b)
					if c != 0 {
						sparse.Axpy(-c, b, w)
					}
				}
			}
		}
		beta := sparse.Norm2(w)
		if j == k-1 {
			betas = append(betas, beta)
			break
		}
		if beta < 1e-13*(1+math.Abs(alpha)) {
			// Invariant subspace: the Krylov space is exhausted.
			betas = append(betas, 0)
			break
		}
		betas = append(betas, beta)
		sparse.Scale(1/beta, w)
		if err := basis.Append(w); err != nil {
			return nil, fmt.Errorf("lanczos: storing v%d: %w", j+2, err)
		}
		prev, cur = cur, w
	}

	steps := len(alphas)
	vals, z, err := TridiagEigen(alphas, betas[:steps-1], true)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Eigenvalues: vals,
		Alphas:      alphas,
		Betas:       betas,
		Steps:       steps,
		SpMVs:       spmvs,
	}
	lastBeta := betas[steps-1]
	res.Residuals = make([]float64, steps)
	for i := 0; i < steps; i++ {
		res.Residuals[i] = math.Abs(lastBeta * z[(steps-1)*steps+i])
	}
	if opts.WantVectors {
		res.Vectors = make([][]float64, steps)
		for col := range res.Vectors {
			res.Vectors[col] = make([]float64, n)
		}
		// Stream each basis vector once, scattering into every Ritz vector.
		for row := 0; row < steps; row++ {
			b, err := basis.Vector(row)
			if err != nil {
				return nil, fmt.Errorf("lanczos: loading basis vector %d: %w", row, err)
			}
			for col := 0; col < steps; col++ {
				sparse.Axpy(z[row*steps+col], b, res.Vectors[col])
			}
		}
	}
	return res, nil
}

// Lowest returns the m smallest Ritz values from a result.
func (r *Result) Lowest(m int) []float64 {
	if m > len(r.Eigenvalues) {
		m = len(r.Eigenvalues)
	}
	return r.Eigenvalues[:m]
}
