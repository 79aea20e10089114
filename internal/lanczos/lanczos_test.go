package lanczos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dooc/internal/sparse"
)

func TestTridiagEigenDiagonal(t *testing.T) {
	vals, _, err := TridiagEigen([]float64{3, 1, 2}, []float64{0, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestTridiagEigen2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, z, err := TridiagEigen([]float64{2, 2}, []float64{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
	// Eigenvector for 1 is (1,-1)/√2 up to sign.
	if math.Abs(math.Abs(z[0*2+0])-math.Sqrt(0.5)) > 1e-12 {
		t.Fatalf("z = %v", z)
	}
}

func TestTridiagEigenToeplitz(t *testing.T) {
	// d=2, e=-1 tridiagonal of size n has eigenvalues 2-2cos(jπ/(n+1)).
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	vals, _, err := TridiagEigen(d, e, false)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n; j++ {
		want := 2 - 2*math.Cos(float64(j)*math.Pi/float64(n+1))
		if math.Abs(vals[j-1]-want) > 1e-10 {
			t.Fatalf("vals[%d] = %v, want %v", j-1, vals[j-1], want)
		}
	}
}

func TestTridiagEigenVectorsAreEigenvectors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		vals, z, err := TridiagEigen(d, e, true)
		if err != nil {
			return false
		}
		// Check T z_j = λ_j z_j.
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				tz := d[i] * z[i*n+j]
				if i > 0 {
					tz += e[i-1] * z[(i-1)*n+j]
				}
				if i < n-1 {
					tz += e[i] * z[(i+1)*n+j]
				}
				if math.Abs(tz-vals[j]*z[i*n+j]) > 1e-8*(1+math.Abs(vals[j])) {
					return false
				}
			}
		}
		// Ascending order.
		for j := 1; j < n; j++ {
			if vals[j] < vals[j-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTridiagEigenValidation(t *testing.T) {
	if _, _, err := TridiagEigen(nil, nil, false); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, _, err := TridiagEigen([]float64{1, 2}, []float64{}, false); err == nil {
		t.Error("wrong off-diagonal length accepted")
	}
}

func TestJacobiMatchesTridiag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 8
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		dense[i*n+i] = d[i]
		if i < n-1 {
			dense[i*n+i+1] = e[i]
			dense[(i+1)*n+i] = e[i]
		}
	}
	jv, err := JacobiEigen(dense, n)
	if err != nil {
		t.Fatal(err)
	}
	tv, _, err := TridiagEigen(d, e, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jv {
		if math.Abs(jv[i]-tv[i]) > 1e-9 {
			t.Fatalf("jacobi %v vs tridiag %v", jv, tv)
		}
	}
}

func TestJacobiRejectsAsymmetric(t *testing.T) {
	if _, err := JacobiEigen([]float64{1, 2, 3, 4}, 2); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

// symmetricTestMatrix builds a random symmetric sparse matrix.
func symmetricTestMatrix(t *testing.T, n, d int, seed int64) *sparse.CSR {
	t.Helper()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: n, Cols: n, D: d, Seed: seed, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLanczosFullSpectrumSmall(t *testing.T) {
	// With k = n steps and full reorthogonalization, Lanczos recovers the
	// entire spectrum.
	n := 24
	m := symmetricTestMatrix(t, n, 2, 3)
	res, err := Solve(MatrixOperator{M: m}, Options{Steps: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := JacobiEigen(m.Dense(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eigenvalues) != n {
		t.Fatalf("got %d Ritz values, want %d", len(res.Eigenvalues), n)
	}
	for i := range want {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-8 {
			t.Fatalf("eig[%d] = %v, want %v", i, res.Eigenvalues[i], want[i])
		}
	}
}

func TestLanczosLowestEigenvaluesConverge(t *testing.T) {
	// k << n: the extreme Ritz values approximate the extreme eigenvalues.
	n := 120
	m := symmetricTestMatrix(t, n, 3, 7)
	pool := sparse.NewPool(2)
	defer pool.Close()
	res, err := Solve(MatrixOperator{M: m, Pool: pool}, Options{Steps: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := JacobiEigen(m.Dense(), n)
	if err != nil {
		t.Fatal(err)
	}
	// The 3 lowest should be well converged at k=60 for a 120-dim problem.
	for i := 0; i < 3; i++ {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("lowest[%d]: lanczos %v vs dense %v", i, res.Eigenvalues[i], want[i])
		}
	}
	if res.SpMVs != res.Steps {
		t.Errorf("SpMVs = %d, steps = %d", res.SpMVs, res.Steps)
	}
}

func TestLanczosRitzVectorsResiduals(t *testing.T) {
	n := 40
	m := symmetricTestMatrix(t, n, 2, 9)
	res, err := Solve(MatrixOperator{M: m}, Options{Steps: n, Seed: 3, WantVectors: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the best-converged pair: A v ≈ λ v.
	v := res.Vectors[0]
	lambda := res.Eigenvalues[0]
	av := make([]float64, n)
	sparse.MulVec(m, v, av)
	worst := 0.0
	for i := range av {
		if r := math.Abs(av[i] - lambda*v[i]); r > worst {
			worst = r
		}
	}
	if worst > 1e-7*(1+math.Abs(lambda)) {
		t.Fatalf("Ritz pair residual %v too large", worst)
	}
	if res.Residuals[0] > 1e-7*(1+math.Abs(lambda)) {
		t.Fatalf("reported residual %v too large", res.Residuals[0])
	}
}

func TestLanczosInvariantSubspaceStopsEarly(t *testing.T) {
	// Identity matrix: Krylov space has dimension 1.
	var ts []sparse.Triplet
	for i := 0; i < 10; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
	}
	m, err := sparse.FromTriplets(10, 10, ts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(MatrixOperator{M: m}, Options{Steps: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("steps = %d, want 1 (invariant subspace)", res.Steps)
	}
	if math.Abs(res.Eigenvalues[0]-1) > 1e-12 {
		t.Fatalf("eig = %v", res.Eigenvalues)
	}
}

func TestLanczosOptionsValidation(t *testing.T) {
	m := symmetricTestMatrix(t, 4, 1, 1)
	if _, err := Solve(MatrixOperator{M: m}, Options{Steps: 0}); err == nil {
		t.Error("Steps=0 accepted")
	}
	if _, err := Solve(MatrixOperator{M: m}, Options{Steps: 2, X0: []float64{1}}); err == nil {
		t.Error("wrong X0 length accepted")
	}
	if _, err := Solve(MatrixOperator{M: m}, Options{Steps: 2, X0: make([]float64, 4)}); err == nil {
		t.Error("zero X0 accepted")
	}
}

func TestLanczosBasisOrthogonality(t *testing.T) {
	// Indirect check: with full reorthogonalization, running n steps on a
	// matrix with well-separated eigenvalues must not produce spurious
	// duplicate Ritz values (the signature of lost orthogonality).
	n := 60
	m := symmetricTestMatrix(t, n, 2, 11)
	res, err := Solve(MatrixOperator{M: m}, Options{Steps: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i]-res.Eigenvalues[i-1] < -1e-10 {
			t.Fatal("eigenvalues not sorted")
		}
	}
	want, err := JacobiEigen(m.Dense(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-7 {
			t.Fatalf("spectrum mismatch at %d: %v vs %v (orthogonality lost?)", i, res.Eigenvalues[i], want[i])
		}
	}
}

// BenchmarkTridiagEigen measures the QL eigensolver at typical Krylov sizes.
func BenchmarkTridiagEigen(b *testing.B) {
	const n = 200
	d := make([]float64, n)
	e := make([]float64, n-1)
	rng := rand.New(rand.NewSource(1))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := TridiagEigen(d, e, true); err != nil {
			b.Fatal(err)
		}
	}
}

// orthogonalityLoss returns the largest |<v_i, v_j>| (i != j) in a basis.
func orthogonalityLoss(b *MemoryBasis) float64 {
	worst := 0.0
	for i := 0; i < b.Len(); i++ {
		vi, _ := b.Vector(i)
		for j := i + 1; j < b.Len(); j++ {
			vj, _ := b.Vector(j)
			if d := math.Abs(sparse.Dot(vi, vj)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestReorthogonalizationIsLoadBearing demonstrates why MFDn pays the
// orthonormalization cost the paper counts: without reorthogonalization the
// Lanczos basis loses orthogonality by many orders of magnitude once Ritz
// pairs converge.
func TestReorthogonalizationIsLoadBearing(t *testing.T) {
	n := 200
	m := symmetricTestMatrix(t, n, 3, 17)
	full := &MemoryBasis{}
	if _, err := Solve(MatrixOperator{M: m}, Options{Steps: 150, Seed: 9, Basis: full}); err != nil {
		t.Fatal(err)
	}
	none := &MemoryBasis{}
	if _, err := Solve(MatrixOperator{M: m}, Options{Steps: 150, Seed: 9, Basis: none, SkipReorth: true}); err != nil {
		t.Fatal(err)
	}
	lossFull := orthogonalityLoss(full)
	lossNone := orthogonalityLoss(none)
	if lossFull > 1e-10 {
		t.Fatalf("full reorthogonalization lost orthogonality: %v", lossFull)
	}
	if lossNone < 1e4*lossFull {
		t.Fatalf("expected dramatic orthogonality loss without reorth: full=%v none=%v", lossFull, lossNone)
	}
}
