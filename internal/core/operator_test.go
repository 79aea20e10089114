package core

import (
	"math"
	"testing"

	"dooc/internal/compress"
	"dooc/internal/lanczos"
	"dooc/internal/sparse"
)

// Compile-time check: core.Operator implements lanczos.Operator.
var _ lanczos.Operator = (*Operator)(nil)

func TestOperatorRepeatedAppliesDoNotCollide(t *testing.T) {
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 30, Cols: 30, D: 2, Seed: 2, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: 30, K: 2, Iters: 1, Nodes: 2}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	op := &Operator{Sys: sys, Cfg: cfg}
	x := make([]float64, 30)
	x[0] = 1
	for i := 0; i < 3; i++ {
		y, err := op.Apply(x)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		want := make([]float64, 30)
		sparse.MulVec(m, x, want)
		for j := range want {
			if math.Abs(y[j]-want[j]) > 1e-10 {
				t.Fatalf("apply %d: y[%d]=%v want %v", i, j, y[j], want[j])
			}
		}
		x = y
	}
	if op.Calls() != 3 {
		t.Fatalf("Calls = %d", op.Calls())
	}
}

func TestLanczosOverOutOfCoreOperator(t *testing.T) {
	// The paper's end-to-end story: eigenvalues of a symmetric matrix via
	// Lanczos whose SpMV runs out-of-core through DOoC.
	dim := 48
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 3, Seed: 21, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 1, Nodes: 3}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{
		Nodes:          3,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 16,
		PrefetchWindow: 2,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	op := &Operator{Sys: sys, Cfg: cfg}
	res, err := lanczos.Solve(op, lanczos.Options{Steps: dim, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lanczos.JacobiEigen(m.Dense(), dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Fatalf("eig[%d]: out-of-core lanczos %v vs dense %v", i, res.Eigenvalues[i], want[i])
		}
	}
}

// TestCompressedOutOfCoreLanczosBitIdentical: the workload the V2 view path
// serves — Lanczos whose matrix is staged as DOOCCRS2 blocks under a budget
// of two, with a spill codec and a spilled basis — computes every alpha and
// beta bit for bit as the same solve over V1 blocks with no codec does, and
// as the decode-copy-release path did before views of V2 blocks existed
// (the golden hash was taken there).
func TestCompressedOutOfCoreLanczosBitIdentical(t *testing.T) {
	const dim, k, nodes, steps = 240, 3, 2, 30
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: 17, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(compressed bool) string {
		root := t.TempDir()
		cfg := SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: nodes}
		stage, opts := stageV1, Options{
			Nodes: nodes, WorkersPerNode: 1, ScratchRoot: root,
			PrefetchWindow: 2, Reorder: true,
		}
		if compressed {
			stage, opts.Codec = StageMatrix, compress.Default()
		}
		if err := stage(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		opts.MemoryBudget = 2*info.Bytes/int64(k*k) + 1<<13
		sys, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		basis := &BasisStore{Store: sys.Store(0), Spill: true}
		res, err := lanczos.Solve(&Operator{Sys: sys, Cfg: cfg}, lanczos.Options{Steps: steps, Seed: 3, Basis: basis})
		if err != nil {
			t.Fatal(err)
		}
		if err := basis.Close(); err != nil {
			t.Fatal(err)
		}
		if len(res.Alphas) != steps {
			t.Fatalf("solve stopped after %d of %d steps", len(res.Alphas), steps)
		}
		return shaOf(append(append([]float64(nil), res.Alphas...), res.Betas...))
	}
	const golden = "383c9d68814f2615df79bbf01be548a1f2242ac2576eccb1b99bca84efbb1627"
	v1, v2 := solve(false), solve(true)
	if v1 != v2 {
		t.Errorf("alphas and betas differ: V1 blocks %s, V2 blocks %s", v1[:16], v2[:16])
	}
	if v2 != golden {
		t.Errorf("alphas and betas hash to %s, the parent commit's to %s", v2, golden)
	}
}
