package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dooc/internal/sparse"
)

// TestSplitMultiplyMatchesUnsplit: the task-splitting path (paper §III-C,
// sub-tasks publishing disjoint interval write leases on a shared partial
// array) must produce bit-identical results to the unsplit path.
func TestSplitMultiplyMatchesUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const dim = 45
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	run := func(splitWays, workers int) []float64 {
		sys, err := NewSystem(Options{Nodes: 2, WorkersPerNode: workers, Reorder: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cfg := SpMVConfig{Dim: dim, K: 3, Iters: 3, Nodes: 2, SplitWays: splitWays}
		if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	base := run(0, 1)
	for _, ways := range []int{2, 3, 4} {
		got := run(ways, 3)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("ways=%d: X[%d] = %v, unsplit %v", ways, i, got[i], base[i])
			}
		}
	}
}

// TestSplitWaysClampedToRows: requesting more parts than block rows must
// not hang or error — the engine clamps to one row per part. A segment is
// sized by the clamped program: 39 tasks an iteration, not 579, so both
// iterations run as one segment, whose events the stats keep whole.
func TestSplitWaysClampedToRows(t *testing.T) {
	const dim = 12 // K=3 -> 4-row blocks
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 1, WorkersPerNode: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 2, Nodes: 1, SplitWays: 64}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, dim)
	x0[0] = 1
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceIterate(m, x0, 2)
	if d := maxAbsDiff(res.X, want); d > 1e-12 {
		t.Fatalf("clamped split differs by %v", d)
	}
	if n := len(res.Stats.Events); n != 2*39 {
		t.Fatalf("%d events, want the 2 × 39 tasks of one segment", n)
	}
}

// TestOneIterationTooLargeRefused: a configuration one iteration of which
// passes MaxProgramTasks — a huge K × SplitWays — is still refused.
func TestOneIterationTooLargeRefused(t *testing.T) {
	cfg := SpMVConfig{Dim: 1 << 20, K: 512, Iters: 1, Nodes: 2, SplitWays: 1}
	if err := cfg.Validate(); !errors.Is(err, ErrProgramTooLarge) {
		t.Fatalf("K = 512: %v, want ErrProgramTooLarge", err)
	}
	cfg.K, cfg.SplitWays = 64, 64
	if err := cfg.Validate(); !errors.Is(err, ErrProgramTooLarge) {
		t.Fatalf("K = 64 at SplitWays 64: %v, want ErrProgramTooLarge", err)
	}
	cfg.SplitWays = 63
	if err := cfg.Validate(); err != nil {
		t.Fatalf("K = 64 at SplitWays 63, %d tasks an iteration: %v", 64*64*63+64, err)
	}
}

// TestSplitTasksActuallyRun confirms the split program really dispatches
// multiply-part tasks (not a silent fallback).
func TestSplitTasksActuallyRun(t *testing.T) {
	const dim = 40
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 1, WorkersPerNode: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: dim, K: 2, Iters: 1, Nodes: 1, SplitWays: 2}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, dim)
	x0[0] = 1
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	parts := 0
	for _, ev := range res.Stats.Events {
		if ev.Kind == "multiply-part" {
			parts++
			if !strings.Contains(ev.Task, "part") {
				t.Fatalf("multiply-part event with odd ID %s", ev.Task)
			}
		}
	}
	// 2x2 grid, 2-way split, 1 iteration: 8 part tasks.
	if parts != 8 {
		t.Fatalf("%d multiply-part events, want 8", parts)
	}
}
