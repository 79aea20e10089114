package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dooc/internal/dag"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// referenceIterate computes iters in-core power iterations for comparison.
func referenceIterate(m *sparse.CSR, x []float64, iters int) []float64 {
	cur := append([]float64(nil), x...)
	next := make([]float64, len(x))
	for i := 0; i < iters; i++ {
		sparse.MulVec(m, cur, next)
		cur, next = next, cur
	}
	return cur
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// stageV1 lays m's blocks out as StageMatrix does, each an uncompressed
// DOOCCRS1 file: what a set staged before DOOCCRS2 became the one staging
// format holds, and the reference staged runs are held against.
func stageV1(root string, m *sparse.CSR, cfg SpMVConfig) error {
	return stageV1Where(root, m, cfg, func(u, v int) bool { return true })
}

// stageV1Where is stageV1 of the blocks pick names, over whatever root
// already holds.
func stageV1Where(root string, m *sparse.CSR, cfg SpMVConfig, pick func(u, v int) bool) error {
	p, err := cfg.Partition()
	if err != nil {
		return err
	}
	for u := 0; u < cfg.K; u++ {
		dir := filepath.Join(root, fmt.Sprintf("node%d", cfg.OwnerOf(u)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for v := 0; v < cfg.K; v++ {
			if !pick(u, v) {
				continue
			}
			b, err := sparse.Block(m, p, u, v)
			if err != nil {
				return err
			}
			if err := sparse.WriteCRSFile(filepath.Join(dir, spmv.MatrixArray(u, v)+".arr"), b); err != nil {
				return err
			}
		}
	}
	return nil
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestRunSimpleChain(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	st := sys.Store(0)
	if err := st.Create("a", 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := st.Create("b", 8, 8); err != nil {
		t.Fatal(err)
	}
	tasks := []*dag.Task{
		{ID: "produce", Kind: "write", Outputs: []dag.Ref{{Array: "a", Block: 0, Bytes: 8}}},
		{ID: "transform", Kind: "double", Inputs: []dag.Ref{{Array: "a", Block: 0, Bytes: 8}}, Outputs: []dag.Ref{{Array: "b", Block: 0, Bytes: 8}}},
	}
	exec := map[string]Executor{
		"write": func(ctx *ExecContext) error {
			l, err := ctx.Store.RequestBlock("a", 0, storage.PermWrite)
			if err != nil {
				return err
			}
			storage.PutFloat64s(l, []float64{21})
			l.Release()
			return nil
		},
		"double": func(ctx *ExecContext) error {
			in, err := ctx.Store.RequestBlock("a", 0, storage.PermRead)
			if err != nil {
				return err
			}
			v := storage.GetFloat64s(in)[0]
			in.Release()
			out, err := ctx.Store.RequestBlock("b", 0, storage.PermWrite)
			if err != nil {
				return err
			}
			storage.PutFloat64s(out, []float64{2 * v})
			out.Release()
			return nil
		},
	}
	stats, err := sys.Run(RunSpec{Tasks: tasks, Executors: exec})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.ReadAll("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.DecodeFloat64s(raw)[0]; got != 42 {
		t.Fatalf("b = %v, want 42", got)
	}
	if stats.TasksPerNode[0] != 2 {
		t.Fatalf("tasks on node 0 = %d", stats.TasksPerNode[0])
	}
	if len(stats.Events) != 2 {
		t.Fatalf("%d events", len(stats.Events))
	}
}

func TestRunMissingExecutor(t *testing.T) {
	sys, _ := NewSystem(Options{Nodes: 1})
	defer sys.Close()
	_, err := sys.Run(RunSpec{Tasks: []*dag.Task{{ID: "t", Kind: "mystery"}}, Executors: map[string]Executor{}})
	if err == nil || !strings.Contains(err.Error(), "no executor") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTaskErrorAborts(t *testing.T) {
	sys, _ := NewSystem(Options{Nodes: 1, WorkersPerNode: 2})
	defer sys.Close()
	tasks := []*dag.Task{
		{ID: "bad", Kind: "fail"},
		{ID: "dependent", Kind: "never", Inputs: []dag.Ref{{Array: "out", Block: 0}}},
	}
	tasks[0].Outputs = []dag.Ref{{Array: "out", Block: 0}}
	ran := false
	_, err := sys.Run(RunSpec{Tasks: tasks, Executors: map[string]Executor{
		"fail":  func(*ExecContext) error { return fmt.Errorf("intentional") },
		"never": func(*ExecContext) error { ran = true; return nil },
	}})
	if err == nil || !strings.Contains(err.Error(), "intentional") {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("dependent task ran after failure")
	}
}

func TestIteratedSpMVMatchesInCoreSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 60, Cols: 60, D: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 1, WorkersPerNode: 2, Reorder: true, PrefetchWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: 60, K: 3, Iters: 3, Nodes: 1}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rng, 60)
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceIterate(m, x0, 3)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("out-of-core result differs from in-core by %v", d)
	}
}

func TestIteratedSpMVMatchesInCoreMultiNode(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		rng := rand.New(rand.NewSource(13))
		dim := 45
		m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(Options{Nodes: nodes, WorkersPerNode: 2, Reorder: true, PrefetchWindow: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SpMVConfig{Dim: dim, K: 3, Iters: 2, Nodes: nodes}
		if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
			t.Fatal(err)
		}
		x0 := randVec(rng, dim)
		res, err := RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceIterate(m, x0, 2)
		if d := maxAbsDiff(res.X, want); d > 1e-9 {
			t.Fatalf("nodes=%d: out-of-core differs by %v", nodes, d)
		}
		// Multi-node runs must move vector parts across nodes.
		if nodes > 1 && sys.Cluster().TotalNetworkBytes() == 0 {
			t.Errorf("nodes=%d: no network traffic recorded", nodes)
		}
		sys.Close()
	}
}

func TestIteratedSpMVOutOfCoreFromScratchFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dim := 64
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 4, Iters: 3, Nodes: 2}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	// A tight memory budget forces genuine out-of-core behaviour: blocks
	// are evicted and re-read from scratch between iterations.
	sys, err := NewSystem(Options{
		Nodes:          2,
		WorkersPerNode: 2,
		MemoryBudget:   1 << 14, // 16 KiB: a few blocks at most
		ScratchRoot:    root,
		PrefetchWindow: 2,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x0 := randVec(rng, dim)
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceIterate(m, x0, 3)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("out-of-core differs by %v", d)
	}
	if res.Stats.BytesReadDisk() == 0 {
		t.Fatal("no disk reads: run was not out-of-core")
	}
}

func TestEphemeralArraysAreReclaimed(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dim := 40
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 1, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: dim, K: 2, Iters: 3, Nodes: 1}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := RunIteratedSpMV(sys, cfg, randVec(rng, dim))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != dim {
		t.Fatalf("result has %d entries", len(res.X))
	}
	// All transient generations must be gone: intermediates were reclaimed
	// as their last consumers finished, and the final vector was retired
	// after collection. Only the matrix arrays remain.
	for _, name := range []string{"x_0_0", "x_1_0", "x_2_0", "x_3_0", "xp_1_0_0", "xp_3_1_1"} {
		if _, err := sys.Store(0).Info(name); err == nil {
			t.Errorf("transient array %s still exists", name)
		}
	}
	if _, err := sys.Store(0).Info("A_000_000"); err != nil {
		t.Errorf("matrix array missing: %v", err)
	}
}

func TestReorderingReducesDiskTraffic(t *testing.T) {
	// With a one-block cache and multiple iterations, the data-aware policy
	// must re-read strictly less than FIFO (the Fig. 5 effect, on the real
	// engine with real files).
	rng := rand.New(rand.NewSource(23))
	dim := 120
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	run := func(reorder bool) int64 {
		root := t.TempDir()
		cfg := SpMVConfig{Dim: dim, K: 3, Iters: 4, Nodes: 1}
		if err := StageMatrix(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		// Budget sized so roughly one sub-matrix block fits.
		block, err := os.Stat(root + "/node0/A_000_000.arr")
		if err != nil {
			t.Fatal(err)
		}
		budget := block.Size() * 3 / 2
		sys, err := NewSystem(Options{
			Nodes:        1,
			MemoryBudget: budget,
			ScratchRoot:  root,
			Reorder:      reorder,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, err := RunIteratedSpMV(sys, cfg, randVec(rng, dim))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.BytesReadDisk()
	}
	fifo := run(false)
	smart := run(true)
	if smart >= fifo {
		t.Fatalf("reordering did not reduce disk traffic: smart=%d fifo=%d", smart, fifo)
	}
}

// TestConcurrentRunsOnOneSystem: two tagged iterated-SpMV programs execute
// simultaneously on the same system and storage network without
// interference (distinct array namespaces, shared matrix blocks).
func TestConcurrentRunsOnOneSystem(t *testing.T) {
	const dim = 40
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 2, WorkersPerNode: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base := SpMVConfig{Dim: dim, K: 2, Iters: 2, Nodes: 2}
	if err := LoadMatrixInMemory(sys, m, base); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	xa := randVec(rng, dim)
	xb := randVec(rng, dim)

	type out struct {
		x   []float64
		err error
	}
	ra := make(chan out, 1)
	rb := make(chan out, 1)
	go func() {
		cfg := base
		cfg.Tag = "runA"
		res, err := RunIteratedSpMV(sys, cfg, xa)
		if err != nil {
			ra <- out{err: err}
			return
		}
		ra <- out{x: res.X}
	}()
	go func() {
		cfg := base
		cfg.Tag = "runB"
		res, err := RunIteratedSpMV(sys, cfg, xb)
		if err != nil {
			rb <- out{err: err}
			return
		}
		rb <- out{x: res.X}
	}()
	a, b := <-ra, <-rb
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent runs failed: %v / %v", a.err, b.err)
	}
	wantA := referenceIterate(m, xa, 2)
	wantB := referenceIterate(m, xb, 2)
	if d := maxAbsDiff(a.x, wantA); d > 1e-10 {
		t.Fatalf("run A differs by %v", d)
	}
	if d := maxAbsDiff(b.x, wantB); d > 1e-10 {
		t.Fatalf("run B differs by %v", d)
	}
}
