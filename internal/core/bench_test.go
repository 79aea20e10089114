package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dooc/internal/obs"
	"dooc/internal/sparse"
)

// hotPathSHA is the SHA-256 of the hot-path solve's result (hotPathSystem,
// one 4-iteration RunIteratedSpMV). Every change to the engine, storage,
// scheduler or kernel must leave it as it is: the run's arithmetic is fixed
// in order, so any drift is a changed result, not noise.
const hotPathSHA = "3b1bf120034e3252cf7b432caf0ce4eb33a10ab11443a24534a633698d49f745"

// hotPathSystem builds the hot-path shape: a 4000² gap matrix (d = 8,
// seed 7) staged on scratch as a K = 5 grid over 5 nodes, one lane a node,
// reordering, a prefetch window of 2 and a live metrics registry. The budget
// holds a node's row stripe, K blocks, and half a block of vectors and
// partials beside it, so after the first sweep an iteration multiplies out
// of resident blocks and reads nothing. It returns the system, a 4-iteration
// config and x0 (seed 1).
func hotPathSystem(tb testing.TB) (*System, SpMVConfig, []float64) {
	tb.Helper()
	const dim, k, nodes, iters = 4000, 5, 5, 4
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	root := tb.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
	if err := StageMatrix(root, m, cfg); err != nil {
		tb.Fatal(err)
	}
	info, err := DiscoverStagedMatrix(root)
	if err != nil {
		tb.Fatal(err)
	}
	blockBytes := info.Bytes / int64(k*k)
	sys, err := NewSystem(Options{
		Nodes:          nodes,
		WorkersPerNode: 1,
		MemoryBudget:   blockBytes*int64(k) + blockBytes/2 + 1<<16,
		ScratchRoot:    root,
		PrefetchWindow: 2,
		Reorder:        true,
		Obs:            obs.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	return sys, cfg, x0
}

// TestHotPathResultPinned runs the hot-path solve twice on one system —
// first from scratch, then from resident blocks — and requires both results
// to hash to hotPathSHA, with the blocks' CRC checked at either site.
func TestHotPathResultPinned(t *testing.T) {
	for _, site := range verifySites {
		t.Run(site.name, func(t *testing.T) {
			forceVerifySite(t, site.inIOFilter)
			sys, cfg, x0 := hotPathSystem(t)
			for _, tag := range []string{"cold", "warm"} {
				cfg.Tag = tag
				res, err := RunIteratedSpMV(sys, cfg, x0)
				if err != nil {
					t.Fatal(err)
				}
				if got := shaOf(res.X); got != hotPathSHA {
					t.Fatalf("%s run: result sha256 %s, want %s", tag, got, hotPathSHA)
				}
			}
		})
	}
}

// BenchmarkIteratedSpMVRun measures the full engine data path — program
// build, DAG derivation, scheduling, lease traffic, zero-copy executor
// views, generation create/delete — for one SpMV solve per op. "in-memory"
// is a small solve over blocks loaded into memory. "hotpath" is the
// hotPathSystem solve after a warm-up run, and reports "allocs/iter", the
// allocations per engine iteration that `make perf-gate` holds under its
// ceiling; it also checks the last op's result against hotPathSHA.
// "hotpath-iofilter" is the same with the I/O filters checking the CRC of
// every block they read (verifyInIOFilter), under the same ceiling.
func BenchmarkIteratedSpMVRun(b *testing.B) {
	b.Run("in-memory", func(b *testing.B) {
		const dim, k, nodes, iters = 400, 2, 2, 2
		m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(Options{Nodes: nodes, WorkersPerNode: 1, Reorder: true, PrefetchWindow: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
		if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x0 := make([]float64, dim)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Tag = fmt.Sprintf("bench%d", i)
			if _, err := RunIteratedSpMV(sys, cfg, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hotpath", benchHotPath)
	// A 5-node system checks blocks in the I/O filter only on more than 5
	// processors.
	b.Run("hotpath-iofilter", func(b *testing.B) {
		forceVerifySite(b, true)
		benchHotPath(b)
	})
}

// benchHotPath is the hotpath benchmark's body.
func benchHotPath(b *testing.B) {
	sys, cfg, x0 := hotPathSystem(b)
	cfg.Tag = "warm"
	if _, err := RunIteratedSpMV(sys, cfg, x0); err != nil {
		b.Fatal(err)
	}
	var res *SpMVResult
	var err error
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		cfg.Tag = fmt.Sprintf("hot%d", i)
		if res, err = RunIteratedSpMV(sys, cfg, x0); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*cfg.Iters), "allocs/iter")
	if got := shaOf(res.X); got != hotPathSHA {
		b.Fatalf("result sha256 %s, want %s", got, hotPathSHA)
	}
}
