package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dooc/internal/core"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// benchOut is the -bench-out flag: where `-exp hotpath` writes its
// machine-readable result. The checked-in BENCH_hotpath.json is a captured
// run, giving future PRs an allocation trajectory to compare against.
var benchOut string

// gateRef is the -gate flag: a reference BENCH_hotpath.json to gate
// against. When set, hotpath fails unless result_sha256 matches the
// reference byte-for-byte and allocs_per_iter stays within -gate-allocs.
// Wall-clock is deliberately not gated — it varies by machine; bit-identity
// and allocation discipline do not.
var gateRef string

// gateAllocs is the -gate-allocs flag: the allocs_per_iter ceiling enforced
// when -gate is set.
var gateAllocs float64

// hotpathReport is the JSON schema of BENCH_hotpath.json. Counters are
// per-iteration averages over the measured runs; GC numbers are totals
// across the measurement window.
type hotpathReport struct {
	Experiment string    `json:"experiment"`
	Timestamp  time.Time `json:"timestamp"`
	GoVersion  string    `json:"go_version"`
	// GOMAXPROCS and NumCPU pin down the machine shape the numbers were
	// taken on, so allocation/latency trajectories across machines are
	// interpretable.
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Dim           int     `json:"dim"`
	K             int     `json:"k"`
	Nodes         int     `json:"nodes"`
	Iters         int     `json:"iters_per_run"`
	Runs          int     `json:"runs_measured"`
	AllocsPerIter float64 `json:"allocs_per_iter"`
	BytesPerIter  float64 `json:"bytes_per_iter"`
	NsPerIter     float64 `json:"ns_per_iter"`
	GCPauseNs     uint64  `json:"gc_pause_total_ns"`
	NumGC         uint32  `json:"num_gc"`
	ResultSHA256  string  `json:"result_sha256"`
	ZeroCopyViews bool    `json:"zero_copy_views"`
	// Roofline is the in-core kernel sweep across matrix densities: bytes
	// streamed per multiply vs floating-point work, the two axes of a
	// roofline plot.
	Roofline []rooflineRow `json:"roofline"`
	// Metrics is the benchObs registry snapshot at report time (family name
	// -> summed value), so the artifact carries the run's counter state.
	Metrics map[string]int64 `json:"metrics"`
}

// rooflineRow is one density point of the kernel sweep: a dim x dim GAP
// matrix multiplied in-core by the persistent pool, reporting achieved
// memory bandwidth (matrix + vector bytes streamed per multiply) against
// achieved arithmetic throughput (2 flops per stored entry).
type rooflineRow struct {
	D         int     `json:"gap_d"`
	NNZ       int64   `json:"nnz"`
	NNZPerRow float64 `json:"nnz_per_row"`
	NsPerMul  float64 `json:"ns_per_mulvec"`
	GBps      float64 `json:"gb_per_s"`
	GFlops    float64 `json:"gflop_per_s"`
}

// hotpathRun measures the allocator cost of the steady-state data path: the
// `real` experiment's workload (out-of-core iterated SpMV, back-and-forth
// scheduling, tight memory budget) executed repeatedly between
// runtime.ReadMemStats snapshots. The interesting numbers are allocations
// and bytes per iteration — with I/O overlapped, allocator/GC churn is the
// residual per-iteration cost this harness tracks across PRs.
func hotpathRun() error {
	const dim, k, nodes, iters, runs = 4000, 5, 5, 4, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 7})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	root, err := os.MkdirTemp("", "doocbench-hotpath")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
	if err := core.StageMatrix(root, m, cfg); err != nil {
		return err
	}
	info, err := core.DiscoverStagedMatrix(root)
	if err != nil {
		return err
	}
	blockBytes := info.Bytes / int64(k*k)
	// The budget holds a node's row stripe, K blocks, and half a block of
	// vectors and partials beside it: after the first sweep steady-state
	// iterations multiply out of resident blocks and read nothing.
	sys, err := core.NewSystem(core.Options{
		Nodes:          nodes,
		WorkersPerNode: 1,
		MemoryBudget:   blockBytes*int64(k) + blockBytes/2 + 1<<16,
		ScratchRoot:    root,
		PrefetchWindow: 2,
		Reorder:        true,
		Obs:            benchObs,
		Trace:          benchTrace,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	fmt.Printf("matrix: %dx%d, %d nnz; %d nodes, K=%d, %d iterations/run, %d measured runs\n",
		dim, dim, m.NNZ(), nodes, k, iters, runs)

	// Warm-up run: pulls blocks off scratch, fills caches and pools, and
	// pins the reference result for the bit-identity check.
	run := func(tag string) (*core.SpMVResult, error) {
		c := cfg
		c.Tag = tag
		return core.RunIteratedSpMV(sys, c, x0)
	}
	ref, err := run("warm")
	if err != nil {
		return err
	}
	refSum := sha256Floats(ref.X)

	stopProfile := func() {}
	if pf := os.Getenv("HOTPATH_CPUPROFILE"); pf != "" {
		f, _ := os.Create(pf)
		pprof.StartCPUProfile(f)
		stopProfile = func() { pprof.StopCPUProfile(); f.Close() }
	}
	if pf := os.Getenv("HOTPATH_MEMPROFILE"); pf != "" {
		runtime.MemProfileRate = 1
		f, _ := os.Create(pf)
		defer func() { runtime.GC(); pprof.Lookup("allocs").WriteTo(f, 0); f.Close() }()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < runs; r++ {
		res, err := run(fmt.Sprintf("hot%d", r))
		if err != nil {
			return err
		}
		if got := sha256Floats(res.X); got != refSum {
			return fmt.Errorf("hotpath run %d diverged: sha %s, want %s", r, got, refSum)
		}
	}
	wall := time.Since(start)
	stopProfile()
	runtime.ReadMemStats(&after)

	totalIters := float64(runs * iters)
	rep := hotpathReport{
		Experiment:    "hotpath",
		Timestamp:     time.Now().UTC(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Dim:           dim,
		K:             k,
		Nodes:         nodes,
		Iters:         iters,
		Runs:          runs,
		AllocsPerIter: float64(after.Mallocs-before.Mallocs) / totalIters,
		BytesPerIter:  float64(after.TotalAlloc-before.TotalAlloc) / totalIters,
		NsPerIter:     float64(wall.Nanoseconds()) / totalIters,
		GCPauseNs:     after.PauseTotalNs - before.PauseTotalNs,
		NumGC:         after.NumGC - before.NumGC,
		ResultSHA256:  refSum,
		ZeroCopyViews: storage.ZeroCopyViews(),
		Metrics:       benchObs.Totals(),
	}
	fmt.Printf("  allocs/iter %.0f   bytes/iter %.0f (%.2f MB)   ns/iter %.0f (%.1f ms)\n",
		rep.AllocsPerIter, rep.BytesPerIter, rep.BytesPerIter/1e6, rep.NsPerIter, rep.NsPerIter/1e6)
	fmt.Printf("  GC cycles %d   GC pause total %v   zero-copy views %v\n",
		rep.NumGC, time.Duration(rep.GCPauseNs), rep.ZeroCopyViews)
	fmt.Printf("  result sha256 %s (bit-identical across %d runs)\n", refSum, runs+1)

	roofline, err := rooflineSweep(dim)
	if err != nil {
		return err
	}
	rep.Roofline = roofline
	fmt.Printf("  roofline (dim %d, pool width %d):\n", dim, runtime.GOMAXPROCS(0))
	fmt.Printf("    %6s %10s %9s %10s %8s %9s\n", "gap_d", "nnz", "nnz/row", "ns/mul", "GB/s", "GFLOP/s")
	for _, r := range roofline {
		fmt.Printf("    %6d %10d %9.1f %10.0f %8.2f %9.3f\n", r.D, r.NNZ, r.NNZPerRow, r.NsPerMul, r.GBps, r.GFlops)
	}

	if benchOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(benchOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", benchOut)
	}
	if gateRef != "" {
		if err := gateAgainst(gateRef, &rep); err != nil {
			return err
		}
		fmt.Printf("  perf gate vs %s: ok (sha match, allocs/iter %.0f <= %.0f)\n", gateRef, rep.AllocsPerIter, gateAllocs)
	}
	return nil
}

// gateAgainst enforces the perf regression gate: the fresh run's result
// hash must equal the reference capture's (bit-identical arithmetic across
// PRs) and allocations per iteration must stay under the ceiling.
func gateAgainst(refPath string, rep *hotpathReport) error {
	raw, err := os.ReadFile(refPath)
	if err != nil {
		return fmt.Errorf("perf gate: reading reference: %w", err)
	}
	var ref hotpathReport
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("perf gate: parsing %s: %w", refPath, err)
	}
	if ref.ResultSHA256 == "" {
		return fmt.Errorf("perf gate: reference %s has no result_sha256", refPath)
	}
	if rep.ResultSHA256 != ref.ResultSHA256 {
		return fmt.Errorf("perf gate: result_sha256 %s differs from reference %s — the iterate arithmetic changed",
			rep.ResultSHA256, ref.ResultSHA256)
	}
	if gateAllocs > 0 && rep.AllocsPerIter > gateAllocs {
		return fmt.Errorf("perf gate: allocs_per_iter %.1f exceeds ceiling %.1f (reference was %.1f)",
			rep.AllocsPerIter, gateAllocs, ref.AllocsPerIter)
	}
	return nil
}

// rooflineSweep multiplies dim x dim GAP matrices of three densities
// through a persistent pool and reports streamed bandwidth vs arithmetic
// throughput. Bytes per multiply count the matrix structure plus one read
// of x and one write of y — the memory traffic a cold-cache SpMV must
// sustain; flops are 2 per stored entry.
func rooflineSweep(dim int) ([]rooflineRow, error) {
	pool := sparse.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	var rows []rooflineRow
	for _, d := range []int{2, 8, 32} {
		m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: d, Seed: 7})
		if err != nil {
			return nil, err
		}
		x := make([]float64, dim)
		y := make([]float64, dim)
		for i := range x {
			x[i] = float64(i%17) * 0.25
		}
		nnz := m.NNZ()
		reps := int(3e8 / (2*nnz + 1))
		if reps < 5 {
			reps = 5
		} else if reps > 200 {
			reps = 200
		}
		pool.MulVec(m, x, y) // warm caches and the stripe plan
		start := time.Now()
		for r := 0; r < reps; r++ {
			pool.MulVec(m, x, y)
		}
		el := time.Since(start)
		nsPerMul := float64(el.Nanoseconds()) / float64(reps)
		bytesPerMul := float64(m.Bytes() + 8*int64(dim)*2)
		rows = append(rows, rooflineRow{
			D:         d,
			NNZ:       nnz,
			NNZPerRow: float64(nnz) / float64(dim),
			NsPerMul:  nsPerMul,
			GBps:      bytesPerMul / nsPerMul, // bytes/ns == GB/s
			GFlops:    float64(2*nnz) / nsPerMul,
		})
	}
	return rows, nil
}

// sha256Floats hashes a float64 vector in its little-endian wire form.
func sha256Floats(x []float64) string {
	buf := make([]byte, 8*len(x))
	storage.EncodeFloat64s(buf, x)
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}
