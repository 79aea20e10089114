// Command doocbench regenerates every table and figure of the paper's
// evaluation, printing reproduced values side by side with the published
// ones. EXPERIMENTS.md records its runs; sections for experiments that
// have since been removed stay there as the record.
//
// Usage:
//
//	doocbench -exp all
//	doocbench -exp table3
//	doocbench -exp fig5
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"dooc/internal/ci"
	"dooc/internal/core"
	"dooc/internal/dag"
	"dooc/internal/datacutter"
	"dooc/internal/devices"
	"dooc/internal/energy"
	"dooc/internal/faults"
	"dooc/internal/mfdn"
	"dooc/internal/obs"
	"dooc/internal/perfmodel"
	"dooc/internal/remote"
	"dooc/internal/scheduler"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

var experiments = []struct {
	name string
	desc string
	run  func() error
}{
	{"table1", "CI problem characteristics (reference + toy-model growth)", table1},
	{"table2", "MFDn on Hopper: modeled vs published", table2},
	{"table3", "SSD testbed, simple scheduling policy", table3},
	{"table4", "SSD testbed, interleaved policy + local aggregation", table4},
	{"fig1", "memory hierarchy", fig1},
	{"fig34", "SpMV command list and dependency DAG (K=3, 2 iterations)", fig34},
	{"fig5", "Gantt: regular vs back-and-forth schedules", fig5},
	{"fig6", "runtime relative to 20 GB/s-optimal I/O time", fig6},
	{"fig7", "CPU-hour cost: SSD testbed vs Hopper (incl. the star run)", fig7},
	{"real", "real out-of-core execution on this machine (small scale)", realRun},
	{"hdd", "EXTENSION (paper §I): the same workload on HDD-era storage", hddRun},
	{"remote", "I/O-node separation over real TCP on this machine", remoteRun},
	{"localssd", "EXTENSION (paper §VI-A): SSDs on compute nodes, what-if", localSSD},
	{"energy", "EXTENSION (paper §VI-B): energy per iteration, testbed vs Hopper", energyStudy},
	{"faults", "EXTENSION: fault injection — recovery overhead and node-failure re-execution", faultsRun},
	{"streams", "filter-stream middleware traffic (DataCutter substrate)", streamsRun},
	{"cluster", "EXTENSION: peer-to-peer sharded storage — 1 vs 3 real TCP peers, bit-identical", clusterRun},
}

// faultRate is the -faults flag: when > 0, the `real` experiment also runs
// under a seeded injector at that I/O-error rate so the recovery overhead is
// visible next to the clean numbers.
var faultRate float64

// benchObs collects every layer's counters for the -metrics snapshot; it is
// always live (the registry is cheap), printed only when asked.
var benchObs = obs.NewRegistry()

// benchTrace is non-nil when -trace is set; instrumented experiments record
// task spans into it and main writes the Chrome trace JSON on exit.
var benchTrace *obs.Tracer

func main() {
	log.SetFlags(0)
	log.SetPrefix("doocbench: ")
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	flag.Float64Var(&faultRate, "faults", 0, "transient I/O fault rate injected into the `real` experiment (0 disables; try 0.1)")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (Prometheus text format) after the run")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (load in perfetto or chrome://tracing)")
	flag.Parse()
	if *tracePath != "" {
		benchTrace = obs.NewTracer()
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	if *exp == "all" {
		for _, e := range experiments {
			fmt.Printf("\n============ %s — %s ============\n\n", e.name, e.desc)
			run(e.name, e.run)
		}
	} else {
		found := false
		for _, e := range experiments {
			if e.name == *exp {
				run(e.name, e.run)
				found = true
				break
			}
		}
		if !found {
			log.Printf("unknown experiment %q; valid: %s", *exp, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	if *metrics {
		printMetricsSnapshot(benchObs)
	}
	if *tracePath != "" {
		if err := benchTrace.WriteFile(*tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		log.Printf("wrote %d trace events to %s", benchTrace.Len(), *tracePath)
	}
}

// printMetricsSnapshot summarizes the registry (cache and prefetch hit
// rates, per-node task counts) and then dumps the full exposition.
func printMetricsSnapshot(reg *obs.Registry) {
	fmt.Println("\n============ metrics snapshot ============")
	hits := reg.Sum("dooc_storage_cache_hits_total")
	misses := reg.Sum("dooc_storage_cache_misses_total")
	if total := hits + misses; total > 0 {
		fmt.Printf("storage cache hit rate: %.1f%% (%d hits, %d misses)\n",
			100*float64(hits)/float64(total), hits, misses)
	}
	loads := reg.Sum("dooc_storage_prefetch_loads_total")
	phits := reg.Sum("dooc_storage_prefetch_hits_total")
	if loads > 0 {
		fmt.Printf("prefetch hit rate: %.1f%% (%d of %d prefetched blocks were hit)\n",
			100*float64(phits)/float64(loads), phits, loads)
	}
	var taskLines []string
	for _, s := range reg.Snapshot() {
		if s.Name != "dooc_engine_tasks_completed_total" {
			continue
		}
		node := "?"
		for _, l := range s.Labels {
			if l.Key == "node" {
				node = l.Value
			}
		}
		taskLines = append(taskLines, fmt.Sprintf("node %s: %d", node, s.Value))
	}
	if len(taskLines) > 0 {
		sort.Strings(taskLines)
		fmt.Printf("tasks completed per node: %s\n", strings.Join(taskLines, ", "))
	}
	fmt.Println("\nfull exposition:")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Printf("metrics: %v", err)
	}
}

func table1() error {
	fmt.Println("Published Table I (10B, MFDn on Hopper):")
	fmt.Println("  test        (Nmax,Mj)   D(H)       nnz(H)     n_p     v_local  H_local")
	for _, r := range ci.ReferenceTable1 {
		fmt.Printf("  %-11s (%d,%d)      %.2e   %.2e   %-6d  %.1f MB  %.0f MB\n",
			r.Name, r.Nmax, r.Mj, r.Dim, r.NNZ, r.Np, r.VLocalMB, r.HLocalMB)
	}
	fmt.Println("\nToy CI model (A=3 fermions, Mj=1/2), the same exponential growth at laptop scale:")
	rows, err := ci.ToyScaling(3, 1, []int{0, 1, 2, 3, 4}, 1)
	if err != nil {
		return err
	}
	fmt.Println("  Nmax   D        nnz       density")
	for _, r := range rows {
		fmt.Printf("  %-4d   %-6d   %-8d  %.4f\n", r.Nmax, r.Dim, r.NNZ, r.Density)
	}
	fmt.Println("\nTwo-species toy model (Z=2 protons, N=2 neutrons, Mj=0 — the 10B structure in miniature):")
	fmt.Println("  Nmax   D        nnz       density")
	for _, nmax := range []int{0, 1, 2} {
		b, err := ci.BuildTwoSpeciesBasis(ci.TwoSpeciesConfig{Z: 2, N: 2, Nmax: nmax, M2: 0})
		if err != nil {
			return err
		}
		h, err := ci.TwoSpeciesHamiltonian(b, ci.HamiltonianConfig{Seed: 1})
		if err != nil {
			return err
		}
		d := float64(b.Dim())
		fmt.Printf("  %-4d   %-6d   %-8d  %.4f\n", nmax, b.Dim(), h.NNZ(), float64(h.NNZ())/(d*d))
	}
	fmt.Println("\nMemory-driven processor counts (paper: minimum processors matching memory needs):")
	for _, r := range ci.ReferenceTable1 {
		fmt.Printf("  %-11s modeled np = %-6d published np = %d\n",
			r.Name, ci.RequiredProcessors(r.NNZ, 8, r.HLocalMB), r.Np)
	}
	return nil
}

func table2() error {
	fmt.Println("Table II: 99 Lanczos iterations of MFDn on Hopper (model vs published).")
	fmt.Println("  test         np      t_total(s)        comm%            CPU-h/iter")
	fmt.Println("                       model  published  model published  model published")
	for _, r := range mfdn.ModelTable2() {
		fmt.Printf("  %-12s %-6d  %-6.0f %-9.0f  %-5.0f %-9.0f  %-6.2f %-6.2f\n",
			r.Name, r.Np, r.TotalSeconds99, r.PubTotalSeconds,
			100*r.CommFraction, 100*r.PubCommFraction,
			r.CPUHoursPerIter, r.PubCPUHours)
	}
	return nil
}

func tablePrint(rows []perfmodel.Row, pub []perfmodel.PubRow, cpuHours bool) {
	fmt.Println("  nodes  dim    nnz      size    time(s)          GFlop/s       read BW GB/s  non-overlap")
	fmt.Println("                                 model published  model publ.   model publ.   model publ.")
	for i, r := range rows {
		p := pub[i]
		line := fmt.Sprintf("  %-5d  %3.0fM   %5.1fB   %4.2fTB  %-6.0f %-9.0f  %-5.2f %-6.2f   %-5.1f %-6.1f   %3.0f%%  %3.0f%%",
			r.Nodes, r.DimMillions, r.NNZBillions, r.SizeTB,
			r.TimeSeconds, p.TimeSeconds, r.GFlops, p.GFlops,
			r.ReadBWGBs, p.ReadBWGBs, 100*r.NonOverlapped, 100*p.NonOverlapped)
		if cpuHours {
			line += fmt.Sprintf("   cpu-h/iter %5.2f (publ. %5.2f)", r.CPUHoursPerIter, p.CPUHoursPerIter)
		}
		fmt.Println(line)
	}
}

func table3() error {
	fmt.Println("Table III: 4 SpMV iterations, simple scheduling policy.")
	tablePrint(perfmodel.Table3(), perfmodel.PublishedTable3, false)
	return nil
}

func table4() error {
	fmt.Println("Table IV: intra-iteration interleaving + per-node aggregation.")
	tablePrint(perfmodel.Table4(), perfmodel.PublishedTable4, true)
	return nil
}

func fig1() error {
	fmt.Println("Fig. 1: the memory hierarchy and the DRAM-HDD latency gap PCIe SSDs fill.")
	fmt.Println("  layer        capacity      latency        cycles@2.67GHz  bandwidth")
	for _, l := range devices.Hierarchy() {
		fmt.Printf("  %-12s %9.2e B  %11.2e s  %14.0f  %8.2e B/s\n",
			l.Name, l.TypicalBytes, l.LatencySeconds, l.LatencyCycles, l.BandwidthBytes)
	}
	return nil
}

func fig34() error {
	cfg := spmv.ProgramConfig{K: 3, Iters: 2, SubBytes: 4e9, VecBytes: 4e8}
	tasks, err := spmv.Program(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Fig. 3: commands emitted for two iterations of the 3x3 SpMV:")
	for _, t := range tasks {
		var parts []string
		for _, in := range t.Inputs {
			parts = append(parts, in.Array)
		}
		fmt.Printf("  %-12s <- %s\n", t.Outputs[0].Array, strings.Join(parts, " "))
	}
	g, err := dag.Build(tasks)
	if err != nil {
		return err
	}
	fmt.Println("\nFig. 4: derived dependencies (task <- predecessors):")
	for _, t := range g.Tasks() {
		preds := g.Preds(t.ID)
		if len(preds) == 0 {
			fmt.Printf("  %-14s (ready: seed data only)\n", t.ID)
			continue
		}
		fmt.Printf("  %-14s <- %s\n", t.ID, strings.Join(preds, ", "))
	}
	fmt.Printf("\ncritical path: %d tasks; %d tasks total\n", g.CriticalPathLen(), g.Len())
	return nil
}

func fig5() error {
	cfg := spmv.ProgramConfig{K: 3, Iters: 2, SubBytes: 1000, VecBytes: 8}
	costs := scheduler.Costs{LoadSecondsPerByte: 0.003, RunSeconds: func(*dag.Task) float64 { return 1 }}
	for _, mode := range []struct {
		label   string
		reorder bool
	}{
		{"(a) Regular (FIFO order)", false},
		{"(b) Back and forth (data-aware reordering)", true},
	} {
		g, err := spmv.Graph(cfg)
		if err != nil {
			return err
		}
		plan, err := scheduler.Simulate(g, spmv.RowAssignment(cfg), cfg.K, cfg.SubBytes, mode.reorder, costs)
		if err != nil {
			return err
		}
		fmt.Printf("%s — loads per node: %v (total %d)\n", mode.label, plan.LoadsPerNode, plan.TotalLoads())
		for n := 0; n < cfg.K; n++ {
			var cells []string
			for _, op := range plan.NodeOps(n) {
				if op.Kind == scheduler.OpLoad {
					cells = append(cells, "L("+op.Ref.Array+")")
				} else {
					cells = append(cells, op.Task)
				}
			}
			fmt.Printf("  P%d: %s\n", n+1, strings.Join(cells, " "))
		}
		fmt.Println()
	}
	fmt.Println("Paper: regular = 3 loads/node/iteration; back-and-forth = 3 then 2 per iteration.")
	return nil
}

func fig6() error {
	fmt.Println("Fig. 6: runtime relative to the minimum time to read all data at the 20 GB/s peak.")
	fmt.Println("  nodes   (a) simple policy   (b) interleaved")
	t3, t4 := perfmodel.Table3(), perfmodel.Table4()
	for i := range t3 {
		fmt.Printf("  %-6d  %-18.2f  %.2f\n", t3[i].Nodes, t3[i].RelativeToOptimal(), t4[i].RelativeToOptimal())
	}
	return nil
}

func fig7() error {
	fmt.Println("Fig. 7: CPU-hours per iteration vs problem size.")
	fmt.Println("\n  SSD testbed (Table IV rows):")
	fmt.Println("    size      nodes  CPU-h/iter (model)  (published)")
	for i, r := range perfmodel.Table4() {
		fmt.Printf("    %4.2f TB   %-5d  %-18.2f  %.2f\n", r.SizeTB, r.Nodes, r.CPUHoursPerIter, perfmodel.PublishedTable4[i].CPUHoursPerIter)
	}
	star := perfmodel.Star()
	fmt.Printf("    %4.2f TB   %-5d  %-18.2f  %.2f   <- the star: 3.5 TB on 9 nodes\n",
		star.SizeTB, star.Nodes, star.CPUHoursPerIter, perfmodel.PublishedStar.CPUHoursPerIter)
	fmt.Println("\n  MFDn on Hopper (Table II):")
	for _, r := range mfdn.ModelTable2() {
		fmt.Printf("    %-12s np=%-6d CPU-h/iter %-8.2f (published %.2f)\n", r.Name, r.Np, r.CPUHoursPerIter, r.PubCPUHours)
	}
	fmt.Printf("\n  Headline: star (%.2f) vs Hopper test_4560 (9.70): %.0f%% cheaper (paper: 32%%).\n",
		star.CPUHoursPerIter, 100*(1-star.CPUHoursPerIter/9.70))
	return nil
}

func remoteRun() error {
	// Stage one node's blocks, serve them over loopback TCP, and fetch them
	// from a client — the compute-node/I/O-node split with a real socket.
	const dim, k = 4000, 4
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 11})
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp("", "doocbench-remote")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: 1}
	if err := core.StageMatrix(root, m, cfg); err != nil {
		return err
	}
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 28, ScratchDir: root + "/node0", IOWorkers: 4})
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := remote.Listen(st, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := remote.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()

	start := time.Now()
	var bytesMoved int64
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			data, err := cl.ReadAll(fmt.Sprintf("A_%03d_%03d", u, v))
			if err != nil {
				return err
			}
			bytesMoved += int64(len(data))
		}
	}
	cold := time.Since(start)
	// Second pass: server-side cache hot.
	start = time.Now()
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if _, err := cl.ReadAll(fmt.Sprintf("A_%03d_%03d", u, v)); err != nil {
				return err
			}
		}
	}
	hot := time.Since(start)
	fmt.Printf("served %d blocks (%.1f MB) over TCP %s\n", k*k, float64(bytesMoved)/1e6, srv.Addr())
	fmt.Printf("  cold (disk + wire): %v  (%.0f MB/s)\n", cold.Round(time.Millisecond), float64(bytesMoved)/1e6/cold.Seconds())
	fmt.Printf("  hot  (cache + wire): %v  (%.0f MB/s)\n", hot.Round(time.Millisecond), float64(bytesMoved)/1e6/hot.Seconds())
	fmt.Printf("  server counters: %d requests, %.1f MB out\n", srv.Requests(), float64(srv.BytesOut())/1e6)
	fmt.Println("  (see also cmd/doocserve for running the server as its own OS process)")
	return nil
}

func hddRun() error {
	fmt.Println("Why SSDs: the Section V workload on one ~150 MB/s SATA HDD per node —")
	fmt.Println("the paper's Section I claim ('poor performance ... high latency and low")
	fmt.Println("bandwidth associated with traditional disk-based storage') quantified:")
	fmt.Println("\n  nodes   SSD testbed time(s)   HDD time(s)   slowdown   HDD CPU-h/iter  vs Hopper-equivalent")
	hopper := map[int]float64{9: 1.72, 36: 9.70} // comparable Table II rows
	for _, n := range []int{9, 36} {
		ssd := perfmodel.Run(perfmodel.Experiment(n, perfmodel.PolicyInterleaved))
		hdd := perfmodel.Run(energy.HDDExperiment(n))
		fmt.Printf("  %-6d  %-20.0f  %-12.0f  %-8.1fx  %-14.1f  %.1fx the in-core cost\n",
			n, ssd.TimeSeconds, hdd.TimeSeconds, hdd.TimeSeconds/ssd.TimeSeconds,
			hdd.CPUHoursPerIter, hdd.CPUHoursPerIter/hopper[n])
	}
	fmt.Println("\n  On HDDs the out-of-core approach loses its CPU-hour advantage entirely —")
	fmt.Println("  exactly why the topic lay dormant until PCIe flash arrived.")
	return nil
}

func localSSD() error {
	fmt.Println("The paper (Section VI-A) argues SSD cards should sit on the compute nodes,")
	fmt.Println("like GPUs, removing the interconnect hop and the shared-GPFS bottlenecks.")
	fmt.Println("Quantified on the 3.5 TB star problem at 9 nodes:")
	ioNode := perfmodel.Star()
	local := perfmodel.Run(energy.LocalSSDExperiment())
	fmt.Println("\n  configuration        time(s)  GFlop/s  read BW GB/s  CPU-h/iter")
	fmt.Printf("  I/O-node testbed     %-7.0f  %-7.2f  %-12.1f  %.2f\n",
		ioNode.TimeSeconds, ioNode.GFlops, ioNode.ReadBWGBs, ioNode.CPUHoursPerIter)
	fmt.Printf("  local SSDs (what-if) %-7.0f  %-7.2f  %-12.1f  %.2f\n",
		local.TimeSeconds, local.GFlops, local.ReadBWGBs, local.CPUHoursPerIter)
	fmt.Printf("\n  speedup %.2fx; CPU-hour cost falls below the Hopper run (9.70) to %.2f.\n",
		ioNode.TimeSeconds/local.TimeSeconds, local.CPUHoursPerIter)
	return nil
}

func energyStudy() error {
	fmt.Println("Energy per Lanczos-iteration-equivalent on the 3.5 TB problem (modeled;")
	fmt.Println("power parameters documented in internal/energy):")
	fmt.Println("\n  configuration                    power(kW)  iter(s)  kJ/iter")
	for _, r := range energy.Study() {
		fmt.Printf("  %-31s  %-9.1f  %-7.0f  %.0f\n", r.Name, r.PowerWatts/1e3, r.IterSeconds, r.KJPerIter)
	}
	fmt.Println("\n  Reading: the 9-node star already beats the 36-node run on energy; moving")
	fmt.Println("  the SSDs onto the compute nodes (no always-on I/O nodes, no InfiniBand")
	fmt.Println("  hop) brings out-of-core into the same energy league as Hopper while")
	fmt.Println("  using 9 nodes instead of 190.")
	return nil
}

// faultsRun quantifies the self-healing runtime: the same out-of-core
// workload is run clean, under a bounded budget of injected transient I/O
// errors and stalls, and through the death of a compute node mid-run. All
// three runs must produce identical iterates; the interesting numbers are
// the wall-clock overhead and the retry counters.
func faultsRun() error {
	const dim, k, nodes, iters = 3000, 4, 2, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 13})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	fmt.Printf("matrix: %dx%d, %d nnz; %d nodes, %d iterations, K=%d\n", dim, dim, m.NNZ(), nodes, iters, k)

	run := func(inj *faults.Injector, killNode int) (*core.SpMVResult, time.Duration, error) {
		root, err := os.MkdirTemp("", "doocbench-faults")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(root)
		cfg := core.SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
		if err := core.StageMatrix(root, m, cfg); err != nil {
			return nil, 0, err
		}
		sys, err := core.NewSystem(core.Options{
			Nodes:          nodes,
			WorkersPerNode: 2,
			MemoryBudget:   1 << 26,
			ScratchRoot:    root,
			Reorder:        true,
			Faults:         inj,
			Obs:            benchObs,
			Trace:          benchTrace,
		})
		if err != nil {
			return nil, 0, err
		}
		defer sys.Close()
		if killNode >= 0 {
			// Let the run get going, then fail one node under it.
			go func() {
				time.Sleep(5 * time.Millisecond)
				_ = sys.FailNode(killNode)
			}()
		}
		start := time.Now()
		res, err := core.RunIteratedSpMV(sys, cfg, x0)
		return res, time.Since(start), err
	}

	clean, cleanWall, err := run(nil, -1)
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s %-12v\n", "clean baseline", cleanWall.Round(time.Millisecond))

	inj := faults.New(faults.Config{
		Seed: 5, IOErrorRate: 0.2, IOStallRate: 0.1,
		StallDuration: 2 * time.Millisecond, MaxInjections: 64,
	})
	faulty, faultyWall, err := run(inj, -1)
	if err != nil {
		return fmt.Errorf("run under injected I/O faults failed: %w", err)
	}
	fmt.Printf("  %-28s %-12v %d errors + %d stalls injected, %d ioPool retries, %d task retries, overhead %+.0f%%\n",
		"injected I/O faults", faultyWall.Round(time.Millisecond),
		inj.Counts().IOErrors, inj.Counts().IOStalls, faulty.Stats.IORetries(), faulty.Stats.TaskRetries,
		100*(faultyWall.Seconds()/cleanWall.Seconds()-1))

	killed, killedWall, err := run(nil, 1)
	if err != nil {
		return fmt.Errorf("run with a killed node failed: %w", err)
	}
	fmt.Printf("  %-28s %-12v %d node(s) failed, %d task re-executions, overhead %+.0f%%\n",
		"node 1 killed mid-run", killedWall.Round(time.Millisecond),
		killed.Stats.NodesFailed, killed.Stats.TaskRetries,
		100*(killedWall.Seconds()/cleanWall.Seconds()-1))
	fmt.Printf("  %-28s hits %d misses %d evictions %d block loads %d\n",
		"storage during faulty run", faulty.Stats.CacheHits(), faulty.Stats.CacheMisses(),
		faulty.Stats.Evictions(), faulty.Stats.BlockLoads())

	for _, other := range []*core.SpMVResult{faulty, killed} {
		for i := range clean.X {
			if clean.X[i] != other.X[i] {
				return fmt.Errorf("recovered run diverged from clean run at entry %d", i)
			}
		}
	}
	fmt.Println("  all three runs produced bit-identical iterates")
	return nil
}

func realRun() error {
	// A miniature end-to-end version of the testbed experiment on the local
	// machine: generate, stage, run out-of-core with both policies.
	const dim, k, nodes, iters = 4000, 5, 5, 4
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 7})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	fmt.Printf("matrix: %dx%d, %d nnz; %d nodes, %d iterations, K=%d\n", dim, dim, m.NNZ(), nodes, iters, k)
	for _, reorder := range []bool{false, true} {
		root, err := os.MkdirTemp("", "doocbench")
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
		// Budget ~2.5 blocks per node: small enough to force re-reads
		// across iterations, large enough that the back-and-forth boundary
		// block survives next to the in-flight prefetch.
		blockBytes := info.Bytes / int64(k*k)
		var inj *faults.Injector
		if faultRate > 0 {
			inj = faults.New(faults.Config{Seed: 3, IOErrorRate: faultRate, MaxInjections: 64})
		}
		sys, err := core.NewSystem(core.Options{
			Nodes:          nodes,
			WorkersPerNode: 1,
			MemoryBudget:   blockBytes*5/2 + 1<<16,
			ScratchRoot:    root,
			PrefetchWindow: 1,
			Reorder:        reorder,
			Faults:         inj,
			Obs:            benchObs,
			Trace:          benchTrace,
		})
		if err != nil {
			return err
		}
		res, err := core.RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			sys.Close()
			return err
		}
		label := "regular (FIFO)"
		if reorder {
			label = "back-and-forth"
		}
		line := fmt.Sprintf("  %-16s time %-12v disk-read %8.1f MB  network %6.2f MB",
			label, res.Stats.Wall.Round(1000000),
			float64(res.Stats.BytesReadDisk())/1e6,
			float64(res.Stats.PeerBytes())/1e6)
		if inj != nil {
			line += fmt.Sprintf("  (%d faults injected, %d task retries)", inj.Counts().Total(), res.Stats.TaskRetries)
		}
		fmt.Println(line)
		hits, miss := res.Stats.CacheHits(), res.Stats.CacheMisses()
		hitRate := 0.0
		if hits+miss > 0 {
			hitRate = 100 * float64(hits) / float64(hits+miss)
		}
		fmt.Printf("  %-16s cache %d/%d hits (%.0f%%)  evictions %d  prefetch %d loads / %d hits  block loads %d\n",
			"", hits, hits+miss, hitRate, res.Stats.Evictions(),
			res.Stats.PrefetchLoads(), res.Stats.PrefetchHits(), res.Stats.BlockLoads())
		sys.Close()
	}
	// The in-core baseline's comm growth, executed for real.
	fmt.Println("\n  in-core baseline (bulk-synchronous allgather), throttled link:")
	mSmall, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 1200, Cols: 1200, D: 4, Seed: 2})
	if err != nil {
		return err
	}
	xs := make([]float64, 1200)
	xs[0] = 1
	ranks := []int{2, 4, 8}
	fracs := make([]float64, 0, len(ranks))
	for _, r := range ranks {
		res, err := mfdn.RunInCore(mfdn.InCoreConfig{Matrix: mSmall, Ranks: r, Iters: 3, X0: xs, LinkBandwidth: 4 << 20})
		if err != nil {
			return err
		}
		fracs = append(fracs, res.CommFraction)
		fmt.Printf("    ranks=%d  comm fraction %.0f%%\n", r, 100*res.CommFraction)
	}
	if !sort.Float64sAreSorted(fracs) {
		fmt.Println("    (non-monotone on this machine; rerun for a cleaner signal)")
	}
	return nil
}

// streamsRun drives the DataCutter-style filter-stream substrate directly and
// surfaces Runtime.Stats() — the per-stream traffic the middleware accounts
// for each logical stream — alongside the dooc_stream_* counters.
func streamsRun() error {
	const buffers, payload = 256, 1 << 12
	l := datacutter.NewLayout()
	l.MustAddFilter("source", func() datacutter.Filter {
		return datacutter.FilterFunc(func(ctx *datacutter.Context) error {
			data := make([]byte, payload)
			for i := 0; i < buffers; i++ {
				ctx.Write("work", datacutter.Buffer{Tag: fmt.Sprint(i), Data: data})
			}
			return nil
		})
	})
	l.MustAddFilter("scale", func() datacutter.Filter {
		return datacutter.FilterFunc(func(ctx *datacutter.Context) error {
			for {
				b, ok := ctx.Read("work")
				if !ok {
					return nil
				}
				ctx.Write("done", b)
			}
		})
	}, datacutter.Copies(3))
	l.MustAddFilter("sink", func() datacutter.Filter {
		return datacutter.FilterFunc(func(ctx *datacutter.Context) error {
			for {
				if _, ok := ctx.Read("done"); !ok {
					return nil
				}
			}
		})
	})
	l.MustConnect("work", "source", "scale", datacutter.Depth(8))
	l.MustConnect("done", "scale", "sink", datacutter.Depth(8))
	rt, err := datacutter.NewRuntime(l, nil)
	if err != nil {
		return err
	}
	rt.Obs = benchObs
	start := time.Now()
	if err := rt.Run(); err != nil {
		return err
	}
	fmt.Printf("pipeline source -> scale(x3, transparent copies) -> sink: %d buffers of %d B in %v\n",
		buffers, payload, time.Since(start).Round(time.Millisecond))
	fmt.Println("  stream   buffers   bytes")
	for _, s := range rt.Stats() {
		fmt.Printf("  %-7s  %-8d  %d\n", s.Stream, s.Buffers, s.Bytes)
	}
	return nil
}
