package main

import (
	"encoding/json"
	"strings"
)

// runSeconds is the length of one measured window, BENCHMARK.json's
// run_seconds. The driver passes it back as --seconds.
const runSeconds = 16

// metric declares one reported number. Source says how it is obtained from
// outside the program: "timing" (wall clock around the workload's unit of
// work), "span" (the benchmark's own spans), "probe" (the benchmark timing a
// layer's public function on the workload's blocks) or "count" (a counter read
// through a public surface). Moves names the end-to-end metric the number is
// predicted to move, and on which workload.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	Layer  string  // per-layer only
	Source string
	Moves  string
}

// endToEnd is what a user of the system sees. Every workload reports every one
// of them (the contract of BENCHMARK.json), so each is defined on the
// workload's own unit of work: one RunIteratedSpMV iteration (spmv-*), one
// Lanczos step (lanczos-ooc), one solver iteration of a client-observed job
// (jobs-wire).
//
// Every bound is the contract's ceiling, 0.25. Ten seeds on one binary spread
// (quartile distance over median) by 0.03-0.08 on the one-thread workloads and
// by up to 0.12 on the two-thread ones while the 2-vCPU sandbox is quiet; what
// it does when the host is busy, and what the benchmark does about it (small
// matrices, stolen time excluded), is in bench/README.md, "Steadiness".
//
// Times are the process's own: wall less what the hypervisor took
// (hostclock.go); on a machine of one's own that is wall time.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "timing",
		Moves: "generate + stage/load + NewSystem/listen + warm-up; median of the set-ups of one run"},
	{Name: "iter_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Source: "timing",
		Moves: "median over units of time / iterations in the unit"},
	{Name: "gflops", Unit: "GFLOP/s", Better: "higher", Bound: 0.25, Source: "timing",
		Moves: "2*nnz*iterations / measured time; mean-based, so it sees stalls the median hides"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Source: "count",
		Moves: "resident-set high-water mark of the window's first PeakUnits units of work"},
}

// Layers are this repo's modules on a user-visible path, in stack order.
var layers = []string{"sparse", "compress", "storage", "scheduler", "dag", "core", "lanczos", "jobs", "jobstore", "remote", "proxy", "cluster", "bench"}

func pl(name, unit, better, source, moves string) metric {
	return metric{Name: name, Unit: unit, Better: better, Layer: name[:strings.IndexByte(name, '.')], Source: source, Moves: moves}
}

// perLayer is the ledger of the traced run. A metric of a layer that is not on
// a workload's path (see workloadSpec.Layers) is reported as 0 there.
var perLayer = []metric{
	pl("sparse.mulvec_gbps", "GB/s", "higher", "probe", "iter_ms_p50, gflops on spmv-incore"),
	pl("sparse.mulvec_gflops", "GFLOP/s", "higher", "probe", "gflops on spmv-incore"),
	pl("sparse.mulvec_1t_gbps", "GB/s", "higher", "probe", "plain sparse.MulVec, the single-thread baseline; none directly"),
	pl("sparse.pool_speedup", "x", "higher", "probe", "Pool.MulVec at width 1 / at width nproc; core.nproc_speedup"),
	pl("sparse.fused_axpydot_gbps", "GB/s", "higher", "probe", "iter_ms_p50 on lanczos-ooc once the engine path dispatches to it"),
	pl("sparse.flops_per_byte", "flop/B", "higher", "count", "computed, not measured: 2*nnz / (12*nnz + 8*(rows+cols))"),
	pl("sparse.stream_gbps", "GB/s", "higher", "probe", "the machine's triad bandwidth in the same run; none"),
	pl("sparse.roofline_frac", "ratio", "higher", "probe", "mulvec_gflops / (stream_gbps * flops_per_byte)"),
	pl("sparse.decode_crs_mbps", "MB/s", "higher", "probe", "iter_ms_p50 on spmv-ooc"),

	pl("compress.decode_mbps", "MB/s", "higher", "probe", "iter_ms_p50 on lanczos-ooc"),
	pl("compress.encode_mbps", "MB/s", "higher", "probe", "iter_ms_p50 on lanczos-ooc (basis spills)"),
	pl("compress.ratio", "x", "higher", "probe", "iter_ms_p50, peak_rss_mb on lanczos-ooc"),

	pl("storage.read_warm_us", "us", "lower", "probe", "iter_ms_p50 on spmv-incore"),
	pl("storage.read_cold_us", "us", "lower", "probe", "iter_ms_p50 on spmv-ooc"),
	pl("storage.read_cold_mbps", "MB/s", "higher", "probe", "iter_ms_p50, gflops on spmv-ooc"),
	pl("storage.write_us", "us", "lower", "probe", "iter_ms_p50 on lanczos-ooc"),
	pl("storage.spill_mbps", "MB/s", "higher", "probe", "iter_ms_p50 on lanczos-ooc"),
	pl("storage.cache_hit_ratio", "ratio", "higher", "count", "iter_ms_p50 on spmv-ooc"),
	pl("storage.disk_read_bytes_per_iter", "B", "lower", "count", "iter_ms_p50, gflops on spmv-ooc; 0 on spmv-incore"),
	pl("storage.disk_write_bytes_per_iter", "B", "lower", "count", "iter_ms_p50 on lanczos-ooc"),
	pl("storage.evictions_per_iter", "count", "lower", "count", "iter_ms_p50, peak_rss_mb on spmv-ooc"),
	pl("storage.prefetch_useful_ratio", "ratio", "higher", "count", "prefetch hits / prefetch loads; iter_ms_p50 on spmv-ooc"),
	pl("storage.prefetch_cover_ratio", "ratio", "higher", "count", "prefetch hits / misses; iter_ms_p50 on spmv-ooc"),
	pl("storage.peer_bytes_per_iter", "B", "lower", "count", "iter_ms_p50 on spmv-ooc"),
	pl("storage.peer_probe_hit_ratio", "ratio", "higher", "count", "iter_ms_p50 on spmv-ooc"),
	pl("storage.io_retries", "count", "lower", "count", "must stay 0: no faults are injected"),
	pl("storage.workingset_budget_ratio", "x", "lower", "count", "staged bytes / summed node budgets; the regime the workload is in"),

	pl("dag.build_us", "us", "lower", "probe", "iter_ms_p50 on lanczos-ooc, jobs-wire (one build per step/job)"),
	pl("scheduler.affinity_us", "us", "lower", "probe", "iter_ms_p50 on lanczos-ooc, jobs-wire"),
	pl("scheduler.pick_ns", "ns", "lower", "probe", "iter_ms_p50 on spmv-incore"),
	pl("scheduler.reorder_ratio", "ratio", "higher", "count", "reordered picks / picks; disk_read_bytes_per_iter on spmv-ooc"),
	pl("scheduler.prefetch_refs_per_iter", "count", "higher", "count", "storage.prefetch_cover_ratio on spmv-ooc"),

	pl("core.kernel_share", "ratio", "higher", "probe", "bounds what a faster kernel can save of iter_ms_p50"),
	pl("core.nonkernel_ms_per_iter", "ms", "lower", "probe", "iter_ms_p50 on spmv-incore"),
	pl("core.allocs_per_iter", "count", "lower", "count", "iter_ms_p50, peak_rss_mb on spmv-incore"),
	pl("core.alloc_bytes_per_iter", "B", "lower", "count", "peak_rss_mb on spmv-incore"),
	pl("core.gc_pause_ms", "ms", "lower", "count", "gflops (mean-based) on every workload"),
	pl("core.tasks_per_iter", "count", "lower", "count", "iter_ms_p50 on spmv-incore"),
	pl("core.task_retries", "count", "lower", "count", "must stay 0: no faults are injected"),
	pl("core.decode_cache_hit_ratio", "ratio", "higher", "count", "iter_ms_p50 on spmv-incore"),
	pl("core.pipeline_overlap_ratio", "ratio", "higher", "count", "iter_ms_p50 on spmv-incore warm-up, setup_s"),
	pl("core.pipeline_stalls_per_iter", "count", "lower", "count", "iter_ms_p50 on spmv-incore"),
	pl("core.fused_calls_per_iter", "count", "higher", "count", "ROADMAP item 2: 0 until a fused kernel is on the engine path"),
	pl("core.blocked_dispatch_per_iter", "count", "higher", "count", "ROADMAP item 2: 0 until the tiled traversal is dispatched to"),
	pl("core.stage_mbps", "MB/s", "higher", "span", "setup_s"),
	pl("core.newsystem_ms", "ms", "lower", "span", "setup_s"),
	pl("core.basis_append_ms", "ms", "lower", "span", "iter_ms_p50 on lanczos-ooc"),
	pl("core.basis_read_ms", "ms", "lower", "span", "iter_ms_p50 on lanczos-ooc"),
	pl("core.iter_ms_tail", "ms", "lower", "timing", "tail of iter_ms: highest percentile with >= 10 samples beyond it; not gated"),
	pl("core.nproc_speedup", "x", "higher", "timing", "untraced iter_ms_p50 at the workload's GOMAXPROCS / at nproc; the sandbox's second vCPU is not a steady core, so not gated"),
	pl("core.trace_overhead_ratio", "ratio", "lower", "timing", "traced / untraced iter_ms_p50 - 1, both measured in the traced run"),
	pl("core.span_self_ms_per_iter", "ms", "lower", "span", "iter_ms_p50"),

	pl("lanczos.solve_s", "s", "lower", "timing", "median wall of one full solve; iter_ms_p50 * steps on lanczos-ooc"),
	pl("lanczos.step_ms_incore", "ms", "lower", "probe", "floor for iter_ms_p50 on lanczos-ooc (same matrix, no engine)"),
	pl("lanczos.operator_calls", "count", "lower", "count", "one engine run per step"),
	pl("lanczos.eig_abs_err", "abs", "lower", "count", "oracle: |lowest eigenvalue - in-core solve|, limit 1e-9"),
	pl("lanczos.span_self_ms_per_iter", "ms", "lower", "span", "iter_ms_p50 on lanczos-ooc (reorthogonalisation, tridiagonal solve)"),

	pl("jobs.job_ms_p50", "ms", "lower", "timing", "client-observed submit -> result bytes in hand; iter_ms_p50 * iterations per job"),
	pl("jobs.job_ms_tail", "ms", "lower", "timing", "tail of job_ms, same percentile rule; not gated"),
	pl("jobs.jobs_per_s", "1/s", "higher", "timing", "completed jobs / wall at 2 closed-loop clients; gflops on jobs-wire"),
	pl("jobs.submit_ms_p50", "ms", "lower", "span", "iter_ms_p50 on jobs-wire (journal-then-admit)"),
	pl("jobs.queue_ms_p50", "ms", "lower", "count", "iter_ms_p50 on jobs-wire"),
	pl("jobs.run_ms_p50", "ms", "lower", "count", "iter_ms_p50 on jobs-wire"),
	pl("jobstore.append_fsync_us", "us", "lower", "probe", "iter_ms_p50 on jobs-wire"),
	pl("jobstore.records_per_job", "count", "lower", "count", "iter_ms_p50 on jobs-wire"),
	pl("jobstore.wal_bytes_per_job", "B", "lower", "count", "iter_ms_p50 on jobs-wire"),

	pl("remote.rtt_us", "us", "lower", "probe", "iter_ms_p50 on jobs-wire, spmv-ring"),
	pl("remote.result_ms_p50", "ms", "lower", "span", "by value: job finished -> bytes in hand; iter_ms_p50 on jobs-wire"),
	pl("remote.client_rx_bytes_per_job.byvalue", "B", "lower", "count", "bytes over the client link; ROADMAP item 4"),
	pl("remote.client_rx_bytes_per_job.byref", "B", "lower", "count", "bytes over the client link; ROADMAP item 4"),
	pl("remote.reconnects", "count", "lower", "count", "must stay 0: no faults are injected"),
	pl("remote.span_self_ms_per_iter", "ms", "lower", "span", "iter_ms_p50 on jobs-wire"),
	pl("proxy.resolve_ms_p50", "ms", "lower", "span", "iter_ms_p50 on jobs-wire"),
	pl("proxy.resolve_mbps", "MB/s", "higher", "span", "iter_ms_p50 on jobs-wire"),
	pl("proxy.span_self_ms_per_iter", "ms", "lower", "span", "iter_ms_p50 on jobs-wire"),

	pl("cluster.ring_owner_ns", "ns", "lower", "probe", "iter_ms_p50 on spmv-ring"),
	pl("cluster.peer_get_us", "us", "lower", "probe", "iter_ms_p50 on spmv-ring"),
	pl("cluster.peer_put_us", "us", "lower", "probe", "iter_ms_p50 on spmv-ring"),
	pl("cluster.forwarded_reads_per_iter", "count", "lower", "count", "iter_ms_p50 on spmv-ring; 0 elsewhere"),
	pl("cluster.forwarded_bytes_per_iter", "B", "lower", "count", "iter_ms_p50 on spmv-ring"),
	pl("cluster.pushes_per_iter", "count", "lower", "count", "iter_ms_p50 on spmv-ring"),
	pl("cluster.durable_push_ratio", "ratio", "higher", "count", "storage.disk_write_bytes_per_iter on spmv-ring"),
	pl("cluster.replica_hit_ratio", "ratio", "higher", "count", "cluster.forwarded_reads_per_iter on spmv-ring"),
	pl("cluster.forward_miss_ratio", "ratio", "lower", "count", "storage.disk_read_bytes_per_iter on spmv-ring"),

	pl("bench.span_self_ms_per_iter", "ms", "lower", "span", "the harness's own time between calls; none"),
}

// workloadSpec declares one workload: its fixed name, the one-line rationale
// BENCHMARK.json carries, the layers on its path (whose probes run and whose
// metrics are non-zero), and the constructor of its runner.
type workloadSpec struct {
	Name   string
	Why    string
	Layers []string
	// Procs is the GOMAXPROCS of the workload's set-ups and measured windows
	// (capped at the machine's); see harness.go for why it is 1 where it can be.
	Procs int
	// PeakUnits is the unit of work of the untraced window at whose completion
	// peak_rss_mb is read (runConfig.unitDone): about a third of what a quiet
	// machine completes in runSeconds, so a machine several times slower still
	// gets there.
	PeakUnits int
	// TracedWide runs the traced window at the machine's width instead of
	// Procs, and takes its overhead against the wide untraced window.
	TracedWide bool
	New        func(c *runConfig) runner
}

var workloads = []workloadSpec{
	{Name: "spmv-incore",
		Why:    "everything resident and decoded: kernel, per-task engine overhead and scheduler picks do the work, storage I/O none",
		Layers: []string{"sparse", "storage", "scheduler", "dag", "core", "bench"},
		Procs:  1, PeakUnits: 250, New: newSpMVInCore},
	{Name: "spmv-ooc",
		Why:    "the paper's regime, two blocks of memory per node: scratch reads, LRU, prefetch, reorder and CRS decode dominate, the kernel is a small share",
		Layers: []string{"sparse", "storage", "scheduler", "dag", "core", "bench"},
		Procs:  1, PeakUnits: 100, New: newSpMVOOC},
	{Name: "lanczos-ooc",
		Why:    "same layers used differently: compressed blocks, basis vectors written, spilled and re-read, one DAG build and placement per step",
		Layers: []string{"sparse", "compress", "storage", "scheduler", "dag", "core", "lanczos", "bench"},
		Procs:  1, PeakUnits: 4, New: newLanczosOOC},
	{Name: "jobs-wire",
		Why:    "the service path at 2 closed-loop clients: wire framing, queue and admit, journal fsync and proxy resolve beside a few ms of compute per job",
		Layers: []string{"scheduler", "dag", "core", "jobs", "jobstore", "remote", "proxy", "bench"},
		// One thread for the gated run: on two, everything here (clients,
		// handlers, two jobs in the engine) runs on both vCPUs at once, and what
		// the second vCPU is worth changes by a quarter from one half-hour to
		// the next. On one saturated thread the Go runtime polls the network
		// only when the thread falls idle or every 10 ms, so a request waits
		// for the job under way; the gated numbers are then the CPU a job costs
		// end to end (throughput) and twice that (latency), which is steady.
		// The traced run keeps both threads, where submit, result and resolve
		// times are the path's own and not the poll's.
		Procs: 1, TracedWide: true, PeakUnits: 400, New: newJobsWire},
	{Name: "spmv-ring",
		Why:    "the only path through the cluster tier: three loopback peers, pushes to ring owners, owner-forwarded misses, hot-block replicas",
		Layers: []string{"storage", "scheduler", "dag", "core", "remote", "cluster", "bench"},
		// The ring's peers answer pushes and fetches on goroutines of this
		// process. On one thread they wait behind the computing filter, no
		// push is acknowledged before its block dies, and the tier does
		// nothing (durable_push_ratio 0.00). Two threads, one computing
		// filter: the second thread carries the peers and is lightly loaded,
		// so the wall is still one compute thread's.
		Procs: 2, PeakUnits: 90, New: newSpMVRing},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workloadSpec) has(layer string) bool {
	for _, l := range w.Layers {
		if l == layer {
			return true
		}
	}
	return false
}

// manifestJSON renders BENCHMARK.json from the declarations above, so the file
// and the program cannot drift (bench_test.go compares them).
func manifestJSON() []byte {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []e2e     `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from literals above
	}
	return append(out, '\n')
}
