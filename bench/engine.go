package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// engineParams sizes a workload that runs on a core.System over a staged
// matrix.
type engineParams struct {
	dim, d, k, nodes int
	workers          int // computing filters per node
	symmetric        bool
	// compressed stages DOOCCRS V2 blocks and gives the stores the default
	// spill codec.
	compressed bool
	// tight is the out-of-core regime: each node may hold two matrix blocks
	// plus slack for vectors, nothing stays decoded. Otherwise the budget is
	// twice the staged set and the decode cache twice the CSR bytes: after
	// warm-up nothing is read or decoded again.
	tight bool
	// slack is the tight budget's room for vectors beyond the two blocks.
	slack int64
}

// engine is the part of a runner shared by every workload on a core.System:
// generated matrix, staged directory, system, registry.
type engine struct {
	c      *runConfig
	p      engineParams
	reg    *obs.Registry
	m      *sparse.CSR // nil once the oracle has what it needs (untraced run)
	nnzN   int64
	root   string
	staged core.StagedMatrixInfo
	budget int64 // per node
	sys    *core.System
	cfg    core.SpMVConfig // Dim, K, Nodes; Iters and Tag are per call
	span   openSpan        // the set-up span, parent of stage and NewSystem
}

func (e *engine) nnz() int64              { return e.nnzN }
func (e *engine) registry() *obs.Registry { return e.reg }

func (e *engine) blockBytes() int64 { return e.staged.Bytes / int64(e.p.k*e.p.k) }

// begin opens the set-up: the traced run's registry and the set-up span.
func (e *engine) begin(traced bool) {
	if traced {
		e.reg = obs.NewRegistry()
	}
	e.span = e.c.rec.start(noSpan, -1, "bench", "setup")
}

// start generates the matrix, stages it and brings the system up. shard, when
// non-nil, connects the stores to a cluster ring.
func (e *engine) start(shard storage.ShardBackend) error {
	m, err := genMatrix(e.p.dim, e.p.d, e.c.seed, e.p.symmetric)
	if err != nil {
		return err
	}
	e.m, e.nnzN = m, m.NNZ()
	e.cfg = core.SpMVConfig{Dim: e.p.dim, K: e.p.k, Nodes: e.p.nodes, Iters: 1}
	if e.root, err = os.MkdirTemp(e.c.scratch, "stage-"); err != nil {
		return err
	}
	sp := e.c.rec.start(e.span, -1, "core", "stage")
	if e.p.compressed {
		err = core.StageMatrixCompressed(e.root, m, e.cfg)
	} else {
		err = core.StageMatrix(e.root, m, e.cfg)
	}
	sp.end()
	if err != nil {
		return err
	}
	if e.staged, err = core.DiscoverStagedMatrix(e.root); err != nil {
		return err
	}
	opts := core.Options{
		Nodes: e.p.nodes, WorkersPerNode: e.p.workers, ScratchRoot: e.root,
		PrefetchWindow: 2, Reorder: true, Seed: e.c.seed, Obs: e.reg, Shard: shard,
	}
	if e.p.compressed {
		opts.Codec = compress.Default()
	}
	if e.p.tight {
		opts.MemoryBudget = 2*e.blockBytes() + e.p.slack
	} else {
		opts.MemoryBudget = 2 * e.staged.Bytes
		opts.DecodeCacheBytes = 2 * m.Bytes()
	}
	e.budget = opts.MemoryBudget
	sp = e.c.rec.start(e.span, -1, "core", "NewSystem")
	e.sys, err = core.NewSystem(opts)
	sp.end()
	return err
}

func (e *engine) close() {
	if e.sys != nil {
		sp := e.c.rec.start(noSpan, -1, "core", "Close")
		e.sys.Close()
		sp.end()
		e.sys = nil
	}
	if e.root != "" {
		os.RemoveAll(e.root)
	}
}

func (e *engine) describe() string {
	return fmt.Sprintf("%s: dim %d, %d nnz, CSR %.1f MB, staged %.1f MB in %dx%d blocks; budget %.1f MB x %d nodes; working set / budget = %.2f",
		e.c.workload.Name, e.p.dim, e.nnzN, float64(e.nnzN*12+int64(e.p.dim+1)*8)/1e6, float64(e.staged.Bytes)/1e6,
		e.p.k, e.p.k, float64(e.budget)/1e6, e.p.nodes, e.workingSetRatio())
}

func (e *engine) workingSetRatio() float64 {
	return float64(e.staged.Bytes) / float64(e.budget*int64(e.p.nodes))
}

// stagedBlock reads one staged block file back, as the bytes the storage layer
// serves and the engine decodes.
func (e *engine) stagedBlock(u, v int) ([]byte, error) {
	return os.ReadFile(filepath.Join(e.root, fmt.Sprintf("node%d", e.cfg.OwnerOf(u)), spmv.MatrixArray(u, v)+".arr"))
}

// engineLayers fills the storage, scheduler, dag and core metrics every engine
// workload shares: counts from the window's registry growth, probes on the
// workload's own blocks.
func (e *engine) engineLayers(l *ledger, m *measurement) error {
	c, iters, spans := m.counts, float64(m.iters), e.c.rec.snapshot()
	w := e.c.workload

	if w.has("storage") { // counts
		hits, misses := c["dooc_storage_cache_hits_total"], c["dooc_storage_cache_misses_total"]
		l.set("storage.cache_hit_ratio", ratio(hits, hits+misses), 0)
		l.set("storage.disk_read_bytes_per_iter", ratio(c["dooc_storage_disk_read_bytes_total"], iters), 0)
		l.set("storage.disk_write_bytes_per_iter", ratio(c["dooc_storage_disk_write_bytes_total"], iters), 0)
		l.set("storage.evictions_per_iter", ratio(c["dooc_storage_evictions_total"], iters), 0)
		l.set("storage.prefetch_useful_ratio", ratio(c["dooc_storage_prefetch_hits_total"], c["dooc_storage_prefetch_loads_total"]), 0)
		l.set("storage.prefetch_cover_ratio", ratio(c["dooc_storage_prefetch_hits_total"], misses), 0)
		l.set("storage.peer_bytes_per_iter", ratio(c["dooc_storage_peer_fetch_bytes_total"], iters), 0)
		probes := c["dooc_storage_peer_probes_total"]
		l.set("storage.peer_probe_hit_ratio", ratio(probes-c["dooc_storage_peer_probe_misses_total"], probes), 0)
		l.set("storage.io_retries", c["dooc_storage_io_retries_total"], 0)
		l.set("storage.workingset_budget_ratio", e.workingSetRatio(), 0)
	}

	// scheduler: counts
	l.set("scheduler.reorder_ratio", ratio(c["dooc_sched_reorders_total"], c["dooc_sched_picks_total"]), 0)
	l.set("scheduler.prefetch_refs_per_iter", ratio(c["dooc_sched_prefetch_refs_total"], iters), 0)

	// core: counts
	l.set("core.tasks_per_iter", ratio(c["dooc_engine_tasks_completed_total"], iters), 0)
	l.set("core.task_retries", c["dooc_engine_task_retries_total"], 0)
	dh, dm := c["dooc_core_decode_cache_hits_total"], c["dooc_core_decode_cache_misses_total"]
	l.set("core.decode_cache_hit_ratio", ratio(dh, dh+dm), 0)
	// The pipeline decodes during warm-up on the in-core workload; its
	// lifetime totals say whether those decodes overlapped compute.
	life := e.reg.Totals()
	l.set("core.pipeline_overlap_ratio", ratio(float64(life["dooc_kernel_pipeline_overlap_total"]), float64(life["dooc_kernel_pipeline_decodes_total"])), 0)
	l.set("core.pipeline_stalls_per_iter", ratio(c["dooc_kernel_pipeline_stalls_total"], iters), 0)
	l.set("core.fused_calls_per_iter", ratio(c["dooc_kernel_fused_calls_total"], iters), 0)
	l.set("core.blocked_dispatch_per_iter", ratio(c["dooc_kernel_blocked_dispatch_total"], iters), 0)

	// core: set-up spans
	if d := spanDurations(spans, "stage", -1); len(d) > 0 {
		l.set("core.stage_mbps", float64(e.staged.Bytes)/1e6/(d[0]/1e3), 1)
	}
	if d := spanDurations(spans, "NewSystem", -1); len(d) > 0 {
		l.set("core.newsystem_ms", d[0], 1)
	}

	// probes
	iterMs := median(m.iterMs)
	kernelMs, err := kernelProbe(e.m, e.p.k)
	if err != nil {
		return err
	}
	l.set("core.kernel_share", ratio(kernelMs, iterMs), kernelReps)
	l.set("core.nonkernel_ms_per_iter", iterMs-kernelMs, kernelReps)
	if w.has("sparse") {
		probeSparse(l, e.m)
		raw, err := e.stagedBlock(0, 0)
		if err != nil {
			return err
		}
		if err := probeDecodeCRS(l, raw); err != nil {
			return err
		}
	}
	probeScheduler(l, e.p.k, e.p.nodes, e.blockBytes(), int64(8*e.p.dim/e.p.k))
	if w.has("storage") {
		if err := probeStorage(l, e.sys.Store(0), spmv.MatrixArray(0, 0), 8*e.p.dim/e.p.k); err != nil {
			return err
		}
	}
	return nil
}
