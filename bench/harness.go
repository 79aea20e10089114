package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"dooc/internal/obs"
)

// runner is one workload brought up once: set-up, a measured window, the
// per-layer reading of that window, tear-down. A runner is used for one
// set-up; a second set-up takes a new runner.
type runner interface {
	// setup generates the inputs from the seed, stages or loads them, starts
	// the system (and its listeners) and warms it up. With traced set the
	// program gets a fresh obs.Registry and the benchmark records spans.
	setup(traced bool) error
	// oracle computes the reference answers. It is the benchmark's work, not
	// the program's, and is kept out of set-up time. With keep unset the
	// runner then drops the generated matrix, so the window's memory figure is
	// the program's.
	oracle(keep bool) error
	// measure runs units of work until the window is over and checks every
	// answer.
	measure(seconds float64) (*measurement, error)
	// layers fills the per-layer metrics of the workload's own layers from
	// counts and probes, after a traced window.
	layers(l *ledger, m *measurement) error
	// nnz is the stored entries of the workload's matrix.
	nnz() int64
	// describe is the line a reader needs before any number of the workload:
	// its sizes, and how the working set compares with what the program may
	// keep. Valid after oracle.
	describe() string
	// registry is the obs.Registry the traced set-up threaded through the
	// program; nil after an untraced set-up.
	registry() *obs.Registry
	close()
}

// measurement is what one window yields.
type measurement struct {
	iterMs []float64     // per unit of work: wall / iterations in the unit
	iterAt []interval    // when the unit behind iterMs[i] ran
	window interval      // the whole measured window
	unitMs []float64     // per whole solve or job: wall (the workloads whose unit is not an iteration)
	iters  int64         // iterations completed correctly
	wall   time.Duration // the time the throughput is taken over
	attempts
	counts counterDelta // registry growth over the window (traced run only)
	mem    memDelta
}

// interval is a stretch of wall time.
type interval struct{ from, to time.Time }

// attempts counts operations; an error, a refused submit or a wrong answer is a
// failure.
type attempts struct{ attempted, failed int }

func (a *attempts) add(b attempts) { a.attempted += b.attempted; a.failed += b.failed }

// counterDelta is the growth of every obs series family over a window.
type counterDelta map[string]float64

func counterGrowth(before, after map[string]int64) counterDelta {
	d := make(counterDelta, len(after))
	for name, v := range after {
		d[name] = float64(v - before[name])
	}
	return d
}

// memDelta is allocator and collector activity over a window, process-wide.
type memDelta struct {
	mallocs, bytes float64
	pauseMs        float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memGrowth(before, after runtime.MemStats) memDelta {
	return memDelta{
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// ledger collects the metrics of one run against their declarations.
type ledger struct {
	specs []metric
	vals  map[string]sample
}

// sample is a reported value with the number of observations behind it (0 for
// a count or a value computed from others) and an optional note.
type sample struct {
	v    float64
	n    int
	note string
}

func newLedger(specs []metric) *ledger {
	return &ledger{specs: specs, vals: make(map[string]sample)}
}

// set records a metric; an undeclared name is a bug in the benchmark.
func (l *ledger) set(name string, v float64, n int) { l.setNote(name, v, n, "") }

func (l *ledger) setNote(name string, v float64, n int, note string) {
	for _, s := range l.specs {
		if s.Name == name {
			l.vals[name] = sample{v, n, note}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// report is the metrics object of the result line: every declared metric, 0
// for those of layers that are not on this workload's path.
func (l *ledger) report() map[string]reportVal {
	out := make(map[string]reportVal, len(l.specs))
	for _, s := range l.specs {
		out[s.Name] = reportVal{Value: l.vals[s.Name].v, Unit: s.Unit}
	}
	return out
}

func (l *ledger) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%-12s %-40s %16s %-8s %7s %6s  %s\n", "workload", "metric", "value", "unit", "samples", "bound", "source")
	for _, s := range l.specs {
		v, ok := l.vals[s.Name]
		if !ok {
			continue // a layer that is not on this workload's path
		}
		bound := "-"
		if s.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
		}
		src := s.Source
		if v.note != "" {
			src += " (" + v.note + ")"
		}
		fmt.Fprintf(w, "%-12s %-40s %16.6g %-8s %7d %6s  %s\n", workload, s.Name, v.v, s.Unit, v.n, bound, src)
	}
}

// machineProcs is the GOMAXPROCS the process started with, at most nproc: the
// width of the traced run's wide window and of anything the probes run in
// parallel themselves.
//
// Set-ups and measured windows run narrower, at workloadSpec.Procs: 1 where the
// workload allows it. The sandbox's two vCPUs do not reliably give two cores:
// two threads of a pure compute loop each ran between 1x and 2x slower than
// one thread alone, in phases lasting minutes, and with them every two-thread
// wall time. At GOMAXPROCS 1 the wall of a window is the program's total CPU
// work plus the I/O it failed to overlap — what most optimisations change.
// What one thread cannot see,
// lock contention and parallel scaling, the traced run reports ungated as
// core.nproc_speedup.
var machineProcs = runtime.GOMAXPROCS(0)

// setupRepeats is how many times the untraced run sets up; setup_s is their
// median, so the first set-up of a cold process, one cold page cache or one
// collector cycle does not decide it.
const setupRepeats = 9

// runUntraced yields the end-to-end metrics: no registry, no tracer, no spans.
func runUntraced(c *runConfig) (*ledger, attempts, error) {
	repeats := setupRepeats
	if c.short {
		repeats = 1
	}
	var (
		r      runner
		setups []float64
	)
	host := startHostClock()
	defer host.close()
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // every set-up starts from a collected heap, not from wherever the last one left the collector
		r = c.workload.New(c)
		start := time.Now()
		if err := r.setup(false); err != nil {
			r.close()
			return nil, attempts{}, fmt.Errorf("set-up: %w", err)
		}
		end := time.Now()
		host.mark()
		setups = append(setups, end.Sub(start).Seconds()*host.given(start, end))
	}
	defer r.close()
	if err := r.oracle(false); err != nil {
		return nil, attempts{}, err
	}
	fmt.Println(r.describe())
	debug.FreeOSMemory() // return what generation and the oracle used before the mark restarts
	if err := resetPeakRSS(); err != nil {
		return nil, attempts{}, fmt.Errorf("peak_rss_mb needs a resettable VmHWM: %w", err)
	}
	c.units.Store(0)
	m, err := r.measure(c.seconds)
	if err != nil {
		return nil, attempts{}, err
	}
	peak, err := c.peakMB, c.peakErr
	if c.units.Load() < int64(c.workload.PeakUnits) { // a short window: the mark at its end
		peak, err = peakRSSMB()
	}
	if err != nil {
		return nil, attempts{}, err
	}
	// Every time below is the process's own: wall less what the hypervisor took
	// (hostclock.go). Without steal the factors are exactly 1.
	host.mark()
	own := make([]float64, len(m.iterMs))
	for i, at := range m.iterAt {
		own[i] = m.iterMs[i] * host.given(at.from, at.to)
	}
	wall := m.wall.Seconds() * host.given(m.window.from, m.window.to)
	l := newLedger(endToEnd)
	l.set("setup_s", median(setups), len(setups))
	l.set("iter_ms_p50", median(own), len(own))
	l.set("gflops", 2*float64(r.nnz())*float64(m.iters)/wall/1e9, len(m.iterMs))
	l.set("peak_rss_mb", peak, 0)
	return l, m.attempts, nil
}

// Shares of --seconds the traced run gives its three windows; the rest of its
// time goes to probes, whose length does not depend on --seconds.
const (
	untracedShare = 0.25
	wideShare     = 0.15
	tracedShare   = 0.5
)

// runTraced yields the per-layer metrics. Before the traced window it measures
// two short untraced ones on a system of their own — one at the workload's
// GOMAXPROCS, one at the machine's width — so that the tracing overhead and the
// gain from the second core are ratios of windows of one process. The traced
// window runs at the workload's GOMAXPROCS, or at the machine's width where the
// workload says so (workloadSpec.TracedWide).
func runTraced(c *runConfig) (*ledger, attempts, error) {
	var att attempts
	plain := c.workload.New(c)
	err := plain.setup(false)
	if err == nil {
		err = plain.oracle(false)
	}
	var base, wide *measurement
	if err == nil {
		base, err = plain.measure(c.seconds * untracedShare)
	}
	if err == nil {
		runtime.GOMAXPROCS(machineProcs)
		wide, err = plain.measure(c.seconds * wideShare)
		runtime.GOMAXPROCS(c.procs())
	}
	plain.close()
	if err != nil {
		return nil, att, fmt.Errorf("untraced windows: %w", err)
	}
	att.add(base.attempts)
	att.add(wide.attempts)

	untraced := base // the window the traced one is compared with
	if c.workload.TracedWide {
		runtime.GOMAXPROCS(machineProcs)
		untraced = wide
	}
	c.rec = newRecorder()
	r := c.workload.New(c)
	defer r.close()
	if err := r.setup(true); err != nil {
		return nil, att, fmt.Errorf("set-up: %w", err)
	}
	if err := r.oracle(true); err != nil {
		return nil, att, err
	}
	fmt.Println(r.describe())
	countsBefore, memBefore := r.registry().Totals(), readMem()
	m, err := r.measure(c.seconds * tracedShare)
	if err != nil {
		return nil, att, err
	}
	m.mem = memGrowth(memBefore, readMem())
	m.counts = counterGrowth(countsBefore, r.registry().Totals())
	att.add(m.attempts)

	l := newLedger(perLayer)
	iters := float64(m.iters)
	level, tail := tailPercentile(m.iterMs)
	l.setNote("core.iter_ms_tail", tail, len(m.iterMs), fmt.Sprintf("p%g", level))
	l.set("core.trace_overhead_ratio", ratio(median(m.iterMs), median(untraced.iterMs))-1, len(m.iterMs))
	l.set("core.nproc_speedup", ratio(median(base.iterMs), median(wide.iterMs)), len(wide.iterMs))
	l.set("core.allocs_per_iter", ratio(m.mem.mallocs, iters), 0)
	l.set("core.alloc_bytes_per_iter", ratio(m.mem.bytes, iters), 0)
	l.set("core.gc_pause_ms", m.mem.pauseMs, 0)
	spans := c.rec.snapshot()
	for layer, self := range layerSelf(spans, 0) {
		l.set(layer+".span_self_ms_per_iter", ratio(float64(self)/1e6, iters), 0)
	}
	runtime.GOMAXPROCS(machineProcs) // probes of parallel kernels run at the machine's width
	if err := r.layers(l, m); err != nil {
		return nil, att, err
	}
	if c.traceOut != "" {
		if err := writeChromeTrace(c.traceOut, spans); err != nil {
			return nil, att, err
		}
	}
	return l, att, nil
}

// window times a measured window: next admits units until the deadline, and at
// least minUnits of them, so a slow machine still yields a median.
type window struct {
	start    time.Time
	length   time.Duration
	minUnits int
	units    int
}

func newWindow(seconds float64, minUnits int) *window {
	return &window{start: time.Now(), length: time.Duration(seconds * float64(time.Second)), minUnits: minUnits}
}

func (w *window) next() bool {
	if w.units >= w.minUnits && time.Since(w.start) >= w.length {
		return false
	}
	w.units++
	return true
}
