package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dooc/internal/dag"
	"dooc/internal/obs"
	"dooc/internal/scheduler"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// ExecContext is what a computing filter receives for one task. A worker
// reuses one context (and its scratch buffers) across every task it runs, so
// steady-state execution does not allocate per task.
type ExecContext struct {
	Node  int
	Store *storage.Store
	Task  *dag.Task

	valid   *validMemo
	scratch execScratch

	// The read lease under the view Matrix handed out, the view itself, and
	// the scratch the sections that cannot alias the lease live in — the
	// worker's for as long as it runs, the system's between runs
	// (System.takeScratch). Held from Matrix until the executor returns.
	matLease *storage.Lease
	mat      *sparse.CSR
	view     *sparse.ViewScratch
	copied   *obs.Counter // dooc_kernel_view_copied_bytes_total

	mu     sync.Mutex
	leases []*storage.Lease
}

// execScratch holds one worker's reusable buffers. Executors that cannot
// write straight into a lease view (big-endian hosts, the doocdebug build)
// stage results here instead of allocating — in two slots, for a task with
// two outputs.
type execScratch struct {
	vec  [2][]float64
	seen map[string]bool
}

// ScratchFloats returns a reusable []float64 of length n with unspecified
// contents. At most one scratch vector is live per task; a second call
// invalidates the first.
func (c *ExecContext) ScratchFloats(n int) []float64 { return c.scratchFloats(0, n) }

// scratchFloats is ScratchFloats of slot 0 or 1; the two never alias.
func (c *ExecContext) scratchFloats(slot, n int) []float64 {
	if cap(c.scratch.vec[slot]) < n {
		c.scratch.vec[slot] = make([]float64, n)
	}
	return c.scratch.vec[slot][:n]
}

// ScratchSeen returns an empty reusable string-set.
func (c *ExecContext) ScratchSeen() map[string]bool {
	if c.scratch.seen == nil {
		c.scratch.seen = make(map[string]bool, 8)
	}
	clear(c.scratch.seen)
	return c.scratch.seen
}

// reset points the context at a new task, keeping scratch and lease-slice
// capacity.
func (c *ExecContext) reset(t *dag.Task) {
	c.Task = t
	c.mu.Lock()
	c.leases = c.leases[:0]
	c.mu.Unlock()
}

// Matrix returns the CRS block stored in `array`, valid until the executor
// returns. Nothing is decoded and nothing is kept: the block's read lease
// stays held until the executor returns and the matrix is a view whose
// sections alias the leased bytes (sparse.ViewCRSBytes), so the kernel runs
// on the one copy of the block the storage budget accounts for. A view of a
// DOOCCRS2 block carries its columns the way the block does, as in-row gaps
// (sparse.CSR.RowFirst) with ColIdx nil: Pool.MulVec and sparse.MulVecRows
// multiply out of them, an executor that wants the indices themselves asks
// CSR.Columns. The CRC is checked once per residency of the block on this
// node — here, unless the I/O filter that read the block checked it
// (verifyInIOFilter) — and the structural walk once per block content
// (validMemo). A block that fails either names its array and wraps
// compress.ErrCorrupt. Executors must not keep the matrix, or anything
// sliced from it, past their return.
func (c *ExecContext) Matrix(array string) (*sparse.CSR, error) {
	lease, err := c.Store.RequestBlock(array, 0, storage.PermRead)
	if err != nil {
		return nil, err
	}
	if c.matLease != nil {
		// The scratch backs one view: a second Matrix call in one task gets
		// an owning copy, and the first view stays whole.
		defer lease.Release()
		return sparse.DecodeCRSBytes(lease.Data)
	}
	known := c.valid.get(c.Node, array)
	m, crc, err := sparse.ViewCRSBytes(lease.Data, c.view, func(crc uint32) sparse.Trust {
		return known.trust(lease.Gen, crc, lease.Verified && lease.CRC == crc)
	})
	if err != nil {
		lease.Release()
		return nil, fmt.Errorf("core: matrix %q: %w", array, err)
	}
	c.copied.Add(c.view.CopiedBytes())
	if known.gen != lease.Gen {
		c.valid.put(c.Node, array, validRec{gen: lease.Gen, crc: crc})
	}
	c.matLease, c.mat = lease, m
	return m, nil
}

// releaseMatrix ends the view Matrix handed out, if any, and returns the
// lease under it. The worker calls it when the executor returns, however it
// returns.
func (c *ExecContext) releaseMatrix() {
	if c.matLease == nil {
		return
	}
	sparse.ReleaseView(c.mat)
	c.matLease.Release()
	c.matLease, c.mat = nil, nil
}

// Request leases an interval through the task's lease tracker. Executors
// should prefer this over ctx.Store.Request: if the executor errors or
// panics before releasing, the engine abandons the lease — read leases are
// returned, unpublished write intervals revert to unwritten — so a
// re-execution of the task can acquire them again.
func (c *ExecContext) Request(array string, lo, hi int64, perm storage.Perm) (*storage.Lease, error) {
	l, err := c.Store.Request(array, lo, hi, perm)
	if err != nil {
		return nil, err
	}
	c.track(l)
	return l, nil
}

// RequestBlock is the tracked variant of ctx.Store.RequestBlock.
func (c *ExecContext) RequestBlock(array string, block int, perm storage.Perm) (*storage.Lease, error) {
	l, err := c.Store.RequestBlock(array, block, perm)
	if err != nil {
		return nil, err
	}
	c.track(l)
	return l, nil
}

func (c *ExecContext) track(l *storage.Lease) {
	c.mu.Lock()
	c.leases = append(c.leases, l)
	c.mu.Unlock()
}

// reclaim abandons every tracked lease the executor left unreleased
// (Abandon is a no-op on released leases).
func (c *ExecContext) reclaim() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, l := range c.leases {
		l.Abandon()
		c.leases[i] = nil
	}
	c.leases = c.leases[:0]
}

// Executor runs one task kind. Implementations lease the task's inputs for
// reading and its outputs for writing through ctx.Store.
type Executor func(ctx *ExecContext) error

// ErrCancelled aborts a run whose RunSpec.Cancel channel closed. Tasks
// already executing finish (and publish) normally; no new task starts. The
// job layer matches it with errors.Is to distinguish a cancelled run from a
// failed one.
var ErrCancelled = errors.New("core: run cancelled")

// RunSpec describes one engine invocation.
type RunSpec struct {
	// Tasks is the task program; the DAG is derived from it.
	Tasks []*dag.Task
	// Executors maps task Kind to its implementation.
	Executors map[string]Executor
	// Locate tells the global scheduler where a datum initially lives.
	// nil data-locality information degrades placement to load balancing.
	Locate func(dag.Ref) (int, bool)
	// Assignment, when non-nil, bypasses the global scheduler (used by
	// ablations to force placements).
	Assignment map[string]int
	// Ephemeral lists arrays that should be deleted as soon as their last
	// consumer task completes (dead intermediate generations). This is the
	// memory-management dividend of immutable versioned arrays.
	Ephemeral map[string]bool
	// Cancel, when non-nil, aborts the run when closed: workers stop picking
	// tasks, in-flight executors finish (their leases are released or
	// abandoned on the usual paths), and Run returns ErrCancelled. A task is
	// only ever started with all its inputs published, so cancellation at
	// task granularity cannot strand a reader on an unwritten interval.
	Cancel <-chan struct{}
	// Span, when valid, is the causal parent for this run: task spans are
	// annotated with trace/span/parent IDs and rolled up into per-iteration
	// spans via IterOf. Zero keeps tracing exactly as cheap as before.
	Span obs.SpanContext
	// IterOf maps a task ID to its iteration index; tasks it recognizes
	// parent under a per-iteration span instead of directly under Span.
	IterOf func(taskID string) (int, bool)
}

// Run executes the program to completion and returns statistics.
func (s *System) Run(spec RunSpec) (*RunStats, error) {
	g, err := dag.Build(spec.Tasks)
	if err != nil {
		return nil, err
	}
	for _, t := range spec.Tasks {
		if _, ok := spec.Executors[t.Kind]; !ok {
			return nil, fmt.Errorf("core: no executor for task kind %q (task %s)", t.Kind, t.ID)
		}
	}
	assign := spec.Assignment
	if assign == nil {
		locate := spec.Locate
		if locate == nil {
			locate = func(dag.Ref) (int, bool) { return 0, false }
		}
		assign = scheduler.Affinity(spec.Tasks, s.opts.Nodes, locate)
	}
	for _, t := range spec.Tasks {
		n, ok := assign[t.ID]
		if !ok || n < 0 || n >= s.opts.Nodes {
			return nil, fmt.Errorf("core: task %q assigned to invalid node %d", t.ID, n)
		}
	}

	// Remaining-consumer counts for ephemeral array reclamation.
	consumers := make(map[string]int)
	for _, t := range spec.Tasks {
		seen := map[string]bool{}
		for _, in := range t.Inputs {
			if !seen[in.Array] {
				seen[in.Array] = true
				consumers[in.Array]++
			}
		}
	}

	run := &engineRun{
		sys:       s,
		graph:     g,
		assign:    assign,
		spec:      spec,
		consumers: consumers,
		dead:      make(map[int]bool),
		retries:   make(map[string]int),
		queuedAt:  make(map[string]time.Time),
		policies:  make([]*scheduler.Policy, s.opts.Nodes),
		metrics:   newEngineMetrics(s.opts.Obs, s.opts.Nodes),
		trace:     s.opts.Trace,
		stats: &RunStats{
			TasksPerNode:  make([]int, s.opts.Nodes),
			StorageBefore: make([]storage.Stats, s.opts.Nodes),
		},
	}
	for i := range run.policies {
		p := scheduler.NewPolicy()
		p.Reorder = s.opts.Reorder
		node := obs.L("node", fmt.Sprint(i))
		p.Picks = s.opts.Obs.Counter("dooc_sched_picks_total", "local-scheduler task selections", node)
		p.Reorders = s.opts.Obs.Counter("dooc_sched_reorders_total", "picks where the data-aware score overrode FIFO order", node)
		p.PrefetchRefs = s.opts.Obs.Counter("dooc_sched_prefetch_refs_total", "data refs handed to the prefetcher", node)
		run.policies[i] = p
	}
	run.cond = sync.NewCond(&run.mu)
	if run.trace.Enabled() {
		// Stable track names: one process track per node, named worker lanes.
		for i := 0; i < s.opts.Nodes; i++ {
			run.trace.SetProcessName(i, fmt.Sprintf("node%d", i))
			for w := 0; w < s.opts.WorkersPerNode; w++ {
				run.trace.SetThreadName(i, w, fmt.Sprintf("worker%d", w))
			}
		}
		if spec.Span.Valid() {
			run.trace.SetProcessName(obs.PidEngine, "engine")
			run.iterSpans = make(map[int]obs.SpanID)
			run.iterStart = make(map[int]time.Time)
			run.iterEnd = make(map[int]time.Time)
		}
	}
	for i, st := range s.stores {
		run.stats.StorageBefore[i] = st.Stats()
	}

	// Register with the failure registry and apply nodes that died before
	// this run started.
	s.runMu.Lock()
	s.runs[run] = struct{}{}
	preFailed := make([]int, 0, len(s.failedNodes))
	for n := range s.failedNodes {
		preFailed = append(preFailed, n)
	}
	s.runMu.Unlock()
	run.mu.Lock()
	for _, n := range preFailed {
		run.failNode(n)
	}
	run.mu.Unlock()

	// Cancellation watcher: the first close of spec.Cancel flips the run to
	// aborted exactly like a terminal task failure would.
	watcherDone := make(chan struct{})
	if spec.Cancel != nil {
		go func() {
			select {
			case <-spec.Cancel:
				run.mu.Lock()
				if !run.aborted {
					run.aborted = true
					run.errs = append(run.errs, ErrCancelled)
				}
				run.mu.Unlock()
				run.cond.Broadcast()
			case <-watcherDone:
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for node := 0; node < s.opts.Nodes; node++ {
		for w := 0; w < s.opts.WorkersPerNode; w++ {
			wg.Add(1)
			go func(node, lane int) {
				defer wg.Done()
				run.worker(node, lane)
			}(node, w)
		}
	}
	wg.Wait()
	close(watcherDone)
	s.runMu.Lock()
	delete(s.runs, run)
	s.runMu.Unlock()
	// Per-iteration rollup spans: one span per iteration covering its
	// observed task envelope, parented under the run's causal span. Emitted
	// after the workers join, so no hot-path synchronization is added.
	if run.trace.Enabled() && spec.Span.Valid() {
		for it, sp := range run.iterSpans {
			run.trace.SpanCtx(fmt.Sprintf("iter %d", it), "engine", obs.PidEngine, 0,
				run.iterStart[it], run.iterEnd[it],
				obs.SpanContext{Trace: spec.Span.Trace, Span: sp}, spec.Span.Span,
				map[string]any{"iter": it})
		}
	}
	run.stats.Wall = time.Since(start)
	run.stats.StorageAfter = make([]storage.Stats, s.opts.Nodes)
	for i, st := range s.stores {
		run.stats.StorageAfter[i] = st.Stats()
	}
	// Safety net: a run must never report success with an incomplete graph
	// (e.g. every surviving worker exited because all remaining tasks were
	// pinned to dead nodes — impossible after reassignment, but cheap to
	// assert).
	if len(run.errs) == 0 && !run.graph.Done() {
		run.errs = append(run.errs, fmt.Errorf("core: run stalled with incomplete task graph"))
	}
	if len(run.errs) > 0 {
		return run.stats, errors.Join(run.errs...)
	}
	return run.stats, nil
}

// engineRun is the shared state of one Run invocation.
type engineRun struct {
	sys    *System
	graph  *dag.Graph
	assign map[string]int
	spec   RunSpec

	mu        sync.Mutex
	cond      *sync.Cond
	errs      []error
	aborted   bool
	consumers map[string]int
	dead      map[int]bool   // nodes that failed during (or before) the run
	retries   map[string]int // per-task re-executions charged to the budget
	// queuedAt stamps when a task first appeared in a ready set, for the
	// queued→running span in the trace.
	queuedAt map[string]time.Time
	// Per-iteration span rollup (guarded by mu; populated only when the run
	// carries a valid Span and tracing is on): span IDs minted on first use
	// and the iteration's observed wall-clock envelope.
	iterSpans map[int]obs.SpanID
	iterStart map[int]time.Time
	iterEnd   map[int]time.Time
	// readyFor/retireInputs scratch, guarded by mu.
	readyIDs   []string
	readyTasks []*dag.Task
	retireSeen map[string]bool

	policies []*scheduler.Policy
	metrics  engineMetrics
	trace    *obs.Tracer
	stats    *RunStats
}

// engineMetrics are the engine's series in the shared obs registry. With a
// nil registry every field is nil and every operation a no-op.
type engineMetrics struct {
	tasksDone  []*obs.Counter // per node
	retries    *obs.Counter
	nodeDeaths *obs.Counter
	queueWait  *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry, nodes int) engineMetrics {
	m := engineMetrics{
		retries:    reg.Counter("dooc_engine_task_retries_total", "task re-executions after executor failures"),
		nodeDeaths: reg.Counter("dooc_engine_node_deaths_total", "compute nodes marked dead during runs"),
		queueWait:  reg.Histogram("dooc_engine_queue_wait_seconds", "time from task ready to task start", nil),
		tasksDone:  make([]*obs.Counter, nodes),
	}
	for i := range m.tasksDone {
		m.tasksDone[i] = reg.Counter("dooc_engine_tasks_completed_total", "tasks completed", obs.L("node", fmt.Sprint(i)))
	}
	return m
}

// taskParent resolves the causal parent of one task span: the task's
// per-iteration span when IterOf recognizes it (minted on first use, its
// time envelope widened to cover this task), the run's span otherwise. Only
// called with tracing on and a valid run span.
func (r *engineRun) taskParent(taskID string, start, end time.Time) obs.SpanID {
	if r.spec.IterOf == nil {
		return r.spec.Span.Span
	}
	it, ok := r.spec.IterOf(taskID)
	if !ok {
		return r.spec.Span.Span
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, ok := r.iterSpans[it]
	if !ok {
		sp = obs.NewSpanID()
		r.iterSpans[it] = sp
		r.iterStart[it] = start
		r.iterEnd[it] = end
		return sp
	}
	if start.Before(r.iterStart[it]) {
		r.iterStart[it] = start
	}
	if end.After(r.iterEnd[it]) {
		r.iterEnd[it] = end
	}
	return sp
}

// worker is one computing filter: it repeatedly asks the node's local
// scheduler for the best ready task, executes it, and publishes completion.
// lane identifies the worker within its node (the trace's tid).
func (r *engineRun) worker(node, lane int) {
	store := r.sys.stores[node]
	ctx := &ExecContext{
		Node:   node,
		Store:  store,
		valid:  &r.sys.valid,
		view:   r.sys.takeScratch(),
		copied: r.sys.viewCopied,
	}
	defer r.sys.putScratch(ctx.view)
	var deadScratch []string
	// A pick's question to the store: the candidates' heavy blocks, answered.
	var refs []storage.BlockRef
	var answers []bool
	for {
		r.mu.Lock()
		var task *dag.Task
		for {
			if r.aborted || r.graph.Done() || r.dead[node] {
				r.mu.Unlock()
				r.cond.Broadcast()
				return
			}
			mine := r.readyFor(node)
			if len(mine) > 0 {
				// One question to the store about the candidates' heavy
				// inputs; Pick and PrefetchTargets read the answers.
				refs = refs[:0]
				for _, t := range mine {
					for _, ref := range t.HeavyInputs() {
						refs = append(refs, storage.BlockRef{Array: ref.Array, Block: blockOrZero(ref)})
					}
				}
				answers = store.Resident(refs, answers)
				resident := func(ref dag.Ref) bool {
					i := slices.Index(refs, storage.BlockRef{Array: ref.Array, Block: blockOrZero(ref)})
					return i >= 0 && answers[i]
				}
				task = r.policies[node].Pick(mine, resident)
				// Keep the prefetch window full with the runner-up tasks'
				// heavy data.
				if w := r.sys.opts.PrefetchWindow; w > 0 {
					for _, ref := range r.policies[node].PrefetchTargets(mine, resident, w) {
						store.PrefetchBlock(ref.Array, blockOrZero(ref))
					}
				}
				break
			}
			r.cond.Wait()
		}
		r.graph.Start(task.ID)
		r.policies[node].Touch(task.HeavyInputs())
		queued, hasQueued := r.queuedAt[task.ID]
		delete(r.queuedAt, task.ID)
		r.mu.Unlock()

		ev := Event{Node: node, Task: task.ID, Kind: task.Kind, Start: time.Now()}
		if hasQueued {
			r.metrics.queueWait.Observe(ev.Start.Sub(queued).Seconds())
			if r.trace.Enabled() {
				r.trace.Span(task.ID, "queued", node, lane, queued, ev.Start, map[string]any{"kind": task.Kind})
			}
		}
		ctx.reset(task)
		err := executeTask(r.spec.Executors[task.Kind], ctx)
		ctx.releaseMatrix()
		ev.End = time.Now()
		if r.trace.Enabled() {
			args := map[string]any{"kind": task.Kind, "ok": err == nil}
			if r.spec.Span.Valid() {
				r.trace.SpanCtx(task.ID, task.Kind, node, lane, ev.Start, ev.End,
					obs.SpanContext{Trace: r.spec.Span.Trace, Span: obs.NewSpanID()},
					r.taskParent(task.ID, ev.Start, ev.End), args)
			} else {
				r.trace.Span(task.ID, task.Kind, node, lane, ev.Start, ev.End, args)
			}
		}

		r.mu.Lock()
		r.stats.Events = append(r.stats.Events, ev)
		r.stats.TasksPerNode[node]++
		if err != nil {
			// Return the task's unreleased leases before re-execution:
			// abandoned write intervals revert to unwritten so the retry can
			// publish them itself.
			r.mu.Unlock()
			ctx.reclaim()
			r.trace.Instant("retry:"+task.ID, "engine", node, lane, time.Now(),
				map[string]any{"error": err.Error()})
			r.mu.Lock()
			r.recoverTask(node, task, err)
			r.mu.Unlock()
			r.cond.Broadcast()
			continue
		}
		r.graph.Complete(task.ID)
		r.metrics.tasksDone[node].Inc()
		dead := r.retireInputs(task, deadScratch[:0])
		deadScratch = dead[:0]
		r.mu.Unlock()
		r.cond.Broadcast()

		// Reclaim dead ephemeral arrays outside the lock.
		for _, name := range dead {
			r.sys.invalidateDecoded(name)
			// Deletion failures (e.g. a concurrent late reader) are not
			// fatal; the array simply lives a little longer.
			_ = store.Delete(name)
		}
	}
}

// executeTask runs one executor, converting panics into task errors so a
// buggy or fault-tripped computing filter cannot take the whole process
// down — it is recovered, charged to the task's retry budget, and retried
// like any other failure.
func executeTask(exec Executor, ctx *ExecContext) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("executor panic: %v\n%s", p, debug.Stack())
		}
	}()
	return exec(ctx)
}

// recoverTask decides the fate of a failed task execution. Caller holds mu.
func (r *engineRun) recoverTask(node int, task *dag.Task, err error) {
	// The task is still marked running in the graph; always return it to the
	// ready set first so bookkeeping stays consistent on every path.
	r.graph.Requeue(task.ID)
	if r.aborted {
		// Another failure already aborted the run; don't pile on.
		return
	}
	if r.dead[node] {
		// The node died under the task: re-execution on a survivor is the
		// recovery contract, not a task defect — no budget charge. failNode
		// already reassigned the node's incomplete tasks (including this one).
		r.stats.TaskRetries++
		r.metrics.retries.Inc()
		return
	}
	if r.retries[task.ID] < r.sys.opts.TaskRetries {
		r.retries[task.ID]++
		r.stats.TaskRetries++
		r.metrics.retries.Inc()
		return
	}
	r.errs = append(r.errs, fmt.Errorf("core: task %s on node %d (after %d executions): %w",
		task.ID, node, r.retries[task.ID]+1, err))
	r.aborted = true
}

// failNode marks a node dead and moves its incomplete tasks to surviving
// nodes round-robin. Caller holds mu.
func (r *engineRun) failNode(node int) {
	if r.dead[node] {
		return
	}
	r.dead[node] = true
	r.stats.NodesFailed++
	r.metrics.nodeDeaths.Inc()
	r.trace.Instant(fmt.Sprintf("node-death:%d", node), "engine", node, 0, time.Now(), nil)
	var survivors []int
	for n := 0; n < r.sys.opts.Nodes; n++ {
		if !r.dead[n] {
			survivors = append(survivors, n)
		}
	}
	if len(survivors) == 0 {
		if !r.aborted {
			r.errs = append(r.errs, fmt.Errorf("core: no nodes survive; cannot recover"))
			r.aborted = true
		}
		return
	}
	i := 0
	for _, t := range r.graph.Tasks() {
		if r.assign[t.ID] == node && !r.graph.Completed(t.ID) {
			r.assign[t.ID] = survivors[i%len(survivors)]
			i++
		}
	}
}

// readyFor returns this node's ready tasks in DAG order. Caller holds mu.
// The result aliases per-run scratch: it is valid only while mu is held and
// until the next readyFor call (the pick path consumes it immediately).
func (r *engineRun) readyFor(node int) []*dag.Task {
	ids := r.graph.ReadyAppend(r.readyIDs[:0])
	r.readyIDs = ids[:0]
	out := r.readyTasks[:0]
	for _, id := range ids {
		if r.assign[id] == node {
			if _, ok := r.queuedAt[id]; !ok {
				r.queuedAt[id] = time.Now()
			}
			out = append(out, r.graph.Task(id))
		}
	}
	r.readyTasks = out[:0]
	return out
}

// retireInputs decrements consumer counts and appends ephemeral arrays with
// no remaining consumers to dst. Caller holds mu; dst is the caller's own
// scratch (the result outlives the lock).
func (r *engineRun) retireInputs(t *dag.Task, dst []string) []string {
	if r.retireSeen == nil {
		r.retireSeen = make(map[string]bool, 8)
	}
	seen := r.retireSeen
	clear(seen)
	for _, in := range t.Inputs {
		if seen[in.Array] {
			continue
		}
		seen[in.Array] = true
		r.consumers[in.Array]--
		if r.consumers[in.Array] == 0 && r.spec.Ephemeral[in.Array] {
			dst = append(dst, in.Array)
		}
	}
	return dst
}

func blockOrZero(ref dag.Ref) int {
	if ref.Block == dag.Whole || ref.Block < 0 {
		return 0
	}
	return ref.Block
}
