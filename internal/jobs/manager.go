package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/proxy"
)

// Config parameterizes a Manager.
type Config struct {
	// MaxRunning bounds concurrently executing jobs (default 2).
	MaxRunning int
	// QueueDepth bounds jobs waiting across all tenants (default 16);
	// submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// MemoryBudget, when > 0, is the aggregate MemoryBytes the manager
	// admits across queued and running jobs; submissions beyond it fail
	// with ErrQuotaExceeded.
	MemoryBudget int64
	// AgingStep is the queue age that buys one effective priority point,
	// preventing starvation of low-priority tenants (default 1s).
	AgingStep time.Duration
	// TenantWeight scales a tenant's priorities (default 1 per tenant).
	TenantWeight map[string]int
	// Obs receives the manager's metric series (nil disables).
	Obs *obs.Registry
	// Store, when non-nil, makes the manager durable: every lifecycle
	// transition is journaled (fsynced) before it is acknowledged, done
	// results persist as store files, and Recover rebuilds the control
	// plane after a restart.
	Store *jobstore.Store
	// Retire, when non-nil, is called (outside the manager lock) after a
	// job reaches a terminal state — the service's hook for purging the
	// job's scratch artifacts. It receives the final state so resumable
	// residue (checkpoints of a job failed by shutdown) can be kept.
	Retire func(id int64, final State)
	// Trace receives lifecycle spans for every job (nil disables). Spans
	// carry the job's causal identity, so a client trace and this tracer's
	// output compose into one tree under obs.ValidateCausal.
	Trace *obs.Tracer
	// SLO, when non-nil, observes each terminal job's queue-wait, run, and
	// end-to-end latency against the configured objectives.
	SLO *SLOTracker
	// FlightEvents bounds each job's flight-recorder ring
	// (obs.DefaultFlightEvents when 0). The ring snapshot is journaled with
	// every record, so the bound also caps journal-entry growth.
	FlightEvents int
	// Proxy, when non-nil, is the pass-by-reference result plane: the
	// solver service registers each done job's iterate as a refcounted
	// handle instead of eagerly deleting its arrays, and retirement routes
	// through the registry's refcounts.
	Proxy *proxy.Registry
	// ProxyFetch, when non-nil, materializes a foreign-scope proxy from its
	// origin node over the cluster tier (owner-forwarded fetch) — how a
	// chained job consumes an input produced on another peer without the
	// bytes crossing a client link.
	ProxyFetch func(scope, name string, epoch uint64) ([]byte, error)
}

func (c *Config) fill() {
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.AgingStep <= 0 {
		c.AgingStep = time.Second
	}
}

// Job is the manager's record of one submission. Exported fields are
// immutable after Submit; mutable state is guarded by the manager's lock
// and read through Status.
type Job struct {
	ID           int64
	Key          string
	Tenant       string
	Priority     int
	MemoryBytes  int64
	ScratchBytes int64

	work    Work
	payload []byte
	cancel  chan struct{}
	done    chan struct{}

	// guarded by Manager.mu
	state             State
	submitted         time.Time
	started, finished time.Time
	queueWait         time.Duration
	cancelRequested   bool
	// result is a done job's payload when the manager has no store — its
	// only copy. Under a store it stays nil: the result file is the durable
	// copy, and the proxy handle, if any, holds the in-memory one until its
	// last release.
	result      []byte
	err         error
	resumed     int
	resultFile  string
	resultSHA   string
	proxyHandle proxy.Handle

	// trace is the job's root span context (the anchor every lifecycle and
	// engine span parents under); parentSpan links it to the submitting
	// client's span, when one travelled with the request. runSpan is the
	// running-phase span, handed to the engine as the parent of its
	// per-iteration spans. flight is the job's bounded event ring.
	trace      obs.SpanContext
	parentSpan obs.SpanID
	runSpan    obs.SpanID
	flight     *obs.FlightRecorder
}

// Manager owns job lifecycle: admission, per-tenant FIFO queues under
// weighted priorities with aging, a bounded run pool, cancellation, and
// result retrieval. Dispatch is event-driven — every submit, completion,
// and cancellation re-evaluates the queues; no timers are involved.
//
// With Config.Store set the lifecycle is durable: the queued record is
// journaled before Submit returns, terminal records before the job is
// published as finished, and Recover replays the journal into a manager
// that picks up exactly where the crashed one stopped.
type Manager struct {
	cfg Config
	m   managerMetrics

	// retain bounds the terminal jobs the manager remembers: the store's
	// retention, or jobstore.DefaultRetainHistory without a store.
	retain int

	mu       sync.Mutex
	idle     *sync.Cond // broadcast when no job is queued or running
	seq      int64
	jobs     map[int64]*Job
	byKey    map[string]*Job   // idempotency-key index
	history  []int64           // IDs of the terminal jobs in jobs, ascending
	queues   map[string][]*Job // per-tenant FIFO of queued jobs
	queued   int
	running  int
	memInUse int64
	draining bool
}

// NewManager builds a manager; zero config fields take defaults.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:    cfg,
		m:      newManagerMetrics(cfg.Obs),
		retain: jobstore.DefaultRetainHistory,
		jobs:   make(map[int64]*Job),
		byKey:  make(map[string]*Job),
		queues: make(map[string][]*Job),
	}
	if cfg.Store != nil {
		m.retain = cfg.Store.RetainHistory()
	}
	m.idle = sync.NewCond(&m.mu)
	if cfg.Trace.Enabled() {
		cfg.Trace.SetProcessName(obs.PidJobs, "jobs.Manager")
	}
	return m
}

// Store exposes the durable backing store (nil when the manager is
// in-memory only).
func (m *Manager) Store() *jobstore.Store { return m.cfg.Store }

// Submit admits a job or rejects it immediately with ErrDraining,
// ErrQueueFull, or ErrQuotaExceeded — it never blocks. The returned Job's
// ID is stable; its progress is read via Status/Result.
//
// A keyed request that matches an existing job (queued, running, or
// terminal) returns that job without enqueuing: duplicate submits across
// client retries and reconnects are exactly-once. With a durable store the
// queued record is fsynced before Submit returns; a submission that cannot
// be journaled is not admitted.
func (m *Manager) Submit(req Request, work Work) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.Key != "" {
		if j, ok := m.byKey[req.Key]; ok {
			m.m.dedupedC.Inc()
			return j, nil
		}
	}
	if m.draining {
		m.m.rejected("draining").Inc()
		return nil, ErrDraining
	}
	if m.queued >= m.cfg.QueueDepth {
		m.m.rejected("queue_full").Inc()
		return nil, fmt.Errorf("%w: depth %d", ErrQueueFull, m.cfg.QueueDepth)
	}
	if m.cfg.MemoryBudget > 0 && m.memInUse+req.MemoryBytes > m.cfg.MemoryBudget {
		m.m.rejected("memory_quota").Inc()
		return nil, fmt.Errorf("%w: %d in use + %d requested > budget %d",
			ErrQuotaExceeded, m.memInUse, req.MemoryBytes, m.cfg.MemoryBudget)
	}
	m.seq++
	j := &Job{
		ID:           m.seq,
		Key:          req.Key,
		Tenant:       req.Tenant,
		Priority:     req.Priority,
		MemoryBytes:  req.MemoryBytes,
		ScratchBytes: req.ScratchBytes,
		work:         work,
		payload:      req.Payload,
		cancel:       make(chan struct{}),
		done:         make(chan struct{}),
		state:        StateQueued,
		submitted:    time.Now(),
	}
	// Causal identity: join the submitter's trace when one travelled with
	// the request, mint a fresh one otherwise. The flight recorder starts
	// with the queued transition so even a job that dies before running
	// leaves an account of itself in the journal.
	if req.Trace.Valid() {
		j.parentSpan = req.Trace.Span
		j.trace = obs.SpanContext{Trace: req.Trace.Trace, Span: obs.NewSpanID()}
	} else {
		j.trace = obs.NewSpanContext()
	}
	j.flight = obs.NewFlightRecorder(m.cfg.FlightEvents)
	j.flight.Record("transition", "queued", j.trace, j.parentSpan, map[string]string{"tenant": j.Tenant})
	// Journal-then-admit: an unjournaled submission must not be
	// acknowledged, or a restart would silently drop a job the client was
	// told is queued.
	if err := m.journalLocked(j); err != nil {
		return nil, fmt.Errorf("jobs: journaling submission: %w", err)
	}
	m.jobs[j.ID] = j
	if j.Key != "" {
		m.byKey[j.Key] = j
	}
	m.queues[j.Tenant] = append(m.queues[j.Tenant], j)
	m.queued++
	m.memInUse += j.MemoryBytes
	m.m.submitted(j.Tenant).Inc()
	m.m.queuedG.Set(int64(m.queued))
	m.dispatchLocked()
	return j, nil
}

// journalLocked appends the job's current record to the durable store
// (no-op without one).
func (m *Manager) journalLocked(j *Job) error {
	if m.cfg.Store == nil {
		return nil
	}
	return m.cfg.Store.Append(m.recordLocked(j))
}

// recordLocked snapshots a job as its durable record.
func (m *Manager) recordLocked(j *Job) jobstore.Record {
	rec := jobstore.Record{
		ID:           j.ID,
		Key:          j.Key,
		Tenant:       j.Tenant,
		Priority:     j.Priority,
		MemoryBytes:  j.MemoryBytes,
		ScratchBytes: j.ScratchBytes,
		Payload:      j.payload,
		State:        j.state.String(),
		SubmittedAt:  j.submitted,
		StartedAt:    j.started,
		FinishedAt:   j.finished,
		ResultFile:   j.resultFile,
		ResultSHA:    j.resultSHA,
		Resumed:      j.resumed,
	}
	if j.trace.Valid() {
		rec.TraceID = j.trace.Trace.String()
		rec.RootSpan = j.trace.Span.String()
	}
	rec.Events = j.flight.Events()
	if j.err != nil {
		rec.Err = j.err.Error()
	}
	return rec
}

func (m *Manager) weight(tenant string) int {
	if w, ok := m.cfg.TenantWeight[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// score ranks a queued job: weighted priority plus queue-age measured in
// AgingSteps, so any job's effective priority eventually dominates and
// starvation is bounded.
func (m *Manager) score(j *Job, now time.Time) float64 {
	return float64(m.weight(j.Tenant)*j.Priority) +
		float64(now.Sub(j.submitted))/float64(m.cfg.AgingStep)
}

// dispatchLocked starts queued jobs while run slots are free. Only tenant
// queue heads compete (per-tenant FIFO); among heads the highest score
// wins, ties to the earliest submission.
func (m *Manager) dispatchLocked() {
	now := time.Now()
	for m.running < m.cfg.MaxRunning && m.queued > 0 {
		var best *Job
		var bestScore float64
		for _, q := range m.queues {
			if len(q) == 0 {
				continue
			}
			h := q[0]
			sc := m.score(h, now)
			if best == nil || sc > bestScore || (sc == bestScore && h.ID < best.ID) {
				best, bestScore = h, sc
			}
		}
		if best == nil {
			return
		}
		q := m.queues[best.Tenant]
		m.queues[best.Tenant] = q[1:]
		if len(q) == 1 {
			delete(m.queues, best.Tenant)
		}
		m.queued--
		m.running++
		best.state = StateAdmitted
		best.queueWait = now.Sub(best.submitted)
		best.flight.Record("transition", "admitted", best.trace.Child(), best.trace.Span, nil)
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.SetThreadName(obs.PidJobs, int(best.ID), fmt.Sprintf("job%d", best.ID))
			m.cfg.Trace.SpanCtx(fmt.Sprintf("job%d queued", best.ID), "jobs", obs.PidJobs, int(best.ID),
				best.submitted, now, best.trace.Child(), best.trace.Span,
				map[string]any{"tenant": best.Tenant})
		}
		// Best-effort journal: if the admitted record is lost, replay
		// re-queues the job from its queued record — same outcome, repeated
		// queue wait.
		m.journalLocked(best)
		m.m.queueWait.Observe(best.queueWait.Seconds())
		m.m.queuedG.Set(int64(m.queued))
		m.m.runningG.Set(int64(m.running))
		go m.run(best)
	}
}

func (m *Manager) run(j *Job) {
	m.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	// The running span is the causal parent the engine hangs its
	// per-iteration spans under; the service reads it via RunSpanContext.
	j.runSpan = obs.NewSpanID()
	j.flight.Record("transition", "running", obs.SpanContext{Trace: j.trace.Trace, Span: j.runSpan}, j.trace.Span, nil)
	// Best-effort: a lost running record replays as admitted and re-runs.
	m.journalLocked(j)
	m.mu.Unlock()

	result, err := j.work(j.ID, j.cancel)

	// Persist the result before taking the lock: the job is still
	// StateRunning, so its fields are stable, and a multi-MB write + fsync
	// must not serialize Submit/Status/List/Cancel behind disk I/O.
	var resultFile, resultSHA string
	var saveErr error
	if err == nil && m.cfg.Store != nil {
		resultFile, resultSHA, saveErr = m.cfg.Store.SaveResult(j.ID, result)
	}

	m.mu.Lock()
	j.finished = time.Now()
	j.err = err
	if m.cfg.Store == nil {
		j.result = result
	}
	switch {
	case err == nil:
		// A completion that raced a cancel request still counts as done:
		// the result is valid.
		j.state = StateDone
	case j.cancelRequested:
		j.state = StateCancelled
		j.err = fmt.Errorf("%w: %v", ErrCancelled, err)
	default:
		j.state = StateFailed
	}
	if j.state == StateDone && m.cfg.Store != nil {
		if saveErr == nil {
			j.resultFile, j.resultSHA = resultFile, resultSHA
		} else {
			j.state = StateFailed
			j.err = fmt.Errorf("jobs: persisting result: %w", saveErr)
		}
	}
	terminalAttrs := map[string]string{}
	if j.err != nil {
		terminalAttrs["error"] = j.err.Error()
	}
	j.flight.Record("transition", j.state.String(), j.trace.Child(), j.trace.Span, terminalAttrs)
	// The terminal journal is strict for done: an unjournaled completion
	// would be re-run by replay while the client saw success. Flip it to
	// failed (recoverable: the job re-runs from its checkpoints) and record
	// that best-effort.
	if jerr := m.journalLocked(j); jerr != nil && j.state == StateDone {
		j.state = StateFailed
		j.err = fmt.Errorf("jobs: journaling completion: %w", jerr)
		j.flight.Record("transition", j.state.String(), j.trace.Child(), j.trace.Span,
			map[string]string{"error": j.err.Error()})
		m.journalLocked(j)
	}
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.SpanCtx(fmt.Sprintf("job%d run", j.ID), "jobs", obs.PidJobs, int(j.ID),
			j.started, j.finished, obs.SpanContext{Trace: j.trace.Trace, Span: j.runSpan}, j.trace.Span,
			map[string]any{"state": j.state.String()})
		m.cfg.Trace.SpanCtx(fmt.Sprintf("job%d", j.ID), "jobs", obs.PidJobs, int(j.ID),
			j.submitted, j.finished, j.trace, j.parentSpan,
			map[string]any{"tenant": j.Tenant, "state": j.state.String()})
	}
	final := j.state
	m.finishLocked(j)
	m.mu.Unlock()
	if m.cfg.Retire != nil {
		m.cfg.Retire(j.ID, final)
	}
}

// finishLocked retires a job that reached a terminal state: releases its
// admission accounting, publishes done, and refills run slots.
func (m *Manager) finishLocked(j *Job) {
	m.running--
	m.memInUse -= j.MemoryBytes
	m.m.completed(j.state).Inc()
	m.m.latency(j.Tenant).Observe(j.finished.Sub(j.submitted).Seconds())
	m.m.runningG.Set(int64(m.running))
	m.observeSLOLocked(j)
	close(j.done)
	m.rememberLocked(j)
	m.dispatchLocked()
	if m.queued == 0 && m.running == 0 {
		m.idle.Broadcast()
	}
}

// observeSLOLocked feeds a terminal job's latencies to the SLO tracker. A
// job cancelled before admission has no run latency; its whole life was
// queue wait.
func (m *Manager) observeSLOLocked(j *Job) {
	if m.cfg.SLO == nil {
		return
	}
	e2e := j.finished.Sub(j.submitted)
	ran := !j.started.IsZero()
	qw := j.queueWait
	var run time.Duration
	if ran {
		run = j.finished.Sub(j.started)
	} else {
		qw = e2e
	}
	m.cfg.SLO.Observe(j.Tenant, qw, run, e2e, ran)
}

// rememberLocked enters a job that just reached a terminal state into the
// history and forgets the oldest terminal jobs beyond the retention bound —
// the rule the store's compaction applies on disk, so a live process and a
// restarted one answer Status and History alike.
func (m *Manager) rememberLocked(j *Job) {
	i := sort.Search(len(m.history), func(i int) bool { return m.history[i] >= j.ID })
	m.history = append(m.history, 0)
	copy(m.history[i+1:], m.history[i:])
	m.history[i] = j.ID
	for len(m.history) > m.retain {
		old := m.jobs[m.history[0]]
		m.history = m.history[1:]
		delete(m.jobs, old.ID)
		if old.Key != "" && m.byKey[old.Key] == old {
			delete(m.byKey, old.Key)
		}
	}
}

// Cancel requests cancellation. A queued job is removed immediately; a
// running job's cancel channel closes and the engine retires its tasks.
// Cancelling a finished job is a no-op.
func (m *Manager) Cancel(id int64) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	retired := false
	switch j.state {
	case StateQueued:
		q := m.queues[j.Tenant]
		for i, qj := range q {
			if qj == j {
				m.queues[j.Tenant] = append(q[:i], q[i+1:]...)
				break
			}
		}
		if len(m.queues[j.Tenant]) == 0 {
			delete(m.queues, j.Tenant)
		}
		m.queued--
		m.memInUse -= j.MemoryBytes
		j.state = StateCancelled
		j.err = ErrCancelled
		j.finished = time.Now()
		j.flight.Record("transition", "cancelled", j.trace.Child(), j.trace.Span,
			map[string]string{"while": "queued"})
		// Best-effort: replay of a lost cancelled record re-queues the job;
		// the client's next Status shows it and can cancel again.
		m.journalLocked(j)
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.SpanCtx(fmt.Sprintf("job%d", j.ID), "jobs", obs.PidJobs, int(j.ID),
				j.submitted, j.finished, j.trace, j.parentSpan,
				map[string]any{"tenant": j.Tenant, "state": "cancelled"})
		}
		m.m.completed(StateCancelled).Inc()
		m.m.latency(j.Tenant).Observe(j.finished.Sub(j.submitted).Seconds())
		m.m.queuedG.Set(int64(m.queued))
		m.observeSLOLocked(j)
		close(j.done)
		m.rememberLocked(j)
		retired = true
		if m.queued == 0 && m.running == 0 {
			m.idle.Broadcast()
		}
	case StateAdmitted, StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.flight.Record("note", "cancel-requested", j.trace.Child(), j.trace.Span, nil)
			close(j.cancel)
		}
	}
	m.mu.Unlock()
	if retired && m.cfg.Retire != nil {
		m.cfg.Retire(j.ID, StateCancelled)
	}
	return nil
}

// Result blocks until the job finishes and returns its payload or error.
// Without a store the payload is the manager's own copy. Under a durable
// store the manager keeps none: every call, for a job finished in this
// process or recovered from an earlier one, reads the job's result file and
// checks its frame CRC and journaled SHA-256. The read runs outside the
// manager lock, so a multi-MB load never serializes
// Submit/Status/List/Cancel behind disk I/O. SolverService.Result serves a
// job whose proxy handle is still live from the handle's bytes instead.
func (m *Manager) Result(id int64) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	<-j.done
	m.mu.Lock()
	result, jerr := j.result, j.err
	rec := jobstore.Record{ID: j.ID, ResultFile: j.resultFile, ResultSHA: j.resultSHA}
	m.mu.Unlock()
	if jerr != nil || rec.ResultFile == "" || m.cfg.Store == nil {
		return result, jerr
	}
	return m.cfg.Store.LoadResult(rec)
}

// ResultProxy blocks until the job finishes and returns its registered
// result handle — the pass-by-reference alternative to Result: ~100 bytes
// naming the iterate instead of the iterate itself. Fails with the job's
// error for failed/cancelled jobs and with ErrNoProxy when no handle was
// registered (no registry configured, or registration rejected by quota).
func (m *Manager) ResultProxy(id int64) (proxy.Handle, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return proxy.Handle{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	<-j.done
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.err != nil {
		return proxy.Handle{}, j.err
	}
	if !j.proxyHandle.Valid() {
		return proxy.Handle{}, fmt.Errorf("%w: job %d", ErrNoProxy, id)
	}
	return j.proxyHandle, nil
}

// SetProxy records a job's registered result handle (the solver service
// calls it at registration time and again when recovery re-associates
// journal-recovered handles with their jobs).
func (m *Manager) SetProxy(id int64, h proxy.Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		j.proxyHandle = h
	}
}

// Status returns a snapshot of one job.
func (m *Manager) Status(id int64) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return m.statusLocked(j), nil
}

func (m *Manager) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:           j.ID,
		Tenant:       j.Tenant,
		Priority:     j.Priority,
		State:        j.state.String(),
		SubmittedAt:  j.submitted,
		StartedAt:    j.started,
		FinishedAt:   j.finished,
		QueueWait:    j.queueWait.Seconds(),
		MemoryBytes:  j.MemoryBytes,
		ScratchBytes: j.ScratchBytes,
		Key:          j.Key,
		Resumed:      j.resumed,
		ResultSHA:    j.resultSHA,
	}
	if j.trace.Valid() {
		st.TraceID = j.trace.Trace.String()
	}
	if j.proxyHandle.Valid() {
		st.Proxy = j.proxyHandle.String()
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// List returns snapshots of every job the manager remembers — the live ones
// and the newest terminal ones up to the retention bound — ordered by ID.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// History returns a page of terminal jobs ordered by ID, plus the total
// terminal count. offset/limit paginate; limit <= 0 means the rest. The
// window includes jobs finished before a restart — they were replayed from
// the durable store. The total is at most the retention bound.
func (m *Manager) History(offset, limit int) ([]JobStatus, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := len(m.history)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := total
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	page := make([]JobStatus, 0, end-offset)
	for _, id := range m.history[offset:end] {
		page = append(page, m.statusLocked(m.jobs[id]))
	}
	return page, total
}

// RebuildWork reconstructs a job's work function from its journaled record
// during recovery — the service-level inverse of Request.Payload.
type RebuildWork func(rec jobstore.Record) (Work, error)

// RecoveryStats summarizes what Recover reconstructed.
type RecoveryStats struct {
	// Historical terminal records carried over (served by Status/History).
	Historical int
	// Requeued jobs were queued at the crash and re-queued in original
	// submission order.
	Requeued int
	// Resumed jobs were admitted or running at the crash and were
	// re-admitted (their work functions resume from checkpoints).
	Resumed int
	// Failed records could not be rebuilt and were marked failed.
	Failed int
	// Torn reports the WAL ended in a partial record (repaired).
	Torn bool
	// ReplayDuration is the store's replay wall time at Open.
	ReplayDuration time.Duration
}

// Recover replays the durable store into the manager: terminal jobs become
// history, queued jobs re-queue in original submission order, and
// interrupted (admitted/running) jobs re-admit with their Resumed count
// bumped — their rebuilt work functions pick up from the newest checkpoint.
// Call once, after NewManager and before serving traffic. No-op without a
// store.
func (m *Manager) Recover(rebuild RebuildWork) (RecoveryStats, error) {
	st := m.cfg.Store
	if st == nil {
		return RecoveryStats{}, nil
	}
	info := st.ReplayInfo()
	stats := RecoveryStats{Torn: info.Torn, ReplayDuration: info.Duration}
	m.mu.Lock()
	defer m.mu.Unlock()
	if max := st.MaxID(); max > m.seq {
		m.seq = max
	}
	for _, rec := range st.Records() {
		if _, ok := m.jobs[rec.ID]; ok {
			continue // replayed already (Recover called twice)
		}
		j := &Job{
			ID:           rec.ID,
			Key:          rec.Key,
			Tenant:       rec.Tenant,
			Priority:     rec.Priority,
			MemoryBytes:  rec.MemoryBytes,
			ScratchBytes: rec.ScratchBytes,
			payload:      rec.Payload,
			cancel:       make(chan struct{}),
			done:         make(chan struct{}),
			submitted:    rec.SubmittedAt,
			started:      rec.StartedAt,
			finished:     rec.FinishedAt,
			resumed:      rec.Resumed,
			resultFile:   rec.ResultFile,
			resultSHA:    rec.ResultSHA,
		}
		if rec.Err != "" {
			j.err = errors.New(rec.Err)
		}
		// Rebuild the causal identity and the pre-crash flight recorder from
		// the journal; these events are the only surviving account of what
		// the job did before the process died.
		if tr, err := obs.ParseTraceID(rec.TraceID); err == nil {
			if sp, err := obs.ParseSpanID(rec.RootSpan); err == nil {
				j.trace = obs.SpanContext{Trace: tr, Span: sp}
			}
		}
		j.flight = obs.NewFlightRecorder(m.cfg.FlightEvents)
		j.flight.Preload(rec.Events)
		m.jobs[j.ID] = j
		if j.Key != "" {
			m.byKey[j.Key] = j
		}
		state := stateFromString(rec.State)
		if state.Terminal() {
			j.state = state
			close(j.done)
			m.rememberLocked(j)
			stats.Historical++
			continue
		}
		// A job that will run again needs a valid trace even if its record
		// predates tracing.
		if !j.trace.Valid() {
			j.trace = obs.NewSpanContext()
		}
		work, err := rebuild(rec)
		if err != nil {
			j.state = StateFailed
			j.err = fmt.Errorf("jobs: recovery cannot rebuild work: %w", err)
			j.finished = time.Now()
			j.flight.Record("transition", "failed", j.trace.Child(), j.trace.Span,
				map[string]string{"error": j.err.Error()})
			m.journalLocked(j)
			close(j.done)
			m.rememberLocked(j)
			stats.Failed++
			continue
		}
		j.work = work
		if state == StateQueued {
			stats.Requeued++
			j.flight.Record("note", "recovered", j.trace.Child(), j.trace.Span,
				map[string]string{"from": rec.State})
		} else {
			// Interrupted mid-run: count the resumption and journal it, so a
			// crash loop is visible in the record.
			j.resumed++
			stats.Resumed++
			m.m.resumedC.Inc()
			j.flight.Record("note", "recovered", j.trace.Child(), j.trace.Span,
				map[string]string{"from": rec.State, "resumed": fmt.Sprint(j.resumed)})
			j.flight.Record("transition", "queued", j.trace.Child(), j.trace.Span, nil)
			m.journalLocked(j)
		}
		j.state = StateQueued
		m.queues[j.Tenant] = append(m.queues[j.Tenant], j)
		m.queued++
		m.memInUse += j.MemoryBytes
	}
	m.m.queuedG.Set(int64(m.queued))
	m.dispatchLocked()
	return stats, nil
}

// Drain stops admission (subsequent Submits fail with ErrDraining) and
// blocks until every queued and running job reaches a terminal state.
func (m *Manager) Drain() {
	m.DrainContext(context.Background())
}

// DrainContext is Drain with a bounded wait: it stops admission, journals
// the drain marker (so a restart can tell an interrupted drain from a
// crash — both resume the interrupted jobs), and waits for idle until ctx
// expires. On expiry the in-flight jobs keep running and keep journaling;
// under a durable store they are resumable after the process exits.
func (m *Manager) DrainContext(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	if m.cfg.Store != nil {
		m.cfg.Store.MarkDrain()
	}
	// Expiry broadcasts the idle cond so the wait below wakes and re-checks
	// ctx — no goroutine is left parked past the call's return, so repeated
	// bounded drains in a long-lived embedder do not accumulate leaks.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.idle.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for (m.queued > 0 || m.running > 0) && ctx.Err() == nil {
		m.idle.Wait()
	}
	if m.queued == 0 && m.running == 0 {
		return nil
	}
	// In-flight jobs keep running and keep journaling; under a durable
	// store they are resumable after the process exits.
	return ctx.Err()
}

// Counts returns the current queued and running totals (for tests and
// readiness probes).
func (m *Manager) Counts() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// FlightEvents returns the job's flight-recorder snapshot (oldest-first)
// plus how many older events the bounded ring dropped. After a crash the
// snapshot is whatever the journal preserved.
func (m *Manager) FlightEvents(id int64) ([]obs.FlightEvent, uint64, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return j.flight.Events(), j.flight.Dropped(), nil
}

// TraceContext returns the job's root span context.
func (m *Manager) TraceContext(id int64) (obs.SpanContext, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return obs.SpanContext{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return j.trace, nil
}

// RunSpanContext returns the job's running-phase span context — the causal
// parent a work function hands to the engine so per-iteration and per-task
// spans attach under the right lifecycle node. Zero before the job runs.
func (m *Manager) RunSpanContext(id int64) obs.SpanContext {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || j.runSpan.IsZero() {
		return obs.SpanContext{}
	}
	return obs.SpanContext{Trace: j.trace.Trace, Span: j.runSpan}
}
