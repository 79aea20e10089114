// Package jobs turns DOoC's single-run engine into a multi-tenant solver
// service: a job manager with bounded per-tenant queues, priority
// scheduling with aging, admission control that rejects instead of
// blocking, per-job resource quotas enforced by the storage layer, and
// cancellation that propagates through the engine's task retirement and
// lease abandonment. The remote protocol and doocserve expose it over the
// wire; everything here is dependency-free.
package jobs

import (
	"errors"
	"time"

	"dooc/internal/obs"
)

// State is a job's lifecycle position:
//
//	queued → admitted → running → done | failed | cancelled
//
// Admitted is the instant between the scheduler picking a job and its
// worker goroutine starting; it exists so queue-wait is measured at the
// scheduling decision, not at goroutine wake-up.
type State int

const (
	StateQueued State = iota
	StateAdmitted
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateAdmitted:
		return "admitted"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return "invalid"
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// stateFromString is the inverse of String, for records replayed from the
// durable store. Unknown strings map to StateFailed — a record whose state
// cannot be parsed is not resumable.
func stateFromString(s string) State {
	switch s {
	case "queued":
		return StateQueued
	case "admitted":
		return StateAdmitted
	case "running":
		return StateRunning
	case "done":
		return StateDone
	case "cancelled":
		return StateCancelled
	}
	return StateFailed
}

// Typed admission and lookup errors. Submit never blocks: over-capacity
// submissions fail fast with one of these so clients can back off.
var (
	// ErrQueueFull rejects a submission when QueueDepth jobs are already
	// waiting.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuotaExceeded rejects a submission whose memory request does not
	// fit in the service's aggregate budget alongside admitted work.
	ErrQuotaExceeded = errors.New("jobs: aggregate memory quota exceeded")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("jobs: service draining")
	// ErrUnknownJob reports an ID the manager has never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrCancelled is the result error of a job cancelled before or during
	// execution.
	ErrCancelled = errors.New("jobs: job cancelled")
	// ErrNoProxy reports a result-proxy request for a durable job whose
	// handle the registry refused (tenant quota, closed registry).
	ErrNoProxy = errors.New("jobs: job has no proxy handle")
)

// Request carries a submission's scheduling and resource parameters.
type Request struct {
	Tenant   string
	Priority int // higher runs earlier
	// MemoryBytes is the job's aggregate cache-budget request, counted
	// against Config.MemoryBudget at admission and sliced per node into a
	// storage quota by the solver service. 0 requests no reservation.
	MemoryBytes int64
	// ScratchBytes is the job's aggregate scratch ceiling (hard, enforced
	// by the storage layer on flush). 0 means unlimited.
	ScratchBytes int64
	// Key is an optional client idempotency key. A submit whose key matches
	// any job the manager knows (including terminal and recovered jobs)
	// returns that job instead of enqueuing a duplicate — exactly-once
	// submission across client retries, reconnects, and server restarts.
	Key string
	// Payload is an opaque job specification journaled with the record;
	// recovery hands it back to the service to rebuild the job's work
	// function. Unused without a durable store.
	Payload []byte
	// Trace is the submitter's span context. When valid, the job joins the
	// caller's trace (its lifecycle spans parent under the caller's span);
	// when zero, the manager mints a fresh TraceID at admission.
	Trace obs.SpanContext
}

// Work executes one job. It receives the manager-issued job ID (used to
// namespace the job's arrays and quotas) and a channel closed on
// cancellation; it returns the result payload.
type Work func(id int64, cancel <-chan struct{}) ([]byte, error)

// JobStatus is an exported snapshot of one job, JSON-encodable for the
// /jobs endpoint and gob-encodable for the remote protocol.
type JobStatus struct {
	ID           int64     `json:"id"`
	Tenant       string    `json:"tenant"`
	Priority     int       `json:"priority"`
	State        string    `json:"state"`
	SubmittedAt  time.Time `json:"submitted_at"`
	StartedAt    time.Time `json:"started_at,omitempty"`
	FinishedAt   time.Time `json:"finished_at,omitempty"`
	QueueWait    float64   `json:"queue_wait_seconds"`
	Err          string    `json:"error,omitempty"`
	MemoryBytes  int64     `json:"memory_bytes,omitempty"`
	ScratchBytes int64     `json:"scratch_bytes,omitempty"`
	// Key echoes the submission's idempotency key, if any.
	Key string `json:"key,omitempty"`
	// Resumed counts how many times recovery re-admitted the job after a
	// crash or interrupted drain.
	Resumed int `json:"resumed,omitempty"`
	// ResultSHA is the SHA-256 hex of the durable result payload (done jobs
	// under a durable store only).
	ResultSHA string `json:"result_sha256,omitempty"`
	// TraceID is the job's causal trace identity (hex). Clients that
	// submitted with a trace context see their own TraceID echoed here.
	TraceID string `json:"trace_id,omitempty"`
	// Proxy is the job's registered result handle ("name@epoch[@scope]"),
	// present once a done job's iterate is resolvable by reference.
	Proxy string `json:"proxy,omitempty"`
}
