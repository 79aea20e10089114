// Job-service verbs: the remote protocol's second personality. A server
// constructed with ServerOptions.Jobs fronts a jobs.SolverService, and
// clients submit, watch, cancel, and collect iterated-SpMV jobs over the
// same hello-negotiated connection the storage verbs use. Job results ride
// the normal payload path — raw bytes after the frame's gob header — so
// they get wire compression and checksum protection for free, and the
// result round-trip blocks server-side until the job finishes — the same
// long-poll discipline as a read of an unwritten interval.
//
// The job verbs are the opcode table's roleJobs rows. The hello carries no
// bit for the role, so a server without a job service refuses them in band
// ("job service not enabled"). A refused reply carries its error's code in
// the wire error table (errors.go), so a remote caller errors.Is the jobs
// and proxy packages' sentinels — admission rejections, cancellations,
// proxy lifetime errors — exactly as a local one does.

package remote

import "dooc/internal/jobs"

// jobWire carries job-verb parameters inside a request. Submit fills the
// solve fields; status/cancel/result address an existing job by ID.
type jobWire struct {
	ID           int64
	Tenant       string
	Priority     int
	Iters        int
	Seed         int64
	MemoryBytes  int64
	ScratchBytes int64
	// Key is the submit verb's idempotency key ("" = unkeyed). Keyed
	// submissions are replay-safe: a duplicate lands on the original job.
	Key string
	// TraceHi/TraceLo/TraceSpan carry the submitter's trace context (the
	// 128-bit trace ID and the client root span) so the server's job spans
	// join the client's causal tree. All-zero means untraced; gob omits
	// zero fields.
	TraceHi, TraceLo, TraceSpan uint64
	// Offset/Limit paginate the history verb.
	Offset int
	Limit  int
	// InputProxy is the submit verb's chained input handle in its
	// "name@epoch[@scope]" string form ("" = seed-derived start vector).
	InputProxy string
}

// SubmitJob submits a solve request to the server's job service and
// returns the admitted job's status snapshot.
//
// An UNKEYED submission is not idempotent, so unlike every storage verb it
// is never replayed after a connection loss: a transport error means the
// submission's fate is unknown and the caller should ListJobs before
// retrying. A KEYED submission (req.Key != "") is exactly-once server-side
// — a duplicate lands on the original job — so it rides the full
// reconnect-and-replay recovery path.
func (cl *Client) SubmitJob(req jobs.SolveRequest) (jobs.JobStatus, error) {
	hi, lo := req.Trace.Trace.Words()
	wire := &request{Op: opJobSubmit, Job: &jobWire{
		Tenant:       req.Tenant,
		Priority:     req.Priority,
		Iters:        req.Iters,
		Seed:         req.Seed,
		MemoryBytes:  req.MemoryBytes,
		ScratchBytes: req.ScratchBytes,
		Key:          req.Key,
		TraceHi:      hi,
		TraceLo:      lo,
		TraceSpan:    req.Trace.Span.Word(),
	}}
	if req.Input.Valid() {
		wire.Job.InputProxy = req.Input.String()
	}
	var resp *response
	var err error
	if req.Key != "" {
		resp, err = cl.call(wire)
	} else {
		resp, err = cl.roundTrip(wire, cl.opts.Timeout)
	}
	if err != nil {
		return jobs.JobStatus{}, err
	}
	return deref(resp.Job), nil
}

// JobStatus fetches a job's status snapshot.
func (cl *Client) JobStatus(id int64) (jobs.JobStatus, error) {
	resp, err := cl.call(&request{Op: opJobStatus, Job: &jobWire{ID: id}})
	if err != nil {
		return jobs.JobStatus{}, err
	}
	return deref(resp.Job), nil
}

// CancelJob requests cancellation of a queued or running job. Cancelling a
// finished job is a no-op; unknown IDs map to jobs.ErrUnknownJob.
func (cl *Client) CancelJob(id int64) error {
	_, err := cl.call(&request{Op: opJobCancel, Job: &jobWire{ID: id}})
	return err
}

// JobResult blocks until the job reaches a terminal state and returns its
// result payload, the caller's, plus the final status. A cancelled or failed
// job returns the typed error (jobs.ErrCancelled for cancellations).
func (cl *Client) JobResult(id int64) ([]byte, jobs.JobStatus, error) {
	resp, err := cl.call(&request{Op: opJobResult, Job: &jobWire{ID: id}})
	if err != nil {
		return nil, jobs.JobStatus{}, err
	}
	return heapPayload(resp), deref(resp.Job), nil
}

// ListJobs returns every job the service has seen, ordered by ID.
func (cl *Client) ListJobs() ([]jobs.JobStatus, error) {
	resp, err := cl.call(&request{Op: opJobList})
	if err != nil {
		return nil, err
	}
	return resp.JobList, nil
}

// JobHistory pages through terminal jobs ordered by ID (the list-history
// verb): it returns the window [offset, offset+limit) plus the total
// terminal count. limit <= 0 means the rest. After a restart of a durable
// server the history includes jobs finished before the restart.
func (cl *Client) JobHistory(offset, limit int) ([]jobs.JobStatus, int, error) {
	resp, err := cl.call(&request{Op: opJobHistory, Job: &jobWire{Offset: offset, Limit: limit}})
	if err != nil {
		return nil, 0, err
	}
	return resp.JobList, resp.JobTotal, nil
}
