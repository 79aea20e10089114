package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dooc/internal/core"
	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// SolveRequest is one iterated-SpMV job over the service's staged matrix.
type SolveRequest struct {
	Tenant   string
	Priority int
	Iters    int
	// Seed generates the starting vector (doocrun's convention: NormFloat64
	// from rand.NewSource(Seed)), so equal seeds give bit-identical runs.
	Seed int64
	// MemoryBytes / ScratchBytes are the job's aggregate quotas, sliced
	// evenly across nodes into storage quota groups. 0 means unlimited.
	MemoryBytes  int64
	ScratchBytes int64
	// Key is the client's idempotency key; a duplicate submit (retry,
	// reconnect, or post-restart) returns the existing job. "" disables
	// deduplication for this submission.
	Key string
	// Trace is the submitting client's span context; when valid the job
	// joins the client's trace end-to-end.
	Trace obs.SpanContext
	// Input, when valid, names a proxy handle whose payload becomes the
	// job's starting vector instead of the seed-derived one — job-to-job
	// dataflow chaining. The server materializes it from local state or the
	// cluster tier; the bytes never cross the client link.
	Input proxy.Ref
}

// solvePayload is the journaled job specification — everything recovery
// needs to rebuild the work function (scheduling and quota parameters live
// in the record itself). Input is the chained input handle in its
// "name@epoch[@scope]" form, so a recovered consumer job re-materializes
// the same proxy.
type solvePayload struct {
	Iters int    `json:"iters"`
	Seed  int64  `json:"seed"`
	Input string `json:"input,omitempty"`
}

// SolverService runs SolveRequests as managed jobs over one shared
// core.System. Each job's transient arrays are namespaced "job<id>:" —
// that tag doubles as the storage quota-group prefix, so cache pressure
// and scratch ceilings are attributed to the job that caused them. The
// staged matrix arrays are untagged and shared by every job.
//
// With a durable store (Config.Store) and a scratch-backed system, jobs
// run through the checkpointed resume path: every iterate is flushed to
// scratch, so a job interrupted by a crash restarts from its newest valid
// checkpoint — recomputing only the iterations after it — instead of from
// x⁰.
type SolverService struct {
	Manager *Manager
	sys     *core.System
	base    core.SpMVConfig
	store   *jobstore.Store
	// reg is the manager's result plane: each done job's iterate is a
	// refcounted handle that holds its bytes.
	reg *proxy.Registry
	// fetch materializes a foreign-scope handle from its origin peer over
	// the cluster tier (nil = local resolution only).
	fetch func(scope, name string, epoch uint64) ([]byte, error)
	// itersSaved counts iterations recovery did NOT recompute because a
	// checkpoint supplied them.
	itersSaved *obs.Counter

	// inputs tracks each live consumer job's input handle, so retirement
	// releases the consumed-by-job reference exactly once.
	inputsMu sync.Mutex
	inputs   map[int64]proxy.Ref
}

// NewSolverService wraps a system whose matrix is already staged or
// loaded. base carries Dim/K/Nodes; per-job Iters and Tag are filled per
// submission. Every service is a dataflow node: results are proxy handles
// (cfg.Proxy, or the manager's own registry) and jobs may consume other
// jobs' results by reference. With cfg.Store set the service is durable:
// it journals every lifecycle transition and purges a retired job's
// checkpoints.
func NewSolverService(sys *core.System, base core.SpMVConfig, cfg Config) *SolverService {
	s := &SolverService{
		sys:        sys,
		base:       base,
		store:      cfg.Store,
		fetch:      cfg.ProxyFetch,
		itersSaved: cfg.Obs.Counter("dooc_jobs_resume_iters_saved_total", "iterations recovered from checkpoints instead of recomputed"),
		inputs:     make(map[int64]proxy.Ref),
	}
	cfg.Retire = s.retire
	s.Manager = NewManager(cfg)
	s.reg = s.Manager.cfg.Proxy
	return s
}

// local reports whether a ref names a handle of this service's registry.
func (s *SolverService) local(ref proxy.Ref) bool {
	return ref.Scope == "" || ref.Scope == s.reg.Scope()
}

// Base returns the service's matrix geometry.
func (s *SolverService) Base() core.SpMVConfig { return s.base }

// Submit admits a solve job; admission errors are typed (ErrQueueFull,
// ErrQuotaExceeded, ErrDraining). A keyed request matching a known job
// returns that job's status instead of enqueuing a duplicate.
func (s *SolverService) Submit(req SolveRequest) (JobStatus, error) {
	// An invalid configuration, or one iteration above core.MaxProgramTasks,
	// is refused here, before the job is journaled.
	cfg := s.base
	cfg.Iters = req.Iters
	if err := cfg.Validate(); err != nil {
		return JobStatus{}, fmt.Errorf("jobs: %w", err)
	}
	p := solvePayload{Iters: req.Iters, Seed: req.Seed}
	if req.Input.Valid() {
		// A local handle is validated at admission so a dead ref fails the
		// submit, not the run. Foreign-scope refs resolve at run time over
		// the cluster tier.
		if s.local(req.Input) {
			if _, _, err := s.reg.Stat(req.Input); err != nil {
				return JobStatus{}, err
			}
		}
		p.Input = req.Input.String()
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return JobStatus{}, err
	}
	j, err := s.Manager.Submit(Request{
		Tenant:       req.Tenant,
		Priority:     req.Priority,
		MemoryBytes:  req.MemoryBytes,
		ScratchBytes: req.ScratchBytes,
		Key:          req.Key,
		Payload:      payload,
		Trace:        req.Trace,
	}, s.work(req.Iters, req.Seed, req.Input, req.MemoryBytes, req.ScratchBytes))
	if err != nil {
		return JobStatus{}, err
	}
	if req.Input.Valid() {
		s.trackInput(j.ID, req.Input)
	}
	return s.Manager.Status(j.ID)
}

// trackInput takes the consumed-by-job reference on a chained job's input
// handle and records it for release at retirement. The named AddRef is
// idempotent, so re-tracking after a keyed duplicate submit or a recovery
// replay is a no-op.
func (s *SolverService) trackInput(id int64, ref proxy.Ref) {
	s.inputsMu.Lock()
	s.inputs[id] = ref
	s.inputsMu.Unlock()
	if s.local(ref) {
		// Best-effort: a handle that went gone between Stat and here fails
		// the job at run time with the typed resolve error.
		s.reg.AddRef(ref, fmt.Sprintf("job%d", id))
	}
}

// releaseInput drops a retired consumer job's input reference (idempotent).
func (s *SolverService) releaseInput(id int64) {
	s.inputsMu.Lock()
	ref, ok := s.inputs[id]
	delete(s.inputs, id)
	s.inputsMu.Unlock()
	if ok && s.local(ref) {
		s.reg.Release(ref, fmt.Sprintf("job%d", id))
	}
}

// Recover replays the durable store into the manager (handles included),
// rebuilding each interrupted job's work function from its journaled
// payload, and re-takes live consumer jobs' input references (terminal ones
// are reconciled released — a crash between the terminal journal entry and
// the retire hook must not leak a reference). Call once on startup, before
// serving traffic.
func (s *SolverService) Recover() (RecoveryStats, error) {
	stats, err := s.Manager.Recover(func(rec jobstore.Record) (Work, error) {
		p, ref, perr := s.parsePayload(rec.ID, rec.Payload)
		if perr != nil {
			return nil, perr
		}
		if ref.Valid() {
			s.trackInput(rec.ID, ref)
		}
		return s.work(p.Iters, p.Seed, ref, rec.MemoryBytes, rec.ScratchBytes), nil
	})
	if err != nil || s.store == nil {
		return stats, err
	}
	// Reconcile terminal consumers: their input refs release idempotently.
	for _, rec := range s.store.Records() {
		if !rec.Terminal() {
			continue
		}
		if _, ref, perr := s.parsePayload(rec.ID, rec.Payload); perr == nil && ref.Valid() && s.local(ref) {
			s.reg.Release(ref, fmt.Sprintf("job%d", rec.ID))
		}
	}
	return stats, nil
}

// parsePayload decodes a journaled solvePayload and its input ref.
func (s *SolverService) parsePayload(id int64, payload []byte) (solvePayload, proxy.Ref, error) {
	var p solvePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return p, proxy.Ref{}, fmt.Errorf("jobs: job %d payload: %w", id, err)
	}
	if p.Iters <= 0 {
		return p, proxy.Ref{}, fmt.Errorf("jobs: job %d payload has no iterations", id)
	}
	var ref proxy.Ref
	if p.Input != "" {
		var err error
		if ref, err = proxy.ParseRef(p.Input); err != nil {
			return p, proxy.Ref{}, fmt.Errorf("jobs: job %d input: %w", id, err)
		}
	}
	return p, ref, nil
}

// durable reports whether jobs run through the checkpointed resume path:
// that needs both the journal (to know a job must resume) and a scratch
// root (to hold its checkpoints).
func (s *SolverService) durable() bool {
	return s.store != nil && s.sys.ScratchRoot() != ""
}

// work builds the job body: install per-node quota slices, materialize the
// input vector (seed-derived, or resolved from a proxy handle for chained
// jobs), run the (checkpointed, when durable) cancellable solve and encode
// the final vector, which the manager registers as the job's handle. The
// run leaves no array behind, done or not. The parameters are exactly what
// solvePayload journals, so recovery rebuilds an identical closure.
func (s *SolverService) work(iters int, seed int64, input proxy.Ref, memoryBytes, scratchBytes int64) Work {
	return func(id int64, cancel <-chan struct{}) ([]byte, error) {
		cfg := s.base
		cfg.Iters = iters
		cfg.Tag = fmt.Sprintf("job%d", id)
		// The engine parents its per-iteration and per-task spans under the
		// job's running-phase span, linking client → lifecycle → compute
		// into one causal tree.
		cfg.Trace = s.Manager.RunSpanContext(id)
		x0, err := s.startVector(seed, input)
		if err != nil {
			return nil, err
		}
		prefix := cfg.Tag + ":"
		nodes := s.sys.Nodes()
		if memoryBytes > 0 || scratchBytes > 0 {
			for i := 0; i < nodes; i++ {
				s.sys.Store(i).SetQuota(prefix, perNode(memoryBytes, nodes), perNode(scratchBytes, nodes))
			}
			defer func() {
				for i := 0; i < nodes; i++ {
					s.sys.Store(i).ClearQuota(prefix)
				}
			}()
		}
		var res *core.SpMVResult
		start := 0
		if s.durable() {
			res, start, err = core.ResumeIteratedSpMVCancel(s.sys, cfg, x0, cancel)
		} else {
			res, err = core.RunIteratedSpMVCancel(s.sys, cfg, x0, cancel)
		}
		if err != nil {
			return nil, err
		}
		s.itersSaved.Add(int64(start))
		return EncodeFloat64s(res.X), nil
	}
}

// startVector materializes a job's starting vector: the proxy payload for
// chained jobs, the seed-derived vector otherwise.
func (s *SolverService) startVector(seed int64, input proxy.Ref) ([]float64, error) {
	if !input.Valid() {
		return StartVector(s.base.Dim, seed), nil
	}
	data, err := s.ResolveProxy(input)
	if err != nil {
		return nil, fmt.Errorf("jobs: materializing input %s: %w", input, err)
	}
	if len(data) != 8*s.base.Dim {
		return nil, fmt.Errorf("jobs: input %s is %d bytes, want %d (dim %d)", input, len(data), 8*s.base.Dim, s.base.Dim)
	}
	return storage.DecodeFloat64s(data), nil
}

// retire is the manager's terminal hook: always release the job's consumer
// input reference, and under a durable store purge a done or cancelled
// job's checkpoints and stray arrays. No resolve reads them: a handle
// resolves from its payload or the result file. A FAILED job keeps its
// artifacts — the dominant failure mode is process death or
// drain-interrupt, and its checkpoints are exactly what the post-restart
// resume needs.
func (s *SolverService) retire(id int64, final State) {
	s.releaseInput(id)
	if s.store == nil || (final != StateDone && final != StateCancelled) {
		return
	}
	core.PurgeRun(s.sys, fmt.Sprintf("job%d", id))
}

// ResolveProxy materializes a handle's full payload: pin the entry so
// reclamation defers past the read, then serve the bytes the handle holds,
// else the job's result file. A foreign-scope handle unknown locally is
// fetched from its origin peer over the cluster tier. Returns
// proxy.ErrProxyGone (typed) when the last reference dropped — never
// partial bytes.
func (s *SolverService) ResolveProxy(ref proxy.Ref) ([]byte, error) {
	data, err := s.resolve(ref)
	if err != nil {
		return nil, err
	}
	s.reg.ObserveResolve(int64(len(data)))
	return data, nil
}

// ResolveProxyRange materializes payload[lo:hi) for the wire's chunked
// resolve verb. The full payload is resolved per call — cheap while the
// handle holds its bytes in memory; a handle recovered after a restart reads
// the job's result file for every chunk — and the resolve metrics observe
// only the first chunk so one logical resolve counts once.
func (s *SolverService) ResolveProxyRange(ref proxy.Ref, lo, hi int64) ([]byte, int64, error) {
	data, err := s.resolve(ref)
	if err != nil {
		return nil, 0, err
	}
	total := int64(len(data))
	if lo < 0 || lo > total || hi < lo {
		return nil, 0, fmt.Errorf("jobs: resolve range [%d,%d) out of bounds (payload %d bytes)", lo, hi, total)
	}
	if hi > total {
		hi = total
	}
	if lo == 0 {
		s.reg.ObserveResolve(total)
	}
	return data[lo:hi], total, nil
}

func (s *SolverService) resolve(ref proxy.Ref) ([]byte, error) {
	pin, err := s.reg.Acquire(ref)
	if err != nil {
		// A foreign-scope handle this node has never seen lives on its origin
		// peer; forward over the cluster tier.
		if errors.Is(err, proxy.ErrUnknownProxy) && !s.local(ref) && s.fetch != nil {
			return s.fetch(ref.Scope, ref.Name, ref.Epoch)
		}
		return nil, err
	}
	defer pin.Close()
	return s.resolvePinned(pin)
}

// resolvePinned assembles a pinned handle's payload and verifies it against
// the registered length and SHA-256, so a resolve never returns bytes that
// differ from what the producer registered.
func (s *SolverService) resolvePinned(pin *proxy.Pin) ([]byte, error) {
	data, err := s.pinnedBytes(pin)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != pin.Handle.Length {
		return nil, fmt.Errorf("jobs: proxy %s payload is %d bytes, registered %d", pin.Handle.Ref(), len(data), pin.Handle.Length)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != pin.Handle.SHA256 {
		return nil, fmt.Errorf("jobs: proxy %s payload hash %s does not match registered %s", pin.Handle.Ref(), sum, pin.Handle.SHA256)
	}
	return data, nil
}

// pinnedBytes reads a pinned handle's payload from its one source: the
// bytes the handle holds, else — for a handle recovered after a restart —
// the store's result file, named by the handle's job and checked against
// its SHA-256.
func (s *SolverService) pinnedBytes(pin *proxy.Pin) ([]byte, error) {
	if pin.Payload != nil {
		return pin.Payload, nil
	}
	if s.store == nil {
		return nil, fmt.Errorf("jobs: proxy %s holds no payload and the service has no store", pin.Handle.Ref())
	}
	return s.store.LoadResult(pin.JobID, pin.Handle.SHA256)
}

// ProxyStat, ProxyAddRef, and ProxyRelease are the remote layer's
// pass-throughs to the registry.

func (s *SolverService) ProxyStat(ref proxy.Ref) (proxy.Handle, int, error) {
	return s.reg.Stat(ref)
}

func (s *SolverService) ProxyAddRef(ref proxy.Ref, owner string) (proxy.Handle, error) {
	return s.reg.AddRef(ref, owner)
}

func (s *SolverService) ProxyRelease(ref proxy.Ref, owner string) (int, error) {
	return s.reg.Release(ref, owner)
}

// perNode slices an aggregate budget evenly, rounding up so the slices
// cover the whole.
func perNode(total int64, nodes int) int64 {
	if total <= 0 {
		return 0
	}
	return (total + int64(nodes) - 1) / int64(nodes)
}

// StartVector is the deterministic starting vector both doocrun and the
// service derive from a seed.
func StartVector(dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// EncodeFloat64s is the little-endian payload encoding of a result vector
// (the inverse of storage.DecodeFloat64s).
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// ServeJobs is the /jobs HTTP handler: a JSON array of every job's
// status, ordered by ID.
func (s *SolverService) ServeJobs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Manager.List())
}

// ServeJobItem handles the per-job routes under /jobs/:
//
//	/jobs/<id>         one job's status (JSON)
//	/jobs/<id>/events  the job's flight-recorder events (JSON)
//	/jobs/<id>/trace   Chrome-trace JSON scoped to the job, rebuilt from
//	                   the flight recorder — available even for jobs that
//	                   died in a crash, because the ring is journaled
//
// Mount it on the "/jobs/" prefix; more specific patterns (/jobs,
// /jobs/history) win on Go's ServeMux, so they are unaffected.
func (s *SolverService) ServeJobItem(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	idStr, sub, _ := strings.Cut(rest, "/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id <= 0 {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		st, err := s.Manager.Status(id)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	case "events":
		events, dropped, err := s.Manager.FlightEvents(id)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		sc, _ := s.Manager.TraceContext(id)
		resp := struct {
			Job     int64             `json:"job"`
			TraceID string            `json:"trace_id,omitempty"`
			Dropped uint64            `json:"dropped"`
			Events  []obs.FlightEvent `json:"events"`
		}{Job: id, Dropped: dropped, Events: events}
		if sc.Valid() {
			resp.TraceID = sc.Trace.String()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	case "trace":
		events, _, err := s.Manager.FlightEvents(id)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		data, err := obs.FlightTrace(events, obs.PidJobs, fmt.Sprintf("job%d", id))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		http.NotFound(w, r)
	}
}

// ServeHistory is the /jobs/history HTTP handler: a paginated JSON window
// of terminal jobs (?offset=N&limit=N), including jobs finished before a
// restart.
func (s *SolverService) ServeHistory(w http.ResponseWriter, r *http.Request) {
	offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	jobs, total := s.Manager.History(offset, limit)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Total  int         `json:"total"`
		Offset int         `json:"offset"`
		Jobs   []JobStatus `json:"jobs"`
	}{Total: total, Offset: offset, Jobs: jobs})
}
