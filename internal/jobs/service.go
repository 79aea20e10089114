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
	"time"

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
	// reg is the pass-by-reference result plane (nil disables): done jobs
	// register their iterate as a refcounted handle, and teardown routes
	// through the registry so it can never race a concurrent resolve.
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
// submission. With cfg.Store set the service is durable: it installs its
// artifact-retirement hook and journals every lifecycle transition. With
// cfg.Proxy set it is a dataflow node: results register as proxy handles
// and jobs may consume other jobs' results by reference.
func NewSolverService(sys *core.System, base core.SpMVConfig, cfg Config) *SolverService {
	s := &SolverService{
		sys:        sys,
		base:       base,
		store:      cfg.Store,
		reg:        cfg.Proxy,
		fetch:      cfg.ProxyFetch,
		itersSaved: cfg.Obs.Counter("dooc_jobs_resume_iters_saved_total", "iterations recovered from checkpoints instead of recomputed"),
		inputs:     make(map[int64]proxy.Ref),
	}
	if cfg.Store != nil || cfg.Proxy != nil {
		cfg.Retire = s.retire
	}
	s.Manager = NewManager(cfg)
	return s
}

// ProxyEnabled reports whether this service registers and resolves proxy
// handles (the remote server advertises the capability from it).
func (s *SolverService) ProxyEnabled() bool { return s.reg != nil }

// Proxies exposes the registry (nil when the proxy plane is disabled).
func (s *SolverService) Proxies() *proxy.Registry { return s.reg }

// scope is the service's origin scope ("" without a registry).
func (s *SolverService) scope() string {
	if s.reg == nil {
		return ""
	}
	return s.reg.Scope()
}

// Base returns the service's matrix geometry.
func (s *SolverService) Base() core.SpMVConfig { return s.base }

// Submit admits a solve job; admission errors are typed (ErrQueueFull,
// ErrQuotaExceeded, ErrDraining). A keyed request matching a known job
// returns that job's status instead of enqueuing a duplicate.
func (s *SolverService) Submit(req SolveRequest) (JobStatus, error) {
	if req.Iters <= 0 {
		return JobStatus{}, fmt.Errorf("jobs: invalid iters %d", req.Iters)
	}
	p := solvePayload{Iters: req.Iters, Seed: req.Seed}
	if req.Input.Valid() {
		if s.reg == nil {
			return JobStatus{}, fmt.Errorf("%w: proxy inputs need a proxy registry", proxy.ErrUnknownProxy)
		}
		// A local handle is validated at admission so a dead ref fails the
		// submit, not the run. Foreign-scope refs resolve at run time over
		// the cluster tier.
		if req.Input.Scope == "" || req.Input.Scope == s.scope() {
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
	if s.reg != nil && (ref.Scope == "" || ref.Scope == s.scope()) {
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
	if ok && s.reg != nil && (ref.Scope == "" || ref.Scope == s.scope()) {
		s.reg.Release(ref, fmt.Sprintf("job%d", id))
	}
}

// Recover replays the durable store into the manager, rebuilding each
// interrupted job's work function from its journaled payload, re-associates
// journal-recovered proxy handles with their jobs, and re-takes live
// consumer jobs' input references (terminal ones are reconciled released —
// a crash between the terminal journal entry and the retire hook must not
// leak a reference). Call once on startup, before serving traffic.
func (s *SolverService) Recover() (RecoveryStats, error) {
	if s.reg != nil {
		if _, err := s.reg.Recover(); err != nil {
			return RecoveryStats{}, err
		}
	}
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
	if s.reg != nil {
		for _, st := range s.reg.List() {
			s.Manager.SetProxy(st.JobID, st.Handle)
		}
		// Reconcile terminal consumers: their input refs release idempotently.
		for _, rec := range s.store.Records() {
			if !rec.Terminal() {
				continue
			}
			if _, ref, perr := s.parsePayload(rec.ID, rec.Payload); perr == nil && ref.Valid() &&
				(ref.Scope == "" || ref.Scope == s.scope()) {
				s.reg.Release(ref, fmt.Sprintf("job%d", rec.ID))
			}
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
// jobs), run the (checkpointed, when durable) cancellable solve, encode the
// final vector, register it as a proxy handle, then drop the job's dead
// transient arrays — keeping only those the registry now retains. The
// parameters are exactly what solvePayload journals, so recovery rebuilds
// an identical closure.
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
		if !s.durable() {
			res, err := core.RunIteratedSpMVCancel(s.sys, cfg, x0, cancel)
			if err != nil {
				return nil, err
			}
			payload := EncodeFloat64s(res.X)
			// Register the final iterate as a proxy handle before deleting the
			// job's generations; the kept set is exactly what the registry now
			// retains (nil keep when registration is disabled or rejected).
			keep := s.registerResult(id, payload, core.FinalIterateArrays(cfg))
			core.DeleteSpMVArraysKeep(s.sys, cfg, keep)
			return payload, nil
		}
		// Durable path. A previous attempt that died mid-run left its
		// partially-written segment arrays on scratch, re-registered by the
		// storage startup scan — purge them or the fresh segment run
		// collides on Create. The checkpoint files (prefix "job<id>:") stay,
		// as do arrays a live proxy handle retains (a resumed re-finish
		// re-registers idempotently and re-points the handle).
		core.PurgeTaggedArtifactsExcept(s.sys, cfg.Tag+"@", s.retained())
		res, start, err := core.ResumeIteratedSpMVCancel(s.sys, cfg, x0, cancel)
		if err != nil {
			return nil, err
		}
		if start > 0 {
			s.itersSaved.Add(int64(start))
		}
		payload := EncodeFloat64s(res.X)
		if start < iters {
			// The resume path namespaced the segment run "job<id>@<start>:";
			// its final iterate backs the proxy handle, the rest are dead.
			rest := cfg
			rest.Iters = iters - start
			rest.Tag = fmt.Sprintf("%s@%d", cfg.Tag, start)
			keep := s.registerResult(id, payload, core.FinalIterateArrays(rest))
			core.DeleteSpMVArraysKeep(s.sys, rest, keep)
		} else {
			// start == iters: a checkpoint already supplied the whole run, so
			// no segment arrays exist. The durable result payload (or the
			// checkpoint files) serve resolves.
			s.registerResult(id, payload, nil)
		}
		return payload, nil
	}
}

// registerResult publishes a finished job's iterate as a proxy handle named
// after the job, and returns the retention predicate DeleteSpMVArraysKeep
// uses to spare the handle's backing arrays. The handle takes the payload
// itself: it is the result's one in-memory copy until the handle's last
// reference drops. Registration failure (quota, closed registry) degrades
// gracefully: the job still succeeds by value, and a nil keep deletes
// everything.
func (s *SolverService) registerResult(id int64, payload []byte, arrays []string) func(string) bool {
	if s.reg == nil {
		return nil
	}
	tenant := ""
	if st, err := s.Manager.Status(id); err == nil {
		tenant = st.Tenant
	}
	sum := sha256.Sum256(payload)
	h, err := s.reg.Register(proxy.RegisterRequest{
		Name:    fmt.Sprintf("job%d", id),
		Tenant:  tenant,
		JobID:   id,
		SHA256:  fmt.Sprintf("%x", sum),
		Length:  int64(len(payload)),
		Arrays:  arrays,
		Payload: payload,
	})
	if err != nil {
		return nil
	}
	s.Manager.SetProxy(id, h)
	return s.retained()
}

// retained adapts the registry's array-retention lookup to the purge/delete
// keep-predicate shape (nil when the proxy plane is disabled).
func (s *SolverService) retained() func(string) bool {
	if s.reg == nil {
		return nil
	}
	return s.reg.Retained
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
// input reference; retire a non-done job's own handle (a failed or
// cancelled result must not stay resolvable); and under a durable store
// purge a done or cancelled job's checkpoints and stray segment arrays —
// except those the registry retains for live handles, so teardown never
// races a concurrent resolve. A FAILED job keeps its artifacts — the
// dominant failure mode is process death or drain-interrupt, and its
// checkpoints are exactly what the post-restart resume needs.
func (s *SolverService) retire(id int64, final State) {
	s.releaseInput(id)
	if s.reg != nil && final != StateDone {
		s.reg.RetireJob(id)
	}
	if s.store == nil || (final != StateDone && final != StateCancelled) {
		return
	}
	tag := fmt.Sprintf("job%d", id)
	keep := s.retained()
	core.PurgeTaggedArtifactsExcept(s.sys, tag+":", keep)
	core.PurgeTaggedArtifactsExcept(s.sys, tag+"@", keep)
}

// ResolveProxy materializes a handle's full payload: pin the entry so
// reclamation defers past the read, then serve the bytes the handle holds,
// else the job's durable result, else reassemble them from the retained
// iterate arrays. A foreign-scope handle unknown locally is fetched from its
// origin peer over the cluster tier. Returns proxy.ErrProxyGone (typed) when
// the last reference dropped — never partial bytes.
func (s *SolverService) ResolveProxy(ref proxy.Ref) ([]byte, error) {
	start := time.Now()
	data, err := s.resolve(ref)
	if err != nil {
		return nil, err
	}
	if s.reg != nil {
		s.reg.ObserveResolve(int64(len(data)), time.Since(start).Seconds())
	}
	return data, nil
}

// ResolveProxyRange materializes payload[lo:hi) for the wire's chunked
// resolve verb. The full payload is resolved per call — cheap while the
// handle holds its bytes in memory; a handle recovered after a restart reads
// the job's result file for every chunk — and the resolve metrics observe
// only the first chunk so one logical resolve counts once.
func (s *SolverService) ResolveProxyRange(ref proxy.Ref, lo, hi int64) ([]byte, int64, error) {
	start := time.Now()
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
	if s.reg != nil && lo == 0 {
		s.reg.ObserveResolve(total, time.Since(start).Seconds())
	}
	return data[lo:hi], total, nil
}

func (s *SolverService) resolve(ref proxy.Ref) ([]byte, error) {
	if s.reg == nil {
		return nil, fmt.Errorf("%w: proxy plane disabled", ErrNoProxy)
	}
	pin, err := s.reg.Acquire(ref)
	if err != nil {
		// A foreign-scope handle this node has never seen lives on its origin
		// peer; forward over the cluster tier.
		if errors.Is(err, proxy.ErrUnknownProxy) && ref.Scope != "" && ref.Scope != s.scope() && s.fetch != nil {
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

// pinnedBytes reads a pinned handle's payload from the first source that has
// it: the bytes the handle holds, the job's result (the result file under a
// store — what a handle recovered after a restart falls back to), then the
// retained iterate arrays.
func (s *SolverService) pinnedBytes(pin *proxy.Pin) ([]byte, error) {
	if pin.Payload != nil {
		return pin.Payload, nil
	}
	// Status first: Result would block on a job that registered its handle
	// but has not finished yet.
	if st, err := s.Manager.Status(pin.JobID); err == nil && st.State == StateDone.String() {
		if data, err := s.Manager.Result(pin.JobID); err == nil && int64(len(data)) == pin.Handle.Length {
			return data, nil
		}
	}
	// Slow path: reassemble the final iterate from its retained arrays.
	if len(pin.Arrays) == 0 {
		return nil, fmt.Errorf("jobs: proxy %s has no resolvable backing (no result payload, no retained arrays)", pin.Handle.Ref())
	}
	return s.collectArrays(pin.Arrays)
}

// collectArrays concatenates the retained per-partition iterate arrays in
// partition order. Array u lives on the node that owns partition u.
func (s *SolverService) collectArrays(arrays []string) ([]byte, error) {
	p, err := s.base.Partition()
	if err != nil {
		return nil, err
	}
	if len(arrays) != s.base.K {
		return nil, fmt.Errorf("jobs: %d retained arrays for %d partitions", len(arrays), s.base.K)
	}
	out := make([]byte, 0, 8*s.base.Dim)
	for u := 0; u < s.base.K; u++ {
		node := s.base.OwnerOf(u)
		raw, err := s.sys.Store(node).ReadAll(arrays[u])
		if err != nil {
			return nil, fmt.Errorf("jobs: reading retained array %s: %w", arrays[u], err)
		}
		if len(raw) != 8*p.Size(u) {
			return nil, fmt.Errorf("jobs: retained array %s is %d bytes, want %d", arrays[u], len(raw), 8*p.Size(u))
		}
		out = append(out, raw...)
	}
	return out, nil
}

// Result blocks until the job finishes and returns its payload or error, as
// Manager.Result does. While the job's proxy handle is live the bytes come
// from the handle — the one in-memory copy — read under a pin so a racing
// last release cannot reclaim them mid-read; otherwise from Manager.Result.
func (s *SolverService) Result(id int64) ([]byte, error) {
	if s.reg != nil {
		if h, err := s.Manager.ResultProxy(id); err == nil {
			if pin, err := s.reg.Acquire(h.Ref()); err == nil {
				data := pin.Payload
				pin.Close()
				if data != nil {
					return data, nil
				}
			}
		}
	}
	return s.Manager.Result(id)
}

// ResultProxy returns a finished job's handle — see Manager.ResultProxy.
func (s *SolverService) ResultProxy(id int64) (proxy.Handle, error) {
	return s.Manager.ResultProxy(id)
}

// ProxyStat, ProxyAddRef, and ProxyRelease are the remote layer's
// pass-throughs to the registry (ErrNoProxy when the plane is disabled).

func (s *SolverService) ProxyStat(ref proxy.Ref) (proxy.Handle, int, error) {
	if s.reg == nil {
		return proxy.Handle{}, 0, fmt.Errorf("%w: proxy plane disabled", ErrNoProxy)
	}
	return s.reg.Stat(ref)
}

func (s *SolverService) ProxyAddRef(ref proxy.Ref, owner string) (proxy.Handle, error) {
	if s.reg == nil {
		return proxy.Handle{}, fmt.Errorf("%w: proxy plane disabled", ErrNoProxy)
	}
	return s.reg.AddRef(ref, owner)
}

func (s *SolverService) ProxyRelease(ref proxy.Ref, owner string) (int, error) {
	if s.reg == nil {
		return 0, fmt.Errorf("%w: proxy plane disabled", ErrNoProxy)
	}
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
