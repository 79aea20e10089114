// Package proxy is DOoC's pass-by-reference result plane, borrowed from the
// ProxyStore papers: a completed job registers its iterate under a compact,
// durable handle (name, epoch, SHA-256, byte length, origin scope) instead
// of shipping the vector to whoever asked. Any client or downstream job
// resolves the handle on demand against the storage tier, and the backing
// arrays live exactly as long as someone holds a reference — client addrefs,
// the origin job's lease (optionally TTL-bounded), or a consumer job that
// named the handle as its input. Refcounted ownership replaces the job
// service's eager per-job DeleteSpMVArrays teardown, which is what turns
// the job service into a composable dataflow: job B consumes job A's output
// without the bytes ever leaving the cluster.
//
// Lifetime state machine (DESIGN.md §15):
//
//	registered ──addref/release──▶ registered (refs+owners > 0)
//	     │ last reference drops (release, TTL expiry, owner-job retirement)
//	     ▼
//	   gone ──(in-flight resolves pinned: reclaim deferred)──▶ reclaimed
//
// A resolve pins the entry in memory before reading, so a resolve racing
// the last release either completes with the whole payload or fails with
// ErrProxyGone — never partial bytes. Pins are memory-only (an in-flight
// resolve does not survive a crash); refs and owners journal through
// internal/jobstore, so handles and refcounts are rebuilt exactly after a
// restart.
//
// A registered entry owns the result's bytes in memory until it is
// reclaimed; they are the one in-process copy and are never journaled (the
// job store's result file is the durable copy), so a handle recovered after
// a restart holds none.
package proxy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dooc/internal/jobstore"
	"dooc/internal/obs"
)

// OwnerOrigin is the named reference the registry itself takes at Register
// on behalf of the producing job — the lease that TTL expiry, failed-job
// retirement, or an anonymous release with no outstanding addrefs drops.
const OwnerOrigin = "origin"

// Typed lifetime errors.
var (
	// ErrUnknownProxy reports a handle the registry has never issued.
	ErrUnknownProxy = errors.New("proxy: unknown handle")
	// ErrProxyGone reports a handle whose last reference dropped — the
	// typed answer a resolve racing the final release gets instead of
	// partial bytes.
	ErrProxyGone = errors.New("proxy: handle released")
	// ErrProxyQuota rejects a registration that would exceed the tenant's
	// proxy count or resident-byte quota.
	ErrProxyQuota = errors.New("proxy: tenant proxy quota exceeded")
	// ErrNoRefs reports a release with no matching reference outstanding.
	ErrNoRefs = errors.New("proxy: release without outstanding reference")
	// ErrClosed reports use of a closed registry.
	ErrClosed = errors.New("proxy: registry closed")
)

// Handle is the compact pass-by-reference identity of a job result. It is
// what crosses the wire instead of the vector: ~100 bytes naming megabytes.
type Handle struct {
	Name   string `json:"name"`
	Epoch  uint64 `json:"epoch"`
	SHA256 string `json:"sha256"`
	Length int64  `json:"length"`
	// Scope is the origin node's cluster scope; a resolver whose local
	// registry does not know the handle forwards to this owner.
	Scope string `json:"scope,omitempty"`
}

// Valid reports whether the handle names anything.
func (h Handle) Valid() bool { return h.Name != "" && h.Epoch > 0 }

// Ref returns the handle's reference (the resolvable part).
func (h Handle) Ref() Ref { return Ref{Name: h.Name, Epoch: h.Epoch, Scope: h.Scope} }

// String renders "name@epoch" (plus "@scope" when scoped) — the form
// doocrun prints and parses.
func (h Handle) String() string { return h.Ref().String() }

// Ref addresses a handle: name@epoch, optionally scoped to its origin node.
type Ref struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
	Scope string `json:"scope,omitempty"`
}

// Valid reports whether the ref addresses anything.
func (r Ref) Valid() bool { return r.Name != "" && r.Epoch > 0 }

func (r Ref) String() string {
	s := r.Name + "@" + strconv.FormatUint(r.Epoch, 10)
	if r.Scope != "" {
		s += "@" + r.Scope
	}
	return s
}

// ParseRef parses "name@epoch" or "name@epoch@scope" (doocrun's flag and
// output format).
func ParseRef(s string) (Ref, error) {
	parts := strings.Split(s, "@")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return Ref{}, fmt.Errorf("proxy: malformed ref %q (want name@epoch[@scope])", s)
	}
	epoch, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil || epoch == 0 {
		return Ref{}, fmt.Errorf("proxy: malformed ref %q: bad epoch %q", s, parts[1])
	}
	r := Ref{Name: parts[0], Epoch: epoch}
	if len(parts) == 3 {
		r.Scope = parts[2]
	}
	return r, nil
}

// Config parameterizes a Registry.
type Config struct {
	// Store, when non-nil, journals every registration, refcount change,
	// and reclaim through the job store's WAL, so handles survive restart.
	Store *jobstore.Store
	// Obs receives the dooc_proxy_* series (nil disables).
	Obs *obs.Registry
	// Scope is stamped on registered handles as their origin (doocserve's
	// cluster node ID; "" for single-process registries).
	Scope string
	// TTL bounds the origin lease: a registered handle whose origin
	// reference is still held when the TTL passes has it released by Sweep.
	// 0 means the origin lease never expires.
	TTL time.Duration
	// MaxPerTenant / MaxBytesPerTenant cap one tenant's live handles and
	// their resident payload bytes (0 = unlimited). Registrations beyond
	// either fail with ErrProxyQuota.
	MaxPerTenant      int
	MaxBytesPerTenant int64
	// OnReclaim, when non-nil, is called (outside the registry lock) after
	// a handle's last reference drops and no resolve pins it — the hook
	// that drops the retained storage arrays.
	OnReclaim func(h Handle, arrays []string)
}

// entry is one live handle's registry state.
type entry struct {
	h      Handle
	tenant string
	jobID  int64
	arrays []string
	// payload is the result's bytes, held until reclaim (memory only; nil
	// for a handle recovered after a restart).
	payload []byte
	refs    int                 // anonymous wire references (journaled)
	owners  map[string]struct{} // named references (journaled)
	// deadline is the origin lease's TTL expiry (zero = none).
	deadline time.Time
	// pins counts in-flight resolves (memory only): while > 0 a gone entry
	// defers its physical reclaim so readers finish with whole bytes.
	pins int
	gone bool
}

func (e *entry) live() int { return e.refs + len(e.owners) }

// Registry is the refcounted proxy-handle table. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config
	m   metrics

	mu      sync.Mutex
	entries map[string]*entry // key: ref "name@epoch"
	latest  map[string]uint64 // newest epoch ever issued per name
	closed  bool
}

// NewRegistry builds a registry; call Recover before serving traffic when a
// journal may hold pre-crash handles.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg,
		m:       newMetrics(cfg.Obs),
		entries: make(map[string]*entry),
		latest:  make(map[string]uint64),
	}
}

// Scope returns the registry's origin scope.
func (r *Registry) Scope() string { return r.cfg.Scope }

// RegisterRequest describes one registration.
type RegisterRequest struct {
	// Name is the handle's name (the job service uses "job<id>").
	Name   string
	Tenant string
	JobID  int64
	// SHA256 (hex) and Length identify the payload.
	SHA256 string
	Length int64
	// Arrays are the storage arrays retained under the handle.
	Arrays []string
	// Payload, when non-nil, is the result's bytes. The entry owns them until
	// it is reclaimed and Pin exposes them. They are never journaled: the job
	// store's result file is the durable copy.
	Payload []byte
}

// Register issues a handle for a completed result, taking the origin
// reference on the producing job's behalf. Re-registering the same name
// with the same payload identity (a resumed job re-finishing) is
// idempotent: the existing live handle is returned with its retained
// arrays updated, not a new epoch. A changed payload bumps the epoch so a
// stale handle can never resolve to different bytes.
func (r *Registry) Register(req RegisterRequest) (Handle, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Handle{}, ErrClosed
	}
	if cur, ok := r.entries[Ref{Name: req.Name, Epoch: r.latest[req.Name]}.String()]; ok && !cur.gone &&
		cur.h.SHA256 == req.SHA256 && cur.h.Length == req.Length {
		cur.arrays = append([]string(nil), req.Arrays...)
		if cur.payload == nil && req.Payload != nil {
			cur.payload = req.Payload
			r.m.residentBytes.Add(int64(len(req.Payload)))
		}
		h := cur.h
		err := r.journalLocked(cur)
		r.mu.Unlock()
		if err != nil {
			return Handle{}, err
		}
		return h, nil
	}
	if err := r.quotaLocked(req.Tenant, req.Length); err != nil {
		r.m.quotaRejects.Inc()
		r.mu.Unlock()
		return Handle{}, err
	}
	epoch := r.latest[req.Name] + 1
	e := &entry{
		h: Handle{
			Name:   req.Name,
			Epoch:  epoch,
			SHA256: req.SHA256,
			Length: req.Length,
			Scope:  r.cfg.Scope,
		},
		tenant:  req.Tenant,
		jobID:   req.JobID,
		arrays:  append([]string(nil), req.Arrays...),
		payload: req.Payload,
		owners:  map[string]struct{}{OwnerOrigin: {}},
	}
	if r.cfg.TTL > 0 {
		e.deadline = time.Now().Add(r.cfg.TTL)
	}
	if err := r.journalLocked(e); err != nil {
		r.mu.Unlock()
		return Handle{}, err
	}
	r.entries[entryKey(e.h)] = e
	r.latest[req.Name] = epoch
	r.m.registered.Inc()
	r.m.residentBytes.Add(int64(len(req.Payload)))
	r.m.count.Add(1)
	h := e.h
	r.mu.Unlock()
	return h, nil
}

// quotaLocked enforces the per-tenant handle-count and resident-byte caps.
func (r *Registry) quotaLocked(tenant string, add int64) error {
	if r.cfg.MaxPerTenant <= 0 && r.cfg.MaxBytesPerTenant <= 0 {
		return nil
	}
	count, bytes := 0, int64(0)
	for _, e := range r.entries {
		if e.tenant == tenant && !e.gone {
			count++
			bytes += e.h.Length
		}
	}
	if r.cfg.MaxPerTenant > 0 && count+1 > r.cfg.MaxPerTenant {
		return fmt.Errorf("%w: tenant %q at %d/%d handles", ErrProxyQuota, tenant, count, r.cfg.MaxPerTenant)
	}
	if r.cfg.MaxBytesPerTenant > 0 && bytes+add > r.cfg.MaxBytesPerTenant {
		return fmt.Errorf("%w: tenant %q at %d+%d/%d resident bytes", ErrProxyQuota, tenant, bytes, add, r.cfg.MaxBytesPerTenant)
	}
	return nil
}

// entryKey is the canonical entries-map key for a handle: name@epoch with
// the scope stripped, so a scoped ref from the wire and the local handle
// land on the same entry.
func entryKey(h Handle) string { return Ref{Name: h.Name, Epoch: h.Epoch}.String() }

// lookupLocked resolves a ref to its live entry, mapping the two failure
// shapes to their typed errors: a name@epoch the registry once issued but
// has reclaimed is ErrProxyGone; a ref it never issued is ErrUnknownProxy.
func (r *Registry) lookupLocked(ref Ref) (*entry, error) {
	e, ok := r.entries[Ref{Name: ref.Name, Epoch: ref.Epoch}.String()]
	if ok && !e.gone {
		return e, nil
	}
	if ok || ref.Epoch <= r.latest[ref.Name] {
		return nil, fmt.Errorf("%w: %s", ErrProxyGone, ref)
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownProxy, ref)
}

// AddRef takes a reference on a handle. owner "" counts an anonymous wire
// reference; a non-empty owner takes a named reference, idempotently (a
// consumer job re-taking its input ref after a crash is a no-op).
func (r *Registry) AddRef(ref Ref, owner string) (Handle, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Handle{}, ErrClosed
	}
	e, err := r.lookupLocked(ref)
	if err != nil {
		r.mu.Unlock()
		return Handle{}, err
	}
	if owner == "" {
		e.refs++
	} else if _, held := e.owners[owner]; !held {
		e.owners[owner] = struct{}{}
	} else {
		h := e.h
		r.mu.Unlock()
		return h, nil // idempotent re-take: nothing to journal
	}
	if err := r.journalLocked(e); err != nil {
		// Roll the unjournaled reference back: an acked ref must survive
		// restart or a release after the crash would double-free.
		if owner == "" {
			e.refs--
		} else {
			delete(e.owners, owner)
		}
		r.mu.Unlock()
		return Handle{}, err
	}
	h := e.h
	r.mu.Unlock()
	return h, nil
}

// Release drops a reference. owner "" first consumes an anonymous
// reference; with none outstanding it falls back to the origin lease —
// that is how a client's explicit `doocrun -release` disposes of a result
// nobody addref'd. Releasing a named owner that is not held is a no-op
// (idempotent, for crash-safe consumer retirement). When the last
// reference drops the handle goes gone immediately (new resolves fail with
// ErrProxyGone) and is physically reclaimed once no in-flight resolve pins
// it. Returns the references remaining.
func (r *Registry) Release(ref Ref, owner string) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	e, err := r.lookupLocked(ref)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	released := owner
	switch {
	case owner == "" && e.refs > 0:
		e.refs--
	case owner == "":
		if _, held := e.owners[OwnerOrigin]; !held {
			r.mu.Unlock()
			return 0, fmt.Errorf("%w: %s", ErrNoRefs, ref)
		}
		delete(e.owners, OwnerOrigin)
		released = OwnerOrigin
	default:
		if _, held := e.owners[owner]; !held {
			remaining := e.live()
			r.mu.Unlock()
			return remaining, nil
		}
		delete(e.owners, owner)
	}
	return r.releasedLocked(e, released)
}

// releasedLocked journals the post-release state (a tombstone when the
// last reference dropped), runs deferred reclaim bookkeeping, and unlocks.
func (r *Registry) releasedLocked(e *entry, owner string) (int, error) {
	remaining := e.live()
	if remaining == 0 {
		e.gone = true
	}
	if err := r.journalLocked(e); err != nil {
		// Journal failure: roll back so durable and in-memory state agree.
		if owner == "" {
			e.refs++
		} else {
			e.owners[owner] = struct{}{}
		}
		e.gone = false
		r.mu.Unlock()
		return 0, err
	}
	r.m.released.Inc()
	var reclaim *entry
	if e.gone && e.pins == 0 {
		reclaim = e
		r.reclaimLocked(e)
	}
	r.mu.Unlock()
	if reclaim != nil && r.cfg.OnReclaim != nil {
		r.cfg.OnReclaim(reclaim.h, reclaim.arrays)
	}
	return remaining, nil
}

// reclaimLocked removes a gone, unpinned entry from the table, lets go of
// its payload and settles the gauges. The caller invokes OnReclaim outside
// the lock.
func (r *Registry) reclaimLocked(e *entry) {
	delete(r.entries, entryKey(e.h))
	r.m.reclaimed.Inc()
	r.m.residentBytes.Add(-int64(len(e.payload)))
	e.payload = nil
	r.m.count.Add(-1)
}

// Pin is an in-flight resolve's hold on a handle: while open, the entry's
// payload and backing arrays outlive even the final release. Close is
// idempotent.
type Pin struct {
	Handle Handle
	JobID  int64
	Arrays []string
	// Payload is the result's bytes held by the entry (nil for a handle
	// recovered after a restart). Callers must not modify it.
	Payload []byte

	r      *Registry
	once   sync.Once
	closed bool
}

// Close drops the pin; if the handle went gone while pinned, the deferred
// physical reclaim runs now.
func (p *Pin) Close() {
	p.once.Do(func() {
		r := p.r
		r.mu.Lock()
		e, ok := r.entries[entryKey(p.Handle)]
		if !ok {
			r.mu.Unlock()
			return
		}
		e.pins--
		var reclaim *entry
		if e.gone && e.pins == 0 {
			reclaim = e
			r.reclaimLocked(e)
		}
		r.mu.Unlock()
		if reclaim != nil && r.cfg.OnReclaim != nil {
			r.cfg.OnReclaim(reclaim.h, reclaim.arrays)
		}
	})
}

// Acquire pins a live handle for resolution. The returned Pin must be
// Closed when the read finishes. A gone or unknown handle fails typed
// (ErrProxyGone / ErrUnknownProxy) — the resolve-vs-last-release race
// resolves to whole bytes or a typed error, never a partial read.
func (r *Registry) Acquire(ref Ref) (*Pin, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e, err := r.lookupLocked(ref)
	if err != nil {
		return nil, err
	}
	e.pins++
	return &Pin{
		Handle:  e.h,
		JobID:   e.jobID,
		Arrays:  append([]string(nil), e.arrays...),
		Payload: e.payload,
		r:       r,
	}, nil
}

// Stat returns a handle and its current reference count.
func (r *Registry) Stat(ref Ref) (Handle, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.lookupLocked(ref)
	if err != nil {
		return Handle{}, 0, err
	}
	return e.h, e.live(), nil
}

// HandleForJob returns the live handle registered by job id (the newest,
// when a re-registration bumped the epoch), or false.
func (r *Registry) HandleForJob(id int64) (Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best Handle
	found := false
	for _, e := range r.entries {
		if e.jobID == id && !e.gone && (!found || e.h.Epoch > best.Epoch) {
			best, found = e.h, true
		}
	}
	return best, found
}

// Retained reports whether any live handle retains the named storage
// array — the check the job service's teardown paths make before deleting.
func (r *Registry) Retained(array string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.gone {
			continue
		}
		for _, a := range e.arrays {
			if a == array {
				return true
			}
		}
	}
	return false
}

// RetireJob drops the origin lease of every handle job id registered — the
// owning-job-retirement edge of the lifetime machine (a failed or
// cancelled job's result must not stay resolvable). Returns the handles
// whose origin lease was released.
func (r *Registry) RetireJob(id int64) []Handle {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	var victims []*entry
	for _, e := range r.entries {
		if e.jobID != id || e.gone {
			continue
		}
		if _, held := e.owners[OwnerOrigin]; held {
			victims = append(victims, e)
		}
	}
	var out []Handle
	for _, e := range victims {
		delete(e.owners, OwnerOrigin)
		out = append(out, e.h)
		// releasedLocked unlocks; re-take for the next victim.
		r.releasedLocked(e, OwnerOrigin)
		r.mu.Lock()
	}
	r.mu.Unlock()
	return out
}

// Sweep releases the origin lease of every handle whose TTL deadline has
// passed, returning how many expired. doocserve calls it periodically.
func (r *Registry) Sweep(now time.Time) int {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	var victims []*entry
	for _, e := range r.entries {
		if e.gone || e.deadline.IsZero() || e.deadline.After(now) {
			continue
		}
		if _, held := e.owners[OwnerOrigin]; held {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		delete(e.owners, OwnerOrigin)
		r.m.expired.Inc()
		r.releasedLocked(e, OwnerOrigin)
		r.mu.Lock()
	}
	r.mu.Unlock()
	return len(victims)
}

// ObserveResolve feeds the resolve-side series: call once per successful
// end-to-end resolution with the payload size and wall seconds.
func (r *Registry) ObserveResolve(bytes int64, seconds float64) {
	r.m.resolved.Inc()
	r.m.resolvedBytes.Add(bytes)
	r.m.resolveSeconds.Observe(seconds)
}

// Status is one handle's externally visible state (the /proxies endpoint).
type Status struct {
	Handle
	Tenant   string    `json:"tenant,omitempty"`
	JobID    int64     `json:"job"`
	Refs     int       `json:"refs"`
	Owners   []string  `json:"owners,omitempty"`
	Pins     int       `json:"pins,omitempty"`
	Deadline time.Time `json:"deadline,omitempty"`
}

// List snapshots every live handle, ordered by name then epoch.
func (r *Registry) List() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, 0, len(r.entries))
	for _, e := range r.entries {
		if e.gone {
			continue
		}
		st := Status{
			Handle: e.h,
			Tenant: e.tenant,
			JobID:  e.jobID,
			Refs:   e.refs,
			Pins:   e.pins,
		}
		for o := range e.owners {
			st.Owners = append(st.Owners, o)
		}
		sort.Strings(st.Owners)
		if !e.deadline.IsZero() {
			st.Deadline = e.deadline
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Name != out[k].Name {
			return out[i].Name < out[k].Name
		}
		return out[i].Epoch < out[k].Epoch
	})
	return out
}

// Recover rebuilds the registry from the journal's live proxy records.
// Call once after NewRegistry, before serving traffic. Returns the number
// of handles rebuilt. No-op without a store.
func (r *Registry) Recover() (int, error) {
	if r.cfg.Store == nil {
		return 0, nil
	}
	recs := r.cfg.Store.ProxyRecords()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range recs {
		key := Ref{Name: rec.Name, Epoch: rec.Epoch}.String()
		if _, ok := r.entries[key]; ok {
			continue // recovered already (Recover called twice)
		}
		e := &entry{
			h: Handle{
				Name:   rec.Name,
				Epoch:  rec.Epoch,
				SHA256: rec.SHA256,
				Length: rec.Length,
				Scope:  rec.Scope,
			},
			tenant:   rec.Tenant,
			jobID:    rec.JobID,
			arrays:   append([]string(nil), rec.Arrays...),
			refs:     rec.Refs,
			owners:   make(map[string]struct{}, len(rec.Owners)),
			deadline: rec.Deadline,
		}
		for _, o := range rec.Owners {
			e.owners[o] = struct{}{}
		}
		r.entries[key] = e
		if rec.Epoch > r.latest[rec.Name] {
			r.latest[rec.Name] = rec.Epoch
		}
		r.m.registered.Inc()
		r.m.count.Add(1)
		n++
	}
	return n, nil
}

// journalLocked appends the entry's current durable state (a tombstone
// when gone). No-op without a store.
func (r *Registry) journalLocked(e *entry) error {
	if r.cfg.Store == nil {
		return nil
	}
	rec := jobstore.ProxyRecord{
		Name:     e.h.Name,
		Epoch:    e.h.Epoch,
		SHA256:   e.h.SHA256,
		Length:   e.h.Length,
		Scope:    e.h.Scope,
		Tenant:   e.tenant,
		JobID:    e.jobID,
		Arrays:   e.arrays,
		Refs:     e.refs,
		Deadline: e.deadline,
		Released: e.gone,
	}
	for o := range e.owners {
		rec.Owners = append(rec.Owners, o)
	}
	sort.Strings(rec.Owners)
	return r.cfg.Store.AppendProxy(rec)
}

// Close marks the registry closed; subsequent mutations fail with
// ErrClosed. It does not reclaim live handles — they are durable state.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}
