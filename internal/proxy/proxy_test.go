package proxy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/jobstore"
	"dooc/internal/obs"
)

// mustRegister registers a handle that holds a payload of its length.
func mustRegister(t *testing.T, r *Registry, name, tenant string, job int64, sha string, length int64, arrays ...string) Handle {
	t.Helper()
	h, err := r.Register(RegisterRequest{Name: name, Tenant: tenant, JobID: job, SHA256: sha, Length: length, Arrays: arrays,
		Payload: make([]byte, length)})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return h
}

func TestRefParseRoundTrip(t *testing.T) {
	for _, s := range []string{"job1@1", "job12@3@nodeB"} {
		ref, err := ParseRef(s)
		if err != nil {
			t.Fatalf("ParseRef(%q): %v", s, err)
		}
		if ref.String() != s {
			t.Fatalf("round trip %q -> %q", s, ref.String())
		}
	}
	for _, s := range []string{"", "job1", "@1", "job1@0", "job1@x", "a@1@b@c"} {
		if _, err := ParseRef(s); err == nil {
			t.Fatalf("ParseRef(%q) accepted", s)
		}
	}
}

func TestLifetimeStateMachine(t *testing.T) {
	var reclaimed []string
	var mu sync.Mutex
	r := NewRegistry(Config{Scope: "nodeA", OnReclaim: func(h Handle, arrays []string) {
		mu.Lock()
		reclaimed = append(reclaimed, h.String())
		mu.Unlock()
	}})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 64, "job1:x_3_0", "job1:x_3_1")
	if h.Scope != "nodeA" || h.Epoch != 1 {
		t.Fatalf("handle %+v", h)
	}
	// Anonymous addref then release: handle stays live on the origin lease.
	if _, err := r.AddRef(h.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	if n, err := r.Release(h.Ref(), ""); err != nil || n != 1 {
		t.Fatalf("release anon: n=%d err=%v", n, err)
	}
	if !r.Retained("job1:x_3_1") {
		t.Fatal("live handle does not retain its arrays")
	}
	// Anonymous release with no refs outstanding drops the origin lease:
	// the handle goes gone and is reclaimed (nothing pins it).
	if n, err := r.Release(h.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("release origin: n=%d err=%v", n, err)
	}
	if _, _, err := r.Stat(h.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("stat after last release: %v", err)
	}
	if _, err := r.Acquire(h.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("acquire after last release: %v", err)
	}
	if r.Retained("job1:x_3_0") {
		t.Fatal("reclaimed handle still retains arrays")
	}
	mu.Lock()
	got := append([]string(nil), reclaimed...)
	mu.Unlock()
	if len(got) != 1 || got[0] != "job1@1@nodeA" {
		t.Fatalf("reclaimed %v", got)
	}
	// A ref never issued is unknown, not gone.
	if _, _, err := r.Stat(Ref{Name: "job9", Epoch: 1}); !errors.Is(err, ErrUnknownProxy) {
		t.Fatalf("unknown handle: %v", err)
	}
	// Releasing the gone handle again reports no refs.
	if _, err := r.Release(h.Ref(), ""); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("double release: %v", err)
	}
}

func TestPinDefersReclaim(t *testing.T) {
	var reclaims atomic.Int64
	r := NewRegistry(Config{OnReclaim: func(Handle, []string) { reclaims.Add(1) }})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 8, "job1:x_1_0")
	pin, err := r.Acquire(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Release(h.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("release under pin: n=%d err=%v", n, err)
	}
	// Gone but pinned: the arrays must survive until the pin closes.
	if reclaims.Load() != 0 {
		t.Fatal("reclaimed while pinned")
	}
	if _, err := r.Acquire(h.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("new acquire of gone handle: %v", err)
	}
	pin.Close()
	pin.Close() // idempotent
	if reclaims.Load() != 1 {
		t.Fatalf("reclaims=%d after pin close", reclaims.Load())
	}
}

// TestPayloadHeldUntilReclaim: the entry owns the registered bytes — a pin
// sees the very slice, a release under the pin keeps them, and reclaim lets
// go of them and of their resident bytes. A recovered handle holds none.
func TestPayloadHeldUntilReclaim(t *testing.T) {
	oreg := obs.NewRegistry()
	store, err := jobstore.Open(t.TempDir(), jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRegistry(Config{Store: store, Obs: oreg})
	payload := []byte("eight by")
	h, err := r.Register(RegisterRequest{Name: "job1", JobID: 1, SHA256: "aa", Length: 8, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if got := oreg.Sum("dooc_proxy_resident_bytes"); got != 8 {
		t.Fatalf("resident bytes %d after register, want 8", got)
	}
	pin, err := r.Acquire(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if len(pin.Payload) != 8 || &pin.Payload[0] != &payload[0] {
		t.Fatal("pin does not expose the registered bytes")
	}
	if _, err := r.Release(h.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	if got := oreg.Sum("dooc_proxy_resident_bytes"); got != 8 {
		t.Fatalf("resident bytes %d while pinned, want 8", got)
	}
	pin.Close()
	if got := oreg.Sum("dooc_proxy_resident_bytes"); got != 0 {
		t.Fatalf("resident bytes %d after reclaim, want 0", got)
	}

	kept, err := r.Register(RegisterRequest{Name: "job2", JobID: 2, SHA256: "bb", Length: 8, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(Config{Store: store, Obs: obs.NewRegistry()})
	if _, err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	pin, err = r2.Acquire(kept.Ref())
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	if pin.Payload != nil {
		t.Fatal("a recovered handle holds payload bytes the journal never had")
	}
}

func TestIdempotentReRegisterAndEpochBump(t *testing.T) {
	r := NewRegistry(Config{})
	h1 := mustRegister(t, r, "job1", "t", 1, "aa", 8, "job1:x_1_0")
	// Same payload identity: same handle back, arrays repointed.
	h2 := mustRegister(t, r, "job1", "t", 1, "aa", 8, "job1@2:x_1_0")
	if h1 != h2 {
		t.Fatalf("re-register bumped handle: %v vs %v", h1, h2)
	}
	if !r.Retained("job1@2:x_1_0") || r.Retained("job1:x_1_0") {
		t.Fatal("re-register did not repoint the retained arrays")
	}
	// Changed payload: new epoch, and the old handle keeps resolving its own
	// (still-live) entry.
	h3 := mustRegister(t, r, "job1", "t", 1, "bb", 8)
	if h3.Epoch != 2 {
		t.Fatalf("epoch %d after payload change", h3.Epoch)
	}
	if _, _, err := r.Stat(h1.Ref()); err != nil {
		t.Fatalf("old epoch gone after bump: %v", err)
	}
}

func TestNamedOwnersIdempotent(t *testing.T) {
	r := NewRegistry(Config{})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 8)
	for i := 0; i < 3; i++ { // re-take is a no-op
		if _, err := r.AddRef(h.Ref(), "job7"); err != nil {
			t.Fatal(err)
		}
	}
	if _, refs, _ := r.Stat(h.Ref()); refs != 2 { // origin + job7
		t.Fatalf("refs=%d", refs)
	}
	if n, err := r.Release(h.Ref(), "job7"); err != nil || n != 1 {
		t.Fatalf("owner release: n=%d err=%v", n, err)
	}
	// Releasing a non-held owner is a crash-safe no-op.
	if n, err := r.Release(h.Ref(), "job7"); err != nil || n != 1 {
		t.Fatalf("idempotent owner release: n=%d err=%v", n, err)
	}
}

func TestQuotas(t *testing.T) {
	r := NewRegistry(Config{MaxPerTenant: 1, MaxBytesPerTenant: 100})
	mustRegister(t, r, "a", "t1", 1, "aa", 60)
	if _, err := r.Register(RegisterRequest{Name: "b", Tenant: "t1", JobID: 2, SHA256: "bb", Length: 8}); !errors.Is(err, ErrProxyQuota) {
		t.Fatalf("count quota: %v", err)
	}
	// Another tenant is unaffected; its byte cap binds independently.
	mustRegister(t, r, "c", "t2", 3, "cc", 60)
	if _, err := r.Register(RegisterRequest{Name: "d", Tenant: "t2", JobID: 4, SHA256: "dd", Length: 60}); !errors.Is(err, ErrProxyQuota) {
		t.Fatalf("byte quota: %v", err)
	}
	// Releasing frees quota headroom.
	if _, err := r.Release(Ref{Name: "a", Epoch: 1}, ""); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, r, "b", "t1", 2, "bb", 8)
}

func TestTTLSweep(t *testing.T) {
	r := NewRegistry(Config{TTL: time.Minute})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 8)
	if n := r.Sweep(time.Now()); n != 0 {
		t.Fatalf("premature expiry of %d handles", n)
	}
	// A client still holding a reference keeps the payload past expiry.
	if _, err := r.AddRef(h.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	if n := r.Sweep(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if _, _, err := r.Stat(h.Ref()); err != nil {
		t.Fatalf("handle with live client ref expired away: %v", err)
	}
	if n, err := r.Release(h.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("final release: n=%d err=%v", n, err)
	}
	if _, _, err := r.Stat(h.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("after final release: %v", err)
	}
}

// TestHammer races anonymous addref/release against acquires and the final
// origin release across many goroutines: every acquire must either pin the
// whole entry (arrays intact) or fail with a typed lifetime error — and the
// registry must end fully reclaimed with reconciling metrics.
func TestHammer(t *testing.T) {
	const handles = 8
	const workers = 6
	const rounds = 200
	oreg := obs.NewRegistry()
	var reclaims atomic.Int64
	r := NewRegistry(Config{Obs: oreg, OnReclaim: func(h Handle, arrays []string) {
		if len(arrays) != 2 {
			t.Errorf("reclaim %s with %d arrays", h, len(arrays))
		}
		reclaims.Add(1)
	}})
	refs := make([]Ref, handles)
	for i := range refs {
		h := mustRegister(t, r, fmt.Sprintf("job%d", i), "t", int64(i), "aa", 16,
			fmt.Sprintf("job%d:x_1_0", i), fmt.Sprintf("job%d:x_1_1", i))
		refs[i] = h.Ref()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ref := refs[(w+i)%handles]
				switch i % 3 {
				case 0:
					if _, err := r.AddRef(ref, ""); err == nil {
						if _, err := r.Release(ref, ""); err != nil && !errors.Is(err, ErrProxyGone) {
							t.Errorf("release after addref: %v", err)
						}
					} else if !errors.Is(err, ErrProxyGone) {
						t.Errorf("addref: %v", err)
					}
				case 1:
					pin, err := r.Acquire(ref)
					if err != nil {
						if !errors.Is(err, ErrProxyGone) {
							t.Errorf("acquire: %v", err)
						}
						continue
					}
					if len(pin.Arrays) != 2 || !pin.Handle.Valid() {
						t.Errorf("partial pin: %+v", pin.Handle)
					}
					pin.Close()
				case 2:
					if i > rounds/2 {
						// The final-release edge the race is about.
						if _, err := r.Release(ref, ""); err != nil &&
							!errors.Is(err, ErrProxyGone) && !errors.Is(err, ErrNoRefs) {
							t.Errorf("origin release: %v", err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain whatever survived, then reconcile.
	for _, ref := range refs {
		for {
			if _, err := r.Release(ref, ""); err != nil {
				break
			}
		}
	}
	if live := len(r.List()); live != 0 {
		t.Fatalf("%d handles survived the drain", live)
	}
	if reclaims.Load() != handles {
		t.Fatalf("reclaims=%d want %d", reclaims.Load(), handles)
	}
	reconcileMetrics(t, oreg, r)
}

// reconcileMetrics asserts the dooc_proxy_* series agree exactly with the
// registry's state: registered - reclaimed == live handles, and resident
// bytes equal the sum of live lengths (every handle mustRegister makes holds
// its payload).
func reconcileMetrics(t *testing.T, oreg *obs.Registry, r *Registry) {
	t.Helper()
	live := r.List()
	var bytes int64
	for _, st := range live {
		bytes += st.Length
	}
	reg := oreg.Sum("dooc_proxy_registered_total")
	rec := oreg.Sum("dooc_proxy_reclaimed_total")
	if got := oreg.Sum("dooc_proxy_handles"); got != reg-rec || got != int64(len(live)) {
		t.Fatalf("handles gauge %d, registered-reclaimed %d, live %d", got, reg-rec, len(live))
	}
	if got := oreg.Sum("dooc_proxy_resident_bytes"); got != bytes {
		t.Fatalf("resident bytes gauge %d, live sum %d", got, bytes)
	}
}

func TestMetricsReconcile(t *testing.T) {
	oreg := obs.NewRegistry()
	r := NewRegistry(Config{Obs: oreg})
	a := mustRegister(t, r, "a", "t", 1, "aa", 10)
	mustRegister(t, r, "b", "t", 2, "bb", 20)
	reconcileMetrics(t, oreg, r)
	if _, err := r.Release(a.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	reconcileMetrics(t, oreg, r)
}

// TestRestartRecovery journals a mixed-lifetime population through a real
// jobstore, kills it, and asserts the rebuilt registry's handles, refcounts,
// owners, and gone/unknown discrimination match the pre-crash state.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{Store: store, Scope: "nodeA"})
	a := mustRegister(t, r, "a", "t1", 1, "aa", 10, "job1:x_2_0")
	b := mustRegister(t, r, "b", "t2", 2, "bb", 20)
	if _, err := r.AddRef(a.Ref(), ""); err != nil { // anonymous wire ref
		t.Fatal(err)
	}
	if _, err := r.AddRef(a.Ref(), "job3"); err != nil { // consumer job
		t.Fatal(err)
	}
	if _, err := r.Release(b.Ref(), ""); err != nil { // b@1 tombstoned
		t.Fatal(err)
	}
	// Re-register b with a changed payload: epoch 2, so the recovered
	// latest map still knows epoch 1 was once issued.
	if b2 := mustRegister(t, r, "b", "t2", 2, "b2", 20); b2.Epoch != 2 {
		t.Fatalf("re-register after tombstone: %+v", b2)
	}
	want := r.List()
	store.Close() // crash: no compaction, WAL tail is what recovery sees

	store2, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := NewRegistry(Config{Store: store2, Scope: "nodeA"})
	n, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d handles, want 2", n)
	}
	got := r2.List()
	if len(got) != len(want) {
		t.Fatalf("recovered %d live handles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Handle != want[i].Handle || got[i].Refs != want[i].Refs ||
			got[i].Tenant != want[i].Tenant || got[i].JobID != want[i].JobID ||
			fmt.Sprint(got[i].Owners) != fmt.Sprint(want[i].Owners) {
			t.Fatalf("recovered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !r2.Retained("job1:x_2_0") {
		t.Fatal("recovered handle lost its retained arrays")
	}
	// The tombstoned epoch answers gone (not unknown): the live epoch-2
	// record rebuilt the latest map past it. An epoch never issued stays
	// unknown.
	if _, _, err := r2.Stat(b.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("tombstoned handle after recovery: %v", err)
	}
	if _, _, err := r2.Stat(Ref{Name: "b", Epoch: 3}); !errors.Is(err, ErrUnknownProxy) {
		t.Fatalf("never-issued epoch after recovery: %v", err)
	}
	// The anonymous ref survived: two releases reach the origin, three fail.
	if n, err := r2.Release(a.Ref(), "job3"); err != nil || n != 2 {
		t.Fatalf("owner release after recovery: n=%d err=%v", n, err)
	}
	if n, err := r2.Release(a.Ref(), ""); err != nil || n != 1 {
		t.Fatalf("anon release after recovery: n=%d err=%v", n, err)
	}
	if n, err := r2.Release(a.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("origin release after recovery: n=%d err=%v", n, err)
	}
	if _, _, err := r2.Stat(a.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("after full drain: %v", err)
	}
}

// TestRetireJob drops the origin lease of a job's handles (the failed /
// cancelled retirement edge) while client references keep them alive.
func TestRetireJob(t *testing.T) {
	r := NewRegistry(Config{})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 8)
	keep := mustRegister(t, r, "job2", "t", 2, "bb", 8)
	if _, err := r.AddRef(keep.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	if got := r.RetireJob(1); len(got) != 1 || got[0] != h {
		t.Fatalf("retire job 1: %v", got)
	}
	if _, _, err := r.Stat(h.Ref()); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("retired handle: %v", err)
	}
	// Job 2's handle loses only its origin lease; the client ref holds it.
	if got := r.RetireJob(2); len(got) != 1 {
		t.Fatalf("retire job 2: %v", got)
	}
	if _, _, err := r.Stat(keep.Ref()); err != nil {
		t.Fatalf("client-held handle died at retirement: %v", err)
	}
}

func TestHandleForJob(t *testing.T) {
	r := NewRegistry(Config{})
	mustRegister(t, r, "job1", "t", 1, "aa", 8)
	h2 := mustRegister(t, r, "job1", "t", 1, "bb", 8) // epoch bump
	got, ok := r.HandleForJob(1)
	if !ok || got != h2 {
		t.Fatalf("HandleForJob = %v, %v", got, ok)
	}
	if _, ok := r.HandleForJob(9); ok {
		t.Fatal("HandleForJob invented a handle")
	}
}

func TestClosedRegistry(t *testing.T) {
	r := NewRegistry(Config{})
	h := mustRegister(t, r, "job1", "t", 1, "aa", 8)
	r.Close()
	if _, err := r.Register(RegisterRequest{Name: "x", SHA256: "cc", Length: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
	if _, err := r.AddRef(h.Ref(), ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("addref after close: %v", err)
	}
	if _, err := r.Acquire(h.Ref()); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
}
