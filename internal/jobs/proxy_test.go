package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobstore"
	"dooc/internal/proxy"
)

func proxyService(t *testing.T, reg *proxy.Registry) (*SolverService, *core.System) {
	t.Helper()
	svc, sys := newTestService(t, Config{MaxRunning: 2, QueueDepth: 16, Proxy: reg})
	t.Cleanup(reg.Close)
	return svc, sys
}

func retainReclaim(sys *core.System) func(proxy.Handle, []string) {
	return func(_ proxy.Handle, arrays []string) {
		for _, a := range arrays {
			core.DropArray(sys, a)
		}
	}
}

// TestProxyChainBitIdentical is the dataflow acceptance test: job A's
// registered result feeds job B by reference, and B's output is
// bit-identical to one uninterrupted run of iters(A)+iters(B) from A's
// seed. The consumer's named reference on A is released at B's retirement.
func TestProxyChainBitIdentical(t *testing.T) {
	reg := proxy.NewRegistry(proxy.Config{})
	svc, sys := proxyService(t, reg)

	a, err := svc.Submit(SolveRequest{Tenant: "alice", Iters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	aBytes, err := svc.Manager.Result(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	h, err := svc.Manager.ResultProxy(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h.Length != int64(len(aBytes)) {
		t.Fatalf("handle length %d, result %d bytes", h.Length, len(aBytes))
	}
	// Resolution through the registry reproduces the by-value bytes exactly
	// (collected from the retained arrays, SHA-verified).
	resolved, err := svc.ResolveProxy(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resolved, aBytes) {
		t.Fatal("resolved proxy bytes differ from the by-value result")
	}

	b, err := svc.Submit(SolveRequest{Tenant: "bob", Iters: 2, Input: h.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	bBytes, err := svc.Manager.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, sys, svc.Base(), SolveRequest{Iters: 5, Seed: 7}, "chainref")
	if !bytes.Equal(bBytes, want) {
		t.Fatal("chained A->B result differs from the unchained 5-iteration run")
	}

	// B's retirement releases its consumer reference; A's handle settles
	// back to the origin lease alone.
	deadline := time.After(5 * time.Second)
	for {
		if _, refs, err := svc.ProxyStat(h.Ref()); err == nil && refs == 1 {
			break
		}
		select {
		case <-deadline:
			_, refs, err := svc.ProxyStat(h.Ref())
			t.Fatalf("A's refs never settled: refs=%d err=%v", refs, err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// B registered its own handle too — both jobs' results are addressable.
	if _, err := svc.Manager.ResultProxy(b.ID); err != nil {
		t.Fatalf("consumer job has no handle: %v", err)
	}
}

// TestProxyInputValidatedAtSubmit: a chained submit naming a handle the
// registry never issued is rejected up front with the typed error, not at
// run time.
func TestProxyInputValidatedAtSubmit(t *testing.T) {
	reg := proxy.NewRegistry(proxy.Config{})
	svc, _ := proxyService(t, reg)
	_, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1, Input: proxy.Ref{Name: "job99", Epoch: 1}})
	if !errors.Is(err, proxy.ErrUnknownProxy) {
		t.Fatalf("unknown input accepted: %v", err)
	}
}

// TestCancelledConsumerReleasesInput: failure-path teardown routes through
// the refcount — a consumer job cancelled before (or while) running still
// drops its named reference on the input handle.
func TestCancelledConsumerReleasesInput(t *testing.T) {
	reg := proxy.NewRegistry(proxy.Config{})
	svc, _ := newTestService(t, Config{MaxRunning: 1, QueueDepth: 16, Proxy: reg})
	t.Cleanup(reg.Close)

	a, err := svc.Submit(SolveRequest{Tenant: "alice", Iters: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := svc.ResultProxy(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single slot so the consumer stays queued, then cancel it.
	blocker, err := svc.Submit(SolveRequest{Tenant: "alice", Iters: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := svc.Submit(SolveRequest{Tenant: "bob", Iters: 1, Input: h.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.ProxyStat(h.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Manager.Cancel(consumer.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		_, refs, err := svc.ProxyStat(h.Ref())
		if err == nil && refs == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cancelled consumer kept its input ref: refs=%d err=%v", refs, err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := svc.Manager.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredResultConcurrentCallers: after a restart, concurrent callers
// of a recovered job's Result each read the journaled result file and all
// get the bytes the job produced before the restart.
func TestRecoveredResultConcurrentCallers(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	store, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, root)
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store})
	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Manager.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	svc.Manager.Drain()
	sys.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sys2 := durableSystem(t, root)
	defer sys2.Close()
	svc2 := NewSolverService(sys2, base, Config{MaxRunning: 1, QueueDepth: 4, Store: re})
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := svc2.Manager.Result(st.ID)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	svc2.Manager.Drain()
}

// TestProxyRecoveryReassociates: handles journaled through the job store
// survive a full restart — Recover rebuilds the registry, re-associates
// each handle with its job, and the handle resolves to the same bytes
// (served from the durable result after the in-memory arrays died with the
// old process).
func TestProxyRecoveryReassociates(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	store, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, root)
	reg := proxy.NewRegistry(proxy.Config{Store: store, Scope: "nodeA", OnReclaim: retainReclaim(sys)})
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store, Proxy: reg})
	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Manager.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	h, err := svc.ResultProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	svc.Manager.Drain()
	reg.Close()
	sys.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sys2 := durableSystem(t, root)
	defer sys2.Close()
	reg2 := proxy.NewRegistry(proxy.Config{Store: re, Scope: "nodeA", OnReclaim: retainReclaim(sys2)})
	defer reg2.Close()
	svc2 := NewSolverService(sys2, base, Config{MaxRunning: 1, QueueDepth: 4, Store: re, Proxy: reg2})
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	h2, err := svc2.ResultProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("recovered handle %+v, want %+v", h2, h)
	}
	got, err := svc2.ResolveProxy(h2.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-restart resolve differs from the pre-crash result")
	}
	// Chaining still works across the restart: a consumer of the recovered
	// handle extends the pre-crash computation bit-identically.
	b, err := svc2.Submit(SolveRequest{Tenant: "b", Iters: 2, Input: h2.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	bBytes, err := svc2.Manager.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialReference(t, sys2, base, SolveRequest{Iters: 5, Seed: 5}, "postcrash")
	if !bytes.Equal(bBytes, ref) {
		t.Fatal("post-restart chained result differs from the unchained run")
	}
	svc2.Manager.Drain()
}

// TestResultProxyWithoutRegistry: the by-reference surface fails typed, not
// silently, when the proxy plane is disabled.
func TestResultProxyWithoutRegistry(t *testing.T) {
	svc, _ := newTestService(t, Config{MaxRunning: 1})
	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.Result(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.ResultProxy(st.ID); !errors.Is(err, ErrNoProxy) {
		t.Fatalf("ResultProxy without registry: %v", err)
	}
	if _, err := svc.ResolveProxy(proxy.Ref{Name: "job1", Epoch: 1}); !errors.Is(err, ErrNoProxy) {
		t.Fatalf("ResolveProxy without registry: %v", err)
	}
}

// TestProxyReleaseReclaimsArrays: dropping the origin lease through the
// service surface reclaims the retained iterate arrays from storage.
func TestProxyReleaseReclaimsArrays(t *testing.T) {
	var mu sync.Mutex
	var reclaimed []string
	reg := proxy.NewRegistry(proxy.Config{OnReclaim: func(_ proxy.Handle, arrays []string) {
		mu.Lock()
		reclaimed = append(reclaimed, arrays...)
		mu.Unlock()
	}})
	svc, _ := proxyService(t, reg)
	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.Result(st.ID); err != nil {
		t.Fatal(err)
	}
	h, err := svc.ResultProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := svc.ProxyRelease(h.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("release: n=%d err=%v", n, err)
	}
	mu.Lock()
	n := len(reclaimed)
	mu.Unlock()
	if n == 0 {
		t.Fatal("release reclaimed no arrays")
	}
	if _, err := svc.ResolveProxy(h.Ref()); !errors.Is(err, proxy.ErrProxyGone) {
		t.Fatalf("resolve after release: %v", err)
	}
	// The arrays the registry reclaimed are the job's final iterate.
	for _, a := range reclaimed {
		if want := fmt.Sprintf("job%d:", st.ID); len(a) < len(want) || a[:len(want)] != want {
			t.Fatalf("reclaimed foreign array %q", a)
		}
	}
}
