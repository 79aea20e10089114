package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobstore"
	"dooc/internal/proxy"
	"dooc/internal/spmv"
)

func proxyService(t *testing.T, reg *proxy.Registry) (*SolverService, *core.System) {
	t.Helper()
	svc, sys := newTestService(t, Config{MaxRunning: 2, QueueDepth: 16, Proxy: reg})
	t.Cleanup(reg.Close)
	return svc, sys
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
	// (the handle's payload, SHA-verified).
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
// (served from the job's result file after the in-memory payload died with
// the old process).
func TestProxyRecoveryReassociates(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	store, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, root)
	reg := proxy.NewRegistry(proxy.Config{Store: store, Scope: "nodeA"})
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
	reg2 := proxy.NewRegistry(proxy.Config{Store: re, Scope: "nodeA"})
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

// TestByReferenceJobKeepsNoArrays: a finished job's handle holds the
// result's bytes, not the job's storage arrays. In the in-memory and the
// durable service alike, while the handle is live no store knows any of the
// job's arrays (vectors, partials, checkpoints, segment runs), and the
// handle resolves to the bytes Manager.Result returns.
func TestByReferenceJobKeepsNoArrays(t *testing.T) {
	services := []struct {
		name string
		make func(t *testing.T) (*SolverService, *core.System)
	}{
		{"in-memory", func(t *testing.T) (*SolverService, *core.System) {
			return proxyService(t, proxy.NewRegistry(proxy.Config{}))
		}},
		{"durable", func(t *testing.T) (*SolverService, *core.System) {
			base, root, storeDir := durableFixture(t)
			store, err := jobstore.Open(storeDir, jobstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sys := durableSystem(t, root)
			reg := proxy.NewRegistry(proxy.Config{Store: store})
			svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store, Proxy: reg})
			t.Cleanup(func() {
				svc.Manager.Drain()
				reg.Close()
				sys.Close()
				store.Close()
			})
			return svc, sys
		}},
	}
	for _, tc := range services {
		t.Run(tc.name, func(t *testing.T) {
			svc, sys := tc.make(t)
			const iters = 3
			st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: iters, Seed: 9})
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
			// The retire hook purges a durable job's checkpoints just after
			// the job is published as done, so give it a moment.
			deadline := time.Now().Add(5 * time.Second)
			for {
				left := knownJobArrays(sys, svc.Base(), st.ID, iters)
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("live handle %s, yet the stores still know %v", h, left)
				}
				time.Sleep(time.Millisecond)
			}
			if _, refs, err := svc.ProxyStat(h.Ref()); err != nil || refs == 0 {
				t.Fatalf("handle not live: refs=%d err=%v", refs, err)
			}
			got, err := svc.ResolveProxy(h.Ref())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("resolved bytes differ from Manager.Result")
			}
		})
	}
}

// knownJobArrays lists the arrays of job id's run of iters iterations —
// under the job's tag and its first segment run's — that some store still
// answers Info for.
func knownJobArrays(sys *core.System, base core.SpMVConfig, id int64, iters int) []string {
	var names []string
	for _, prefix := range []string{fmt.Sprintf("job%d:", id), fmt.Sprintf("job%d@0:", id)} {
		for u := 0; u < base.K; u++ {
			for it := 0; it <= iters; it++ {
				names = append(names, prefix+spmv.VecArray(it, u))
				for v := 0; it > 0 && v < base.K; v++ {
					names = append(names, prefix+spmv.PartialArray(it, u, v))
				}
			}
		}
	}
	var known []string
	for _, name := range names {
		for node := 0; node < sys.Nodes(); node++ {
			if _, err := sys.Store(node).Info(name); err == nil {
				known = append(known, name)
				break
			}
		}
	}
	return known
}

// TestLiveHandleOutlivesHistoryPruning: history retention does not prune a
// done job's record, nor its result file, while a live handle names the
// job — a recovered handle resolves from that file. The record goes at the
// first compaction after the handle's release.
func TestLiveHandleOutlivesHistoryPruning(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	opts := jobstore.Options{RetainHistory: 2}
	store, err := jobstore.Open(storeDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, root)
	reg := proxy.NewRegistry(proxy.Config{Store: store, Scope: "nodeA"})
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store, Proxy: reg})
	first, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Manager.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	h, err := svc.ResultProxy(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Three more jobs, collected by value and released, push job 1 past
	// the retention bound.
	for seed := int64(1); seed <= 3; seed++ {
		st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Manager.Result(st.ID); err != nil {
			t.Fatal(err)
		}
		hn, err := svc.ResultProxy(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ProxyRelease(hn.Ref(), ""); err != nil {
			t.Fatal(err)
		}
	}
	svc.Manager.Drain()
	reg.Close()
	sys.Close()
	if err := store.Close(); err != nil { // compacts, applying retention
		t.Fatal(err)
	}

	re, err := jobstore.Open(storeDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sys2 := durableSystem(t, root)
	defer sys2.Close()
	reg2 := proxy.NewRegistry(proxy.Config{Store: re, Scope: "nodeA"})
	defer reg2.Close()
	svc2 := NewSolverService(sys2, base, Config{MaxRunning: 1, QueueDepth: 4, Store: re, Proxy: reg2})
	defer svc2.Manager.Drain()
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := svc2.ResolveProxy(h.Ref())
	if err != nil {
		t.Fatalf("resolving job %d's handle after the restart: %v", first.ID, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-restart resolve differs from the pre-crash result")
	}

	if n, err := svc2.ProxyRelease(h.Ref(), ""); err != nil || n != 0 {
		t.Fatalf("release: n=%d err=%v", n, err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range re.Records() {
		if rec.ID == first.ID {
			t.Fatalf("job %d's record survives the compaction after its handle's release", first.ID)
		}
	}
	if _, err := os.Stat(filepath.Join(storeDir, "results", fmt.Sprintf("job%d.res", first.ID))); !os.IsNotExist(err) {
		t.Fatalf("job %d's result file survives: %v", first.ID, err)
	}
}

// TestLegacyStoreResolves: a job-store directory written before result files
// were named by their job — its done records carry the file's name
// (ResultFile) and its proxy records the job's final-iterate arrays
// (Arrays) — opens, recovers, and resolves bit for bit. testdata/legacy_store
// was written by commit c196435 running durableFixture's geometry under a
// durable service with a proxy registry (scope "nodeA"): job 1 (3
// iterations, seed 5) was compacted into snapshot.gob, job 2 (2 iterations,
// seed 7) stayed in wal.log, and the store was then aborted like a crash.
func TestLegacyStoreResolves(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	copyTree(t, filepath.Join("testdata", "legacy_store"), storeDir)
	store, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys := durableSystem(t, root)
	defer sys.Close()
	reg := proxy.NewRegistry(proxy.Config{Store: store, Scope: "nodeA"})
	defer reg.Close()
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store, Proxy: reg})
	defer svc.Manager.Drain()
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, job := range []struct {
		id  int64
		req SolveRequest
	}{{1, SolveRequest{Iters: 3, Seed: 5}}, {2, SolveRequest{Iters: 2, Seed: 7}}} {
		want := serialReference(t, sys, base, job.req, fmt.Sprintf("legacy%d", job.id))
		byValue, err := svc.Manager.Result(job.id)
		if err != nil {
			t.Fatalf("job %d: %v", job.id, err)
		}
		h, err := svc.ResultProxy(job.id)
		if err != nil {
			t.Fatalf("job %d: %v", job.id, err)
		}
		byRef, err := svc.ResolveProxy(h.Ref())
		if err != nil {
			t.Fatalf("job %d: resolving %s: %v", job.id, h, err)
		}
		if !bytes.Equal(byValue, want) || !bytes.Equal(byRef, want) {
			t.Fatalf("job %d: recovered result differs from a fresh run", job.id)
		}
	}
}

// copyTree copies the files under src into dst, keeping their layout.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
