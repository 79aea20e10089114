package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/jobstore"
	"dooc/internal/sparse"
)

// newJobServer stands up a 2-node in-memory system with a loaded matrix, a
// solver service over it, and a TCP server exposing the job verbs. The
// returned cleanup must run before the test ends (it drains the manager so
// the system is quiescent when closed).
func newJobServer(t *testing.T, cfg jobs.Config) (*Client, *jobs.SolverService, *core.System, string) {
	t.Helper()
	cl, svc, sys, srv := startJobServer(t, cfg)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		svc.Manager.Drain()
		sys.Close()
	})
	return cl, svc, sys, srv.Addr()
}

// startJobServer is newJobServer without the cleanup: the caller closes
// the client, the server, the manager and the system, in that order.
func startJobServer(t *testing.T, cfg jobs.Config) (*Client, *jobs.SolverService, *core.System, *Server) {
	t.Helper()
	const dim, k, nodes = 400, 2, 2
	sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base := core.SpMVConfig{Dim: dim, K: k, Nodes: nodes}
	load := base
	load.Iters = 1
	if err := core.LoadMatrixInMemory(sys, m, load); err != nil {
		t.Fatal(err)
	}
	svc := jobs.NewSolverService(sys, base, cfg)
	srv, err := ListenOptions(sys.Store(0), "127.0.0.1:0", ServerOptions{Jobs: svc})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return cl, svc, sys, srv
}

// TestJobVerbsRoundTrip submits concurrent jobs over the wire, collects
// each result, and checks it bit-identical to a direct serial run of the
// same request on the same system.
func TestJobVerbsRoundTrip(t *testing.T) {
	cl, svc, sys, _ := newJobServer(t, jobs.Config{MaxRunning: 4, QueueDepth: 16})
	reqs := []jobs.SolveRequest{
		{Tenant: "alice", Priority: 2, Iters: 3, Seed: 101, MemoryBytes: 1 << 22},
		{Tenant: "bob", Priority: 7, Iters: 4, Seed: 202},
		{Tenant: "carol", Priority: 4, Iters: 2, Seed: 303, ScratchBytes: 1 << 30},
	}
	type sub struct {
		st  jobs.JobStatus
		err error
	}
	subs := make([]sub, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r jobs.SolveRequest) {
			defer wg.Done()
			st, err := cl.SubmitJob(r)
			subs[i] = sub{st, err}
		}(i, r)
	}
	wg.Wait()
	for i, s := range subs {
		if s.err != nil {
			t.Fatalf("submit %d: %v", i, s.err)
		}
		if s.st.ID == 0 || s.st.Tenant != reqs[i].Tenant {
			t.Fatalf("submit %d: bad status %+v", i, s.st)
		}
	}
	for i, s := range subs {
		got, final, err := cl.JobResult(s.st.ID)
		if err != nil {
			t.Fatalf("result %d: %v", s.st.ID, err)
		}
		if final.State != "done" {
			t.Fatalf("job %d final state %s", s.st.ID, final.State)
		}
		cfg := svc.Base()
		cfg.Iters = reqs[i].Iters
		cfg.Tag = fmt.Sprintf("wire-ref%d", i)
		res, err := core.RunIteratedSpMV(sys, cfg, jobs.StartVector(svc.Base().Dim, reqs[i].Seed))
		if err != nil {
			t.Fatal(err)
		}
		core.DeleteSpMVArrays(sys, cfg)
		if want := jobs.EncodeFloat64s(res.X); !bytes.Equal(got, want) {
			t.Fatalf("job %d wire result differs from serial run", s.st.ID)
		}
	}

	// Status of a finished job and the full listing agree.
	st, err := cl.JobStatus(subs[0].st.ID)
	if err != nil || st.State != "done" {
		t.Fatalf("status = %+v, %v", st, err)
	}
	ls, err := cl.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != len(reqs) {
		t.Fatalf("list has %d jobs, want %d", len(ls), len(reqs))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].ID <= ls[i-1].ID {
			t.Fatalf("list not ID-ordered: %+v", ls)
		}
	}
}

// TestJobTypedErrorsOverWire drives every typed rejection across the
// protocol and asserts errors.Is still works on the client side.
func TestJobTypedErrorsOverWire(t *testing.T) {
	cl, _, _, _ := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 1, MemoryBudget: 1 << 20})

	// Unknown job.
	if _, err := cl.JobStatus(999); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("status err = %v, want ErrUnknownJob", err)
	}
	if err := cl.CancelJob(999); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("cancel err = %v, want ErrUnknownJob", err)
	}

	// Memory quota: a request bigger than the aggregate budget.
	if _, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "hog", Iters: 1, MemoryBytes: 2 << 20}); !errors.Is(err, jobs.ErrQuotaExceeded) {
		t.Fatalf("submit err = %v, want ErrQuotaExceeded", err)
	}

	// Queue full: occupy the single run slot with a long job, fill the
	// 1-deep queue, and watch the third submission bounce.
	long, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		st, err := cl.JobStatus(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			break
		}
		select {
		case <-deadline:
			t.Fatal("long job never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	queued, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 1, Seed: 3}); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("submit err = %v, want ErrQueueFull", err)
	}

	// Cancel both; the running job's result carries the typed error.
	if err := cl.CancelJob(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.CancelJob(long.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.JobResult(long.ID); !errors.Is(err, jobs.ErrCancelled) {
		t.Fatalf("result err = %v, want ErrCancelled", err)
	}
	if _, _, err := cl.JobResult(queued.ID); !errors.Is(err, jobs.ErrCancelled) {
		t.Fatalf("queued result err = %v, want ErrCancelled", err)
	}
	if st, err := cl.JobStatus(long.ID); err != nil || st.State != "cancelled" {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

// TestRecoveredCancelKeepsErrCancelled: a job cancelled while it runs
// under a durable store is still ErrCancelled after a restart, with the
// message it ended with, to the recovered manager and across the wire.
func TestRecoveredCancelKeepsErrCancelled(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, svc, sys, srv := startJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4, Store: store})
	long, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.Manager.Status(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.CancelJob(long.ID); err != nil {
		t.Fatal(err)
	}
	_, before := svc.Manager.Result(long.ID)
	if !errors.Is(before, jobs.ErrCancelled) {
		t.Fatalf("result err before the restart = %v, want ErrCancelled", before)
	}
	cl.Close()
	srv.Close()
	svc.Manager.Drain()
	sys.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cl2, svc2, _, _ := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4, Store: re})
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	_, after := svc2.Manager.Result(long.ID)
	if !errors.Is(after, jobs.ErrCancelled) || after.Error() != before.Error() {
		t.Fatalf("recovered result err = %v, want ErrCancelled %q", after, before)
	}
	if _, err := svc2.Manager.ResultProxy(long.ID); !errors.Is(err, jobs.ErrCancelled) {
		t.Fatalf("recovered result-proxy err = %v, want ErrCancelled", err)
	}
	_, _, wire := cl2.JobResult(long.ID)
	if !errors.Is(wire, jobs.ErrCancelled) || !strings.HasSuffix(wire.Error(), before.Error()) {
		t.Fatalf("recovered result over the wire = %v, want ErrCancelled %q", wire, before)
	}
}

// TestKeyedSubmitDedupAcrossReconnect simulates the client-retry story the
// idempotency key exists for: submit a keyed job, drop the connection, dial
// a fresh one (a reconnecting client that never saw its ack), and resubmit
// the identical request. The retry must land on the original job — same ID,
// same bytes — and the history verb must show exactly one terminal job.
func TestKeyedSubmitDedupAcrossReconnect(t *testing.T) {
	cl, _, _, addr := newJobServer(t, jobs.Config{MaxRunning: 2, QueueDepth: 8})
	req := jobs.SolveRequest{Tenant: "alice", Iters: 3, Seed: 77, Key: "submit-retry-1"}
	st, err := cl.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := cl.JobResult(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close() // the "lost" connection

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	dup, err := cl2.SubmitJob(req)
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if dup.ID != st.ID {
		t.Fatalf("retried keyed submit created job %d, original was %d", dup.ID, st.ID)
	}
	if dup.Key != req.Key {
		t.Fatalf("status key = %q, want %q", dup.Key, req.Key)
	}
	again, _, err := cl2.JobResult(dup.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("result after reconnect differs from the original")
	}
	// An unkeyed copy of the same request is a distinct job.
	unkeyed := req
	unkeyed.Key = ""
	fresh, err := cl2.SubmitJob(unkeyed)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == st.ID {
		t.Fatal("unkeyed submit deduplicated onto the keyed job")
	}
	if _, _, err := cl2.JobResult(fresh.ID); err != nil {
		t.Fatal(err)
	}
	hist, total, err := cl2.JobHistory(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(hist) != 2 {
		t.Fatalf("history = %d jobs (total %d), want 2", len(hist), total)
	}
	if hist[0].ID != st.ID || hist[0].Key != req.Key {
		t.Fatalf("history[0] = %+v, want job %d key %q", hist[0], st.ID, req.Key)
	}
}

// TestJobVerbsDisabled asserts a plain storage server rejects job verbs
// cleanly instead of crashing or hanging.
func TestJobVerbsDisabled(t *testing.T) {
	_, cl := startServer(t, "")
	if _, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 1}); err == nil {
		t.Fatal("submit on plain server succeeded")
	}
	if _, err := cl.ListJobs(); err == nil {
		t.Fatal("list on plain server succeeded")
	}
}

// TestJobHistoryHugeLimit: a history page request whose offset+limit
// overflows an int gets the clipped page, and the server keeps answering.
// It once panicked the handler goroutine, and with it the whole server.
func TestJobHistoryHugeLimit(t *testing.T) {
	cl, _, _, _ := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4})
	for seed := int64(1); seed <= 2; seed++ {
		st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.JobResult(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	page, total, err := cl.JobHistory(1, math.MaxInt)
	if err != nil || total != 2 || len(page) != 1 || page[0].ID != 2 {
		t.Fatalf("JobHistory(1, MaxInt) = %d jobs of %d, %v; want job 2 of 2", len(page), total, err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("server stopped answering after the history request: %v", err)
	}
}
