package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/sparse"
)

// durableFixture stages a small matrix under a temp scratch root and
// returns the base geometry plus the directory the job store lives in.
func durableFixture(t *testing.T) (core.SpMVConfig, string, string) {
	t.Helper()
	const dim, k, nodes = 96, 2, 2
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	base := core.SpMVConfig{Dim: dim, K: k, Nodes: nodes}
	stage := base
	stage.Iters = 1
	if err := core.StageMatrix(root, m, stage); err != nil {
		t.Fatal(err)
	}
	return base, root, filepath.Join(root, "ctrl")
}

func durableSystem(t *testing.T, root string) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Nodes:          2,
		WorkersPerNode: 2,
		MemoryBudget:   1 << 24,
		ScratchRoot:    root,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDurableJobJournalsLifecycle: a keyed job run to completion under a
// durable store survives a full restart — its record, result file, and
// SHA-256 replay into history, the durable result bytes match what the
// original manager returned, and the idempotency key still deduplicates.
func TestDurableJobJournalsLifecycle(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	store, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := durableSystem(t, root)
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store})
	st, err := svc.Submit(SolveRequest{Tenant: "alice", Iters: 3, Seed: 5, Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := svc.Manager.Result(st.ID)
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
	recs := re.Records()
	if len(recs) != 1 {
		t.Fatalf("reopened store has %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != st.ID || r.Key != "k1" || r.State != "done" {
		t.Fatalf("replayed record = %+v", r)
	}
	if r.ResultSHA == "" {
		t.Fatalf("done record missing durable result: %+v", r)
	}
	durable, err := re.LoadResult(r.ID, r.ResultSHA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(durable, data) {
		t.Fatal("durable result differs from the bytes the manager returned")
	}

	sys2 := durableSystem(t, root)
	defer sys2.Close()
	svc2 := NewSolverService(sys2, base, Config{MaxRunning: 1, QueueDepth: 4, Store: re})
	rec, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Historical != 1 || rec.Requeued != 0 || rec.Resumed != 0 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	hist, total := svc2.Manager.History(0, 10)
	if total != 1 || len(hist) != 1 || hist[0].ID != st.ID || hist[0].ResultSHA != r.ResultSHA {
		t.Fatalf("history = %+v (total %d)", hist, total)
	}
	got, err := svc2.Manager.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-restart result differs")
	}
	dup, err := svc2.Submit(SolveRequest{Tenant: "alice", Iters: 3, Seed: 5, Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != st.ID {
		t.Fatalf("keyed resubmit after restart created job %d, want %d", dup.ID, st.ID)
	}
	svc2.Manager.Drain()
}

// TestCrashRecoveryResumesBitIdentical is the acceptance test for the
// crash path: reconstruct the on-disk state a kill -9 leaves (journal
// acked through "running", checkpoints through iteration 2), recover, and require the resumed job's bytes to be
// identical to an uninterrupted run's — with only the post-checkpoint
// iterations recomputed.
func TestCrashRecoveryResumesBitIdentical(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	const (
		iters   = 5
		seed    = 13
		crashAt = 2
		jobID   = 1
		key     = "crash-key"
	)

	refSys := durableSystem(t, root)
	refCfg := base
	refCfg.Iters = iters
	refCfg.Tag = "ref"
	refRes, err := core.RunIteratedSpMV(refSys, refCfg, StartVector(base.Dim, seed))
	if err != nil {
		t.Fatal(err)
	}
	refSys.Close()
	want := EncodeFloat64s(refRes.X)

	// The "crash": a checkpointed run to crashAt, and a journal frozen
	// mid-lifecycle.
	sys1 := durableSystem(t, root)
	crashCfg := base
	crashCfg.Iters = crashAt
	crashCfg.Tag = fmt.Sprintf("job%d", jobID)
	if _, _, err := core.ResumeIteratedSpMV(sys1, crashCfg, StartVector(base.Dim, seed)); err != nil {
		t.Fatal(err)
	}
	sys1.Close()
	ckCfg := base
	ckCfg.Iters = iters
	ckCfg.Tag = crashCfg.Tag
	ck, err := core.LatestCheckpoint(root, ckCfg)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint on disk after the crashed run: %v", err)
	}
	store1, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jrec := jobstore.Record{
		ID:          jobID,
		Key:         key,
		Tenant:      "alice",
		Payload:     []byte(fmt.Sprintf(`{"iters":%d,"seed":%d}`, iters, seed)),
		State:       "queued",
		SubmittedAt: time.Now(),
	}
	if err := store1.Append(jrec); err != nil {
		t.Fatal(err)
	}
	jrec.State = "running"
	jrec.StartedAt = time.Now()
	if err := store1.Append(jrec); err != nil {
		t.Fatal(err)
	}
	store1.Abort()

	store2, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sys2 := durableSystem(t, root)
	defer sys2.Close()
	reg := obs.NewRegistry()
	svc2 := NewSolverService(sys2, base, Config{MaxRunning: 1, QueueDepth: 4, Store: store2, Obs: reg})
	rec, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed != 1 || rec.Requeued != 0 || rec.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want exactly one resumed job", rec)
	}
	dup, err := svc2.Submit(SolveRequest{Tenant: "alice", Iters: iters, Seed: seed, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != jobID {
		t.Fatalf("keyed resubmit during recovery created job %d, want %d", dup.ID, jobID)
	}
	got, err := svc2.Manager.Result(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered result differs from the uninterrupted reference")
	}
	final, err := svc2.Manager.Status(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Resumed != 1 {
		t.Fatalf("status reports %d resumptions, want 1", final.Resumed)
	}
	if final.ResultSHA == "" {
		t.Fatal("done job has no durable result SHA")
	}
	// The iterations recovery skipped are exactly the checkpoint's.
	if got := reg.Sum("dooc_jobs_resume_iters_saved_total"); got != int64(ck.Iter) {
		t.Fatalf("dooc_jobs_resume_iters_saved_total = %d, want the checkpoint iteration %d", got, ck.Iter)
	}
	svc2.Manager.Drain()
}

// TestRecoverRequeuesQueuedInOrder: queued-at-crash jobs re-enter their
// tenant's queue in original submission order.
func TestRecoverRequeuesQueuedInOrder(t *testing.T) {
	base, root, storeDir := durableFixture(t)
	store1, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		err := store1.Append(jobstore.Record{
			ID:          id,
			Tenant:      "alice",
			Payload:     []byte(fmt.Sprintf(`{"iters":1,"seed":%d}`, id)),
			State:       "queued",
			SubmittedAt: time.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	store1.Abort()

	store2, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sys := durableSystem(t, root)
	defer sys.Close()
	svc := NewSolverService(sys, base, Config{MaxRunning: 1, QueueDepth: 8, Store: store2})
	rec, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 3 || rec.Resumed != 0 {
		t.Fatalf("recovery stats = %+v, want 3 requeued", rec)
	}
	for id := int64(1); id <= 3; id++ {
		if _, err := svc.Manager.Result(id); err != nil {
			t.Fatalf("requeued job %d: %v", id, err)
		}
	}
	var prev time.Time
	for id := int64(1); id <= 3; id++ {
		st, err := svc.Manager.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.StartedAt.Before(prev) {
			t.Fatalf("job %d started before job %d — requeue order lost", id, id-1)
		}
		prev = st.StartedAt
	}
	svc.Manager.Drain()
}

// TestDrainContextBounded: a drain whose context expires returns the
// context error while the straggler keeps running, and a later unbounded
// drain completes once the job does.
func TestDrainContextBounded(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	release := make(chan struct{})
	started := make(chan int64, 1)
	if _, err := m.Submit(Request{Tenant: "a"}, gatedWork(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.DrainContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain returned %v, want deadline exceeded", err)
	}
	if _, running := m.Counts(); running != 1 {
		t.Fatalf("straggler was killed by the bounded drain (running=%d)", running)
	}
	close(release)
	if err := m.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainContextNoGoroutineLeak: expired bounded drains must not park a
// watcher goroutine until the manager next goes idle — a long-lived
// embedder issuing periodic bounded drains while jobs are in flight would
// otherwise accumulate stuck goroutines.
func TestDrainContextNoGoroutineLeak(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1})
	release := make(chan struct{})
	started := make(chan int64, 1)
	if _, err := m.Submit(Request{Tenant: "a"}, gatedWork(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if err := m.DrainContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
			cancel()
			t.Fatalf("bounded drain %d returned %v, want deadline exceeded", i, err)
		}
		cancel()
	}
	// The straggler is still running (the manager is not idle), so any
	// leaked watcher would still be parked on the cond var. Allow a little
	// scheduler slack for AfterFunc goroutines to retire.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines grew from %d to %d across 10 expired drains", baseline, n)
	}
	close(release)
	if err := m.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableJobArraysJoinItsQuota: every array a durable job creates is
// named under the job's quota prefix, so the job's group
// sees them while the job runs and a tight MemoryBytes forces quota
// evictions, as on the in-memory path.
func TestDurableJobArraysJoinItsQuota(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			base, root, storeDir := durableFixture(t)
			cfg := Config{MaxRunning: 1, QueueDepth: 4}
			if durable {
				store, err := jobstore.Open(storeDir, jobstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				cfg.Store = store
			}
			sys := durableSystem(t, root)
			defer sys.Close()
			svc := NewSolverService(sys, base, cfg)
			defer svc.Manager.Drain()
			// A byte a node: less than any array of the job.
			st, err := svc.Submit(SolveRequest{Tenant: "alice", Iters: 300, Seed: 5, MemoryBytes: 2})
			if err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf("job%d:", st.ID)
			var used int64
			for {
				for i := 0; i < sys.Nodes(); i++ {
					if q, ok := sys.Store(i).Quota(prefix); ok {
						used = max(used, q.MemUsed)
					}
				}
				if s, err := svc.Manager.Status(st.ID); err != nil || stateFromString(s.State).Terminal() {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := svc.Manager.Result(st.ID); err != nil {
				t.Fatal(err)
			}
			// The job was the only quota group: every quota eviction was its.
			var evicted int64
			for i := 0; i < sys.Nodes(); i++ {
				evicted += sys.Store(i).Stats().QuotaEvictions
			}
			if used == 0 || evicted == 0 {
				t.Fatalf("group %q held at most %d bytes while the job ran and forced %d evictions, want both above 0", prefix, used, evicted)
			}
		})
	}
}
