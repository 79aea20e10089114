package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/sparse"
)

// newTestService builds a 2-node in-memory system with a loaded matrix and
// wraps it in a SolverService.
func newTestService(t *testing.T, cfg Config) (*SolverService, *core.System) {
	t.Helper()
	const dim, k, nodes = 400, 2, 2
	sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base := core.SpMVConfig{Dim: dim, K: k, Nodes: nodes}
	load := base
	load.Iters = 1 // Validate requires Iters > 0; staging ignores it
	if err := core.LoadMatrixInMemory(sys, m, load); err != nil {
		t.Fatal(err)
	}
	return NewSolverService(sys, base, cfg), sys
}

// serialReference runs the same request directly on the system (distinct
// tag) and returns the encoded result.
func serialReference(t *testing.T, sys *core.System, base core.SpMVConfig, req SolveRequest, tag string) []byte {
	t.Helper()
	cfg := base
	cfg.Iters = req.Iters
	cfg.Tag = tag
	res, err := core.RunIteratedSpMV(sys, cfg, StartVector(base.Dim, req.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return EncodeFloat64s(res.X)
}

// TestConcurrentJobsBitIdentical is the tentpole acceptance test: four
// concurrent jobs with mixed priorities produce results bit-identical to
// the same jobs run serially.
func TestConcurrentJobsBitIdentical(t *testing.T) {
	svc, sys := newTestService(t, Config{MaxRunning: 4, QueueDepth: 16})
	reqs := []SolveRequest{
		{Tenant: "alice", Priority: 1, Iters: 3, Seed: 11, MemoryBytes: 1 << 22},
		{Tenant: "bob", Priority: 9, Iters: 4, Seed: 22, MemoryBytes: 1 << 22},
		{Tenant: "carol", Priority: 5, Iters: 2, Seed: 33},
		{Tenant: "dave", Priority: 3, Iters: 5, Seed: 44, ScratchBytes: 1 << 30},
	}
	ids := make([]int64, len(reqs))
	for i, r := range reqs {
		st, err := svc.Submit(r)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		got, err := svc.Manager.Result(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		want := serialReference(t, sys, svc.Base(), reqs[i], fmt.Sprintf("serial%d", i))
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d result differs from serial run (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	// All quota groups were cleared on completion, and no job left an
	// array: the engine reclaimed each as its last reader retired, and the
	// final vector went once read.
	for i := 0; i < sys.Nodes(); i++ {
		for _, id := range ids {
			if _, ok := sys.Store(i).Quota(fmt.Sprintf("job%d:", id)); ok {
				t.Fatalf("node %d still has quota group for job %d", i, id)
			}
		}
	}
	for i, id := range ids {
		if left := knownJobArrays(sys, svc.Base(), id, reqs[i].Iters); len(left) > 0 {
			t.Fatalf("done job %d left %v behind", id, left)
		}
	}
}

// TestCancelReleasesResources cancels a running job and asserts its
// transient arrays and quota groups are gone: per-node memory returns to
// the pre-submit level (the staged matrix only).
func TestCancelReleasesResources(t *testing.T) {
	svc, sys := newTestService(t, Config{MaxRunning: 1})
	var before int64
	for i := 0; i < sys.Nodes(); i++ {
		before += sys.Store(i).Stats().MemUsed
	}

	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 200, Seed: 7, MemoryBytes: 1 << 22, ScratchBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Let the run get going, then cancel.
	deadline := time.After(5 * time.Second)
	for {
		s, _ := svc.Manager.Status(st.ID)
		if s.State == "running" {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if err := svc.Manager.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.Result(st.ID); !errors.Is(err, ErrCancelled) {
		t.Fatalf("result err = %v, want ErrCancelled", err)
	}

	var after int64
	for i := 0; i < sys.Nodes(); i++ {
		after += sys.Store(i).Stats().MemUsed
		if _, ok := sys.Store(i).Quota(fmt.Sprintf("job%d:", st.ID)); ok {
			t.Fatalf("node %d: quota group survived cancellation", i)
		}
	}
	if after > before {
		t.Fatalf("cancelled job leaked memory: before=%d after=%d", before, after)
	}

	// The service still works.
	ok, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.Result(ok.ID); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

func TestServiceRejectsInvalidIters(t *testing.T) {
	svc, _ := newTestService(t, Config{})
	if _, err := svc.Submit(SolveRequest{Tenant: "a"}); err == nil {
		t.Fatal("zero iters accepted")
	}
}

// TestLongJobRunsAndCancels: a job of 2^20 iterations is accepted — a run
// holds one segment of its iterations at a time, not its whole program —
// and its cancel leaves no array of its tag on any node.
func TestLongJobRunsAndCancels(t *testing.T) {
	svc, sys := newTestService(t, Config{MaxRunning: 1})
	before := residentBytes(sys)
	st, err := svc.Submit(SolveRequest{Tenant: "a", Iters: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatalf("Submit of 2^20 iterations: %v", err)
	}
	waitRunning(t, svc.Manager, st.ID)
	if err := svc.Manager.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Manager.Result(st.ID); !errors.Is(err, ErrCancelled) {
		t.Fatalf("result err = %v, want ErrCancelled", err)
	}
	if left := knownJobArrays(sys, svc.Base(), st.ID, 1<<13); len(left) > 0 {
		t.Fatalf("the cancelled job left %v behind", left)
	}
	if after := residentBytes(sys); after != before {
		t.Fatalf("resident bytes %d → %d across the cancelled job", before, after)
	}
}

// residentBytes sums the resident bytes of every node of sys.
func residentBytes(sys *core.System) (n int64) {
	for i := 0; i < sys.Nodes(); i++ {
		n += sys.Store(i).Stats().MemUsed
	}
	return n
}

// waitRunning polls until job id is running.
func waitRunning(t *testing.T, m *Manager, id int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d is %s after 10 s, want running", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}
