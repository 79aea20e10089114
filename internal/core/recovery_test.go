package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/dag"
	"dooc/internal/faults"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// TestExecutorPanicFailsRunCleanly: a panicking executor must fail the run
// with an attributed error — never crash the process. The panic is charged
// to the task's retry budget like any other failure.
func TestExecutorPanicFailsRunCleanly(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var executions atomic.Int32
	_, err = sys.Run(RunSpec{
		Tasks: []*dag.Task{{ID: "boom", Kind: "boom"}},
		Executors: map[string]Executor{"boom": func(ctx *ExecContext) error {
			executions.Add(1)
			panic("kernel shape mismatch")
		}},
	})
	if err == nil {
		t.Fatal("run succeeded despite panicking executor")
	}
	for _, want := range []string{"panic", "kernel shape mismatch", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// Default budget is 2 retries: 3 executions total.
	if got := executions.Load(); got != 3 {
		t.Fatalf("executed %d times, want 3", got)
	}
}

// TestTaskRetryRecoversTransientFailure: an executor that fails twice —
// leaving an unreleased write lease each time — and succeeds on the third
// try must produce a correct result. The engine has to abandon the failed
// attempts' leases or the retry would deadlock on its own output interval.
func TestTaskRetryRecoversTransientFailure(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Store(0).Create("out", 8, 8); err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int32
	stats, err := sys.Run(RunSpec{
		Tasks: []*dag.Task{{ID: "flaky", Kind: "flaky",
			Outputs: []dag.Ref{{Array: "out", Block: 0, Bytes: 8}}}},
		Executors: map[string]Executor{"flaky": func(ctx *ExecContext) error {
			n := executions.Add(1)
			l, err := ctx.RequestBlock("out", 0, storage.PermWrite)
			if err != nil {
				return err
			}
			if n < 3 {
				copy(l.Data, "GARBAGE!")
				return errors.New("transient device error") // lease leaks: engine must abandon it
			}
			copy(l.Data, "GOODDATA")
			l.Release()
			return nil
		}},
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stats.TaskRetries != 2 {
		t.Fatalf("TaskRetries = %d, want 2", stats.TaskRetries)
	}
	got, err := sys.Store(0).ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "GOODDATA" {
		t.Fatalf("out = %q, want GOODDATA", got)
	}
}

// TestFailNodeReexecutesTaskOnSurvivor: a task running on a node that dies
// mid-execution is re-executed on a surviving node, its half-written output
// lease reclaimed, and the run completes with the survivor's result.
func TestFailNodeReexecutesTaskOnSurvivor(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Store(0).Create("out", 8, 8); err != nil {
		t.Fatal(err)
	}
	var started sync.Once
	startedCh := make(chan struct{})
	release := make(chan struct{})
	exec := func(ctx *ExecContext) error {
		if ctx.Node == 1 {
			l, err := ctx.RequestBlock("out", 0, storage.PermWrite)
			if err != nil {
				return err
			}
			copy(l.Data, "DOOMED!!")
			started.Do(func() { close(startedCh) })
			<-release
			return errors.New("node 1 crashed mid-task")
		}
		l, err := ctx.RequestBlock("out", 0, storage.PermWrite)
		if err != nil {
			return err
		}
		copy(l.Data, "SURVIVED")
		l.Release()
		return nil
	}
	type result struct {
		stats *RunStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := sys.Run(RunSpec{
			Tasks: []*dag.Task{{ID: "only", Kind: "work",
				Outputs: []dag.Ref{{Array: "out", Block: 0, Bytes: 8}}}},
			Executors:  map[string]Executor{"work": exec},
			Assignment: map[string]int{"only": 1},
		})
		done <- result{stats, err}
	}()
	<-startedCh
	if err := sys.FailNode(1); err != nil {
		t.Fatal(err)
	}
	close(release)
	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after node failure")
	}
	if res.err != nil {
		t.Fatalf("run failed: %v", res.err)
	}
	if res.stats.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1", res.stats.NodesFailed)
	}
	if res.stats.TaskRetries == 0 {
		t.Fatal("task was never re-executed")
	}
	got, err := sys.Store(0).ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "SURVIVED" {
		t.Fatalf("out = %q, want SURVIVED (the survivor's write)", got)
	}
}

// TestRunFailsWhenNoNodesSurvive: killing the only node aborts the run with
// an attributed error instead of hanging.
func TestRunFailsWhenNoNodesSurvive(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	startedCh := make(chan struct{})
	release := make(chan struct{})
	var started sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := sys.Run(RunSpec{
			Tasks: []*dag.Task{{ID: "t", Kind: "w"}},
			Executors: map[string]Executor{"w": func(ctx *ExecContext) error {
				started.Do(func() { close(startedCh) })
				<-release
				return errors.New("crashed")
			}},
		})
		done <- err
	}()
	<-startedCh
	if err := sys.FailNode(0); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no nodes survive") {
			t.Fatalf("err = %v, want no-nodes-survive error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after losing every node")
	}
}

// TestIteratedSpMVSurvivesInjectedIOFaults: with a bounded budget of
// injected transient I/O errors against the staged matrix reads, the run
// must recover — through ioPool retries and, when those are exhausted, task
// re-execution — and produce the exact reference result.
func TestIteratedSpMVSurvivesInjectedIOFaults(t *testing.T) {
	const dim, k = 48, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	x0 := randVec(rng, dim)
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: 2, Tag: "faulty"}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 9, IOErrorRate: 1, MaxInjections: 4})
	sys, err := NewSystem(Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 20,
		Reorder:        true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatalf("run did not survive injected I/O faults: %v", err)
	}
	want := referenceIterate(m, x0, cfg.Iters)
	if d := maxAbsDiff(res.X, want); d > 1e-10 {
		t.Fatalf("result differs from reference by %v", d)
	}
	if inj.Counts().IOErrors == 0 {
		t.Fatal("no faults injected; test proved nothing")
	}
	var retries int64
	for i := range res.Stats.StorageAfter {
		retries += res.Stats.StorageAfter[i].IORetries - res.Stats.StorageBefore[i].IORetries
	}
	if retries == 0 {
		t.Fatal("injected errors but the ioPool never retried")
	}
}

// TestCrashMidIterationResumes is the dirty-crash variant of the resume
// test: every node dies partway through a checkpointed run (leaving
// partially written iterates and partial checkpoint files on scratch), then
// a fresh system resumes over the same scratch and must reach the exact
// uninterrupted reference result.
func TestCrashMidIterationResumes(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	const iters = 4
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: iters, Nodes: 2, Tag: "job4"}

	sys1 := checkpointSystem(t, root)
	done := make(chan error, 1)
	go func() {
		_, _, err := ResumeIteratedSpMV(sys1, cfg, x0)
		done <- err
	}()
	// Wait for a complete checkpoint to land on disk, then kill both nodes:
	// the run dies somewhere past it, typically mid-iteration, leaving later
	// iterations' checkpoints incomplete. (Waiting for a complete iterate
	// also guarantees the resume starts at ≥ 1; the two newest complete
	// iterates are kept, so there is always one once the first is
	// written.)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if ck, _ := LatestCheckpoint(root, cfg); ck != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no complete checkpoint ever appeared")
		}
		time.Sleep(200 * time.Microsecond)
	}
	_ = sys1.FailNode(0)
	_ = sys1.FailNode(1)
	select {
	case err := <-done:
		if err == nil {
			// The whole run may have raced to completion before the kill on a
			// fast machine; the resume below then validates the no-op path.
			t.Log("run completed before both nodes died")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("crashed run never returned")
	}
	sys1.Close()

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	res, from, err := ResumeIteratedSpMV(sys2, cfg, x0)
	if err != nil {
		t.Fatalf("resume after dirty crash failed: %v", err)
	}
	if from < 0 || from > iters {
		t.Fatalf("resumed from impossible iteration %d", from)
	}
	want := referenceIterate(m, x0, iters)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("resumed result differs from uninterrupted reference by %v", d)
	}
}
