package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dooc/internal/compress"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
)

func checkpointFixture(t *testing.T) (*sparse.CSR, []float64, string) {
	t.Helper()
	const dim = 48
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 1, Nodes: 2}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	return m, x0, root
}

func checkpointSystem(t *testing.T, root string) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 20,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestResumeFromScratchMatchesStraightRun: resuming with no checkpoint is a
// plain (checkpointed) run; its result matches RunIteratedSpMV exactly.
func TestResumeFromScratchMatchesStraightRun(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys := checkpointSystem(t, root)
	defer sys.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 3, Nodes: 2, Tag: "job1"}
	res, from, err := ResumeIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 {
		t.Fatalf("resumed from %d on a fresh run", from)
	}
	want := referenceIterate(m, x0, 3)
	if d := maxAbsDiff(res.X, want); d > 1e-10 {
		t.Fatalf("checkpointed run differs by %v", d)
	}
}

// TestInterruptedRunResumes: run 2 iterations, tear the system down
// (the "crash"), bring a fresh system up over the same scratch, and resume
// to 5 total iterations. The resumed result must match an uninterrupted
// 5-iteration reference, the resume must start at iteration 2, and only the
// two newest iterates stay on scratch.
func TestInterruptedRunResumes(t *testing.T) {
	m, x0, root := checkpointFixture(t)

	sys1 := checkpointSystem(t, root)
	cfgFirst := SpMVConfig{Dim: m.Rows, K: 3, Iters: 2, Nodes: 2, Tag: "job2"}
	if _, from, err := ResumeIteratedSpMV(sys1, cfgFirst, x0); err != nil || from != 0 {
		t.Fatalf("first segment: from=%d err=%v", from, err)
	}
	sys1.Close() // the crash

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	cfgFull := SpMVConfig{Dim: m.Rows, K: 3, Iters: 5, Nodes: 2, Tag: "job2"}
	res, from, err := ResumeIteratedSpMV(sys2, cfgFull, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 {
		t.Fatalf("resumed from %d, want 2", from)
	}
	want := referenceIterate(m, x0, 5)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("resumed result differs by %v", d)
	}
	if n := countCheckpointParts(t, root, cfgFull.Tag); n != 2*cfgFull.K {
		t.Fatalf("%d checkpoint parts after the resumed run, want %d", n, 2*cfgFull.K)
	}
}

// TestResumeAlreadyComplete: asking for fewer iterations than are already
// checkpointed returns the stored iterate without running anything.
func TestResumeAlreadyComplete(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys := checkpointSystem(t, root)
	defer sys.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 3, Nodes: 2, Tag: "job3"}
	full, _, err := ResumeIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Iters = 2
	res, from, err := ResumeIteratedSpMV(sys, cfg2, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 3 {
		t.Fatalf("from = %d, want 3 (latest checkpoint)", from)
	}
	// The returned iterate is x^3, not x^2 — resume never rolls back.
	if d := maxAbsDiff(res.X, full.X); d != 0 {
		t.Fatalf("returned iterate differs from stored checkpoint by %v", d)
	}
}

// mutateCheckpointPart rewrites the named checkpoint part of the run tagged
// tag through mutate.
func mutateCheckpointPart(t *testing.T, root, tag, name string, mutate func([]byte) []byte) {
	t.Helper()
	p := filepath.Join(checkpointDir(root, tag), name)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("checkpoint part %s: %v", name, err)
	}
	if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCheckpointFallsBack: a part torn or bit-rotted by a crash
// mid-write must never be resumed from. A flipped payload byte (CRC
// mismatch) in the newest iteration drops the scan to the previous one, the
// older of the two kept; a truncation there leaves no valid checkpoint; and
// the resume from x⁰ still converges to the uninterrupted reference.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys1 := checkpointSystem(t, root)
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 3, Nodes: 2, Tag: "job4"}
	if _, _, err := ResumeIteratedSpMV(sys1, cfg, x0); err != nil {
		t.Fatal(err)
	}
	sys1.Close()

	mutateCheckpointPart(t, root, cfg.Tag, "x_3_1.arr", func(b []byte) []byte {
		b[3] ^= 0x40
		return b
	})
	ck, err := LatestCheckpoint(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Iter != 2 {
		t.Fatalf("after corrupting iteration 3, latest = %+v, want iteration 2", ck)
	}

	mutateCheckpointPart(t, root, cfg.Tag, "x_2_0.arr", func(b []byte) []byte {
		return b[:len(b)/2]
	})
	ck, err = LatestCheckpoint(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		t.Fatalf("after truncating iteration 2, latest = iteration %d, want none: only two iterates are kept", ck.Iter)
	}

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	cfgFull := cfg
	cfgFull.Iters = 5
	res, from, err := ResumeIteratedSpMV(sys2, cfgFull, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 {
		t.Fatalf("resumed from %d, want 0 (no valid checkpoint)", from)
	}
	want := referenceIterate(m, x0, 5)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("resumed result differs by %v", d)
	}
}

// TestCheckpointValidation covers the guard rails.
func TestCheckpointValidation(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sysNoScratch, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sysNoScratch.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 2, Nodes: 2, Tag: "x"}
	if _, _, err := ResumeIteratedSpMV(sysNoScratch, cfg, x0); err == nil {
		t.Error("checkpointing without scratch accepted")
	}
	for _, tag := range []string{"", ".", "..", "a/b", "../node0"} {
		cfg.Tag = tag
		if _, err := LatestCheckpoint(root, cfg); err == nil {
			t.Errorf("tag %q accepted", tag)
		}
	}
	cfg.Tag = "nothing-here"
	ck, err := LatestCheckpoint(root, cfg)
	if err != nil || ck != nil {
		t.Errorf("expected no checkpoint, got %+v err %v", ck, err)
	}
}

// TestPurgeRemovesOlderBuildBlockDirs: scratch an older build left — a job's
// spilled array as a `.blk` directory of frame files beside its sidecar — is
// not registered by the startup scan, and the purge before a re-resume
// removes it, as it removes the `.seg` file this build spills.
func TestPurgeRemovesOlderBuildBlockDirs(t *testing.T) {
	root := t.TempDir()
	node0 := filepath.Join(root, "node0")
	old := filepath.Join(node0, "job9:x_1_0.blk")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, body string }{
		{filepath.Join(old, "000000"), "DOZ1 frame bytes"},
		{filepath.Join(node0, "job9:x_1_0.meta"), `{"size":64,"block_size":64,"codec":"fshuf"}`},
	} {
		if err := os.WriteFile(f.path, []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(Options{Nodes: 1, ScratchRoot: root, MemoryBudget: 1 << 20, Codec: compress.Default()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	st := sys.Store(0)
	if _, err := st.Info("job9:x_1_0"); err == nil {
		t.Fatal("the scan registered an older build's .blk directory")
	}
	// This build's spill of another array of the job: one .seg file.
	if err := st.WriteArray("job9:x_2_0", make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("job9:x_2_0"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(node0, "job9:x_2_0.seg")); err != nil {
		t.Fatalf("spill wrote no .seg file: %v", err)
	}
	PurgeRun(sys, "job9")
	left, err := os.ReadDir(node0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "job9:") {
			t.Errorf("purge left %s behind", e.Name())
		}
	}
}

// countCheckpointParts counts the checkpoint parts of the run tagged tag.
func countCheckpointParts(t *testing.T, root, tag string) int {
	t.Helper()
	return len(checkpointParts(t, root, tag))
}

// checkpointParts lists the checkpoint part files of the run tagged tag.
func checkpointParts(t *testing.T, root, tag string) []string {
	t.Helper()
	parts, err := filepath.Glob(filepath.Join(checkpointDir(root, tag), "x_*.arr"))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestCheckpointsKeepTwoNewest: a checkpointed run writes every iterate once
// and keeps the two newest complete ones — at most 3×K parts on scratch
// whenever a sum runs, 2×K when the run is done, the run's own iterates
// never flushed — and its result, over three segments, is a plain run's, bit
// for bit.
func TestCheckpointsKeepTwoNewest(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys := checkpointSystem(t, root)
	defer sys.Close()
	const iters = 100
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: iters, Nodes: 2, Tag: "job5"}
	if per := segmentTasks / cfg.iterTasks(); iters <= 2*per {
		t.Fatalf("%d iterations of %d a segment: want three segments", iters, per)
	}
	dir := checkpointDir(root, cfg.Tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckSum := checkpointSumExecutor(dir, cfg.prefix())
	var mu sync.Mutex
	most, sums := 0, 0
	counted := func(ctx *ExecContext) error {
		err := ckSum(ctx)
		mu.Lock()
		defer mu.Unlock()
		sums++
		most = max(most, countCheckpointParts(t, root, cfg.Tag))
		return err
	}
	res, err := runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{sum: counted})
	if err != nil {
		t.Fatal(err)
	}
	if sums != iters*cfg.K || most > 3*cfg.K {
		t.Fatalf("%d sums saw up to %d checkpoint parts, want %d sums and at most %d", sums, most, iters*cfg.K, 3*cfg.K)
	}
	if n := countCheckpointParts(t, root, cfg.Tag); n != 2*cfg.K {
		t.Fatalf("%d checkpoint parts after the run, want the %d of the two newest iterates", n, 2*cfg.K)
	}
	if n, err := filepath.Glob(filepath.Join(root, "node*", cfg.Tag+":*")); err != nil || len(n) != 0 {
		t.Fatalf("the run left %v on scratch (%v), want nothing flushed", n, err)
	}
	ck, err := LatestCheckpoint(root, cfg)
	if err != nil || ck == nil || ck.Iter != iters || maxAbsDiff(ck.X, res.X) != 0 {
		t.Fatalf("latest checkpoint %v (err %v), want iteration %d holding the result", ck, err, iters)
	}
	plain := cfg
	plain.Tag = "plain"
	want, err := RunIteratedSpMV(sys, plain, x0)
	if err != nil {
		t.Fatal(err)
	}
	if shaOf(res.X) != shaOf(want.X) {
		t.Fatal("the checkpointed run's result differs from a plain run's")
	}
}

// TestRestartRegistersNoCheckpointPart: a checkpointed run cancelled in its
// second segment, its system then closed, leaves its parts in the
// checkpoint directory only. A system restarted over the same scratch
// registers none of them under any name on any node, and the resume from
// them is bit-identical to a plain run.
func TestRestartRegistersNoCheckpointPart(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 100, Nodes: 2, Tag: "job6"}
	stopAt := segmentTasks/cfg.iterTasks() + 5 // in the second segment

	sys1 := checkpointSystem(t, root)
	dir := checkpointDir(root, cfg.Tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckSum := checkpointSumExecutor(dir, cfg.prefix())
	cancel := make(chan struct{})
	var once sync.Once
	interrupt := func(ctx *ExecContext) error {
		if it, _ := spmv.TaskIter(ctx.Task.ID); it == stopAt {
			once.Do(func() { close(cancel) })
		}
		return ckSum(ctx)
	}
	if _, err := runIteratedSpMV(sys1, cfg, 0, x0, spmvRunOpts{sum: interrupt, cancel: cancel}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("interrupted run: err = %v, want ErrCancelled", err)
	}
	sys1.Close() // the crash

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	parts := checkpointParts(t, root, cfg.Tag)
	if len(parts) < cfg.K {
		t.Fatalf("the interrupted run left %d checkpoint parts, want at least %d", len(parts), cfg.K)
	}
	for _, part := range parts {
		name := strings.TrimSuffix(filepath.Base(part), ".arr")
		for node := 0; node < sys2.Nodes(); node++ {
			for _, as := range []string{name, cfg.prefix() + name} {
				if _, err := sys2.Store(node).Info(as); err == nil {
					t.Fatalf("node %d registers checkpoint part %s as array %s", node, part, as)
				}
			}
		}
	}
	res, from, err := ResumeIteratedSpMV(sys2, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from < stopAt-2 || from > stopAt {
		t.Fatalf("resumed from %d, want the checkpoint near iteration %d", from, stopAt)
	}
	plain := cfg
	plain.Tag = "plain"
	want, err := RunIteratedSpMV(sys2, plain, x0)
	if err != nil {
		t.Fatal(err)
	}
	if shaOf(res.X) != shaOf(want.X) {
		t.Fatal("the resumed run's result differs from a plain run's")
	}
}

// TestOldLayoutPartsArePurged: parts an older build wrote beside a node's
// arrays, as "<tag>:x_<t>_<u>.arr", are arrays of the run's tag to a
// restarted store. The resume purges them, finds no checkpoint, and
// recomputes from x⁰ with a plain run's result, bit for bit.
func TestOldLayoutPartsArePurged(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 5, Nodes: 2, Tag: "job7"}
	p, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var old []string
	for _, it := range []int{2, 3} {
		for u := 0; u < cfg.K; u++ {
			path := filepath.Join(root, fmt.Sprintf("node%d", cfg.OwnerOf(u)), cfg.prefix()+spmv.VecArray(it, u)+".arr")
			if err := writeCheckpointFile(path, make([]byte, 8*p.Size(u))); err != nil {
				t.Fatal(err)
			}
			old = append(old, path)
		}
	}
	sys := checkpointSystem(t, root)
	defer sys.Close()
	if _, err := sys.Store(0).Info(cfg.prefix() + spmv.VecArray(3, 0)); err != nil {
		t.Fatalf("the scan did not register an old-layout part: %v", err)
	}
	res, from, err := ResumeIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 {
		t.Fatalf("resumed from %d, want 0: an old-layout part is no checkpoint", from)
	}
	for _, path := range old {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("old-layout part %s survived the resume", path)
		}
	}
	plain := cfg
	plain.Tag = "plain"
	want, err := RunIteratedSpMV(sys, plain, x0)
	if err != nil {
		t.Fatal(err)
	}
	if shaOf(res.X) != shaOf(want.X) {
		t.Fatal("the recomputed result differs from a plain run's")
	}
}
