package spmv

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dooc/internal/dag"
)

func TestProgramShape(t *testing.T) {
	cfg := ProgramConfig{K: 3, Iters: 2, SubBytes: 1000, VecBytes: 10}
	tasks, err := Program(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: 9 multiplies + 3 reductions (Fig. 3).
	if len(tasks) != 2*(9+3) {
		t.Fatalf("%d tasks, want 24", len(tasks))
	}
	mults, sums := 0, 0
	for _, tk := range tasks {
		switch tk.Kind {
		case "multiply":
			mults++
			if len(tk.Heavy) != 1 || !strings.HasPrefix(tk.Heavy[0].Array, "A_") {
				t.Fatalf("multiply %s heavy = %v", tk.ID, tk.Heavy)
			}
		case "sum":
			sums++
		}
	}
	if mults != 18 || sums != 6 {
		t.Fatalf("mults=%d sums=%d", mults, sums)
	}
}

func TestProgramValidation(t *testing.T) {
	if _, err := Program(ProgramConfig{K: 0, Iters: 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Program(ProgramConfig{K: 1, Iters: 0}); err == nil {
		t.Error("iters=0 accepted")
	}
}

func TestGraphDependencies(t *testing.T) {
	cfg := ProgramConfig{K: 2, Iters: 2, SubBytes: 100, VecBytes: 8}
	g, err := Graph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// mult(2,u,v) depends on reduce(1,v) — the Fig. 4 structure.
	preds := g.Preds(MultTaskID(2, 0, 1))
	if len(preds) != 1 || preds[0] != ReduceTaskID(1, 1) {
		t.Fatalf("preds of mult(2,0,1) = %v", preds)
	}
	// reduce(1,u) depends on all mult(1,u,*).
	preds = g.Preds(ReduceTaskID(1, 0))
	if len(preds) != 2 {
		t.Fatalf("preds of reduce(1,0) = %v", preds)
	}
	// First-iteration multiplies are ready at once (x0 is seed data).
	ready := g.Ready()
	if len(ready) != 4 {
		t.Fatalf("initial ready = %v", ready)
	}
	// Critical path: iters alternations of mult -> reduce.
	if got := g.CriticalPathLen(); got != 4 {
		t.Fatalf("critical path = %d, want 4", got)
	}
}

func TestRowAssignment(t *testing.T) {
	cfg := ProgramConfig{K: 3, Iters: 1, SubBytes: 1, VecBytes: 1}
	assign := RowAssignment(cfg)
	if assign[MultTaskID(1, 2, 0)] != 2 {
		t.Error("mult(1,2,0) not on node 2")
	}
	if assign[ReduceTaskID(1, 1)] != 1 {
		t.Error("reduce(1,1) not on node 1")
	}
	if len(assign) != 9+3 {
		t.Errorf("assignment covers %d tasks", len(assign))
	}
}

func TestSplitProgramShape(t *testing.T) {
	cfg := ProgramConfig{K: 2, Iters: 2, SubBytes: 100, VecBytes: 16, SplitWays: 3}
	tasks, err := Program(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per iteration: K*K*ways multiply-parts + K sums.
	wantMult := 2 * 2 * 2 * 3
	mults, sums := 0, 0
	for _, tk := range tasks {
		switch tk.Kind {
		case "multiply-part":
			mults++
			tt, u, v, p, ways, err := ParseMultPart(tk.ID)
			if err != nil {
				t.Fatal(err)
			}
			if ways != 3 || p < 0 || p >= 3 || tt < 1 || tt > 2 || u < 0 || u > 1 || v < 0 || v > 1 {
				t.Fatalf("bad parsed fields from %s", tk.ID)
			}
			if tk.Outputs[0].Part != p+1 {
				t.Fatalf("%s output part = %d, want %d", tk.ID, tk.Outputs[0].Part, p+1)
			}
		case "multiply":
			t.Fatalf("unsplit multiply %s in split program", tk.ID)
		case "sum":
			sums++
			if len(tk.Inputs) != 2*3 { // K*ways partial parts
				t.Fatalf("sum %s has %d inputs", tk.ID, len(tk.Inputs))
			}
		}
	}
	if mults != wantMult || sums != 4 {
		t.Fatalf("mults=%d sums=%d, want %d and 4", mults, sums, wantMult)
	}
	// The derived DAG keeps the same critical structure: every part of
	// iteration 2 depends on exactly one reduce of iteration 1.
	g, err := dag.Build(tasks)
	if err != nil {
		t.Fatal(err)
	}
	preds := g.Preds(MultPartTaskID(2, 0, 1, 2, 3))
	if len(preds) != 1 || preds[0] != ReduceTaskID(1, 1) {
		t.Fatalf("preds = %v", preds)
	}
	// Assignment covers every task.
	assign := RowAssignment(cfg)
	for _, tk := range tasks {
		if _, ok := assign[tk.ID]; !ok {
			t.Fatalf("task %s unassigned", tk.ID)
		}
	}
	if _, _, _, _, _, err := ParseMultPart("mult:1:2:3"); err == nil {
		t.Fatal("unsplit ID parsed as split")
	}
}

// TestProgramMirrored: over a mirrored layout there is one multiply per
// staged block — 10 of them at K=4, so 14 tasks an iteration — each pair task
// writing both partials of its pair, and every reduction still sums all K of
// its row's partials, each written exactly once.
func TestProgramMirrored(t *testing.T) {
	const k = 4
	lower := func(u, v int) bool { return (u+v)%2 == 1 }
	cfg := ProgramConfig{K: k, Iters: 2, SubBytes: 100, VecBytes: 8, Layout: MirroredLayout(k, lower)}
	tasks, err := Program(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2*14 {
		t.Fatalf("%d tasks, want 28", len(tasks))
	}
	written := map[string]int{}
	for _, tk := range tasks {
		for _, o := range tk.Outputs {
			written[o.Array]++
		}
		if tk.Kind == "sum" {
			continue
		}
		if tk.Kind != "multiply-mirror" {
			t.Fatalf("%s has kind %q", tk.ID, tk.Kind)
		}
		var it, u, v int
		if _, err := fmt.Sscanf(tk.ID, "mult:%d:%d:%d", &it, &u, &v); err != nil {
			t.Fatal(err)
		}
		if !cfg.Layout.Staged(u, v) || u < v && lower(u, v) || u > v && !lower(v, u) {
			t.Fatalf("%s multiplies a block the layout does not stage", tk.ID)
		}
		wantIn, wantOut := 3, []string{PartialArray(it, u, v), PartialArray(it, v, u)}
		if u == v {
			wantIn, wantOut = 2, wantOut[:1]
		}
		if len(tk.Inputs) != wantIn || len(tk.Outputs) != len(wantOut) {
			t.Fatalf("%s: %d inputs, %d outputs", tk.ID, len(tk.Inputs), len(tk.Outputs))
		}
		for i, o := range tk.Outputs {
			if o.Array != wantOut[i] {
				t.Fatalf("%s output %d is %s, want %s", tk.ID, i, o.Array, wantOut[i])
			}
		}
	}
	for it := 1; it <= 2; it++ {
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				if written[PartialArray(it, u, v)] != 1 {
					t.Fatalf("partial x[%d][%d][%d] written %d times", it, u, v, written[PartialArray(it, u, v)])
				}
			}
		}
	}
	if _, err := dag.Build(tasks); err != nil {
		t.Fatal(err)
	}
	if assign := RowAssignment(cfg); len(assign) != len(tasks) {
		t.Fatalf("row assignment places %d of %d tasks", len(assign), len(tasks))
	}
	cfg.SplitWays = 2
	if _, err := Program(cfg); !errors.Is(err, ErrMirroredSplit) {
		t.Fatalf("split over a mirrored layout: err = %v", err)
	}
}

func TestDiscoverLayout(t *testing.T) {
	const k = 3
	set := func(blocks ...[2]int) func(u, v int) bool {
		return func(u, v int) bool { return slices.Contains(blocks, [2]int{u, v}) }
	}
	diag := [][2]int{{0, 0}, {1, 1}, {2, 2}}
	full := append(slices.Clone(diag), [2]int{0, 1}, [2]int{1, 0}, [2]int{0, 2}, [2]int{2, 0}, [2]int{1, 2}, [2]int{2, 1})
	if l, err := DiscoverLayout(k, set(full...)); err != nil || l.Mirrored() {
		t.Errorf("full grid: %v, mirrored %v", err, l.Mirrored())
	}
	half := append(slices.Clone(diag), [2]int{0, 1}, [2]int{2, 0}, [2]int{1, 2})
	l, err := DiscoverLayout(k, set(half...))
	if err != nil || !l.Mirrored() {
		t.Fatalf("mirrored grid: %v, mirrored %v", err, l.Mirrored())
	}
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if l.Staged(u, v) != set(half...)(u, v) {
				t.Errorf("Staged(%d,%d) = %v", u, v, l.Staged(u, v))
			}
		}
	}
	if l, err := DiscoverLayout(1, set([2]int{0, 0})); err != nil || l.Mirrored() {
		t.Errorf("1×1 grid: %v, mirrored %v", err, l.Mirrored())
	}
	for name, blocks := range map[string][][2]int{
		"a diagonal block missing": full[1:],
		"a pair missing":           append(slices.Clone(diag), [2]int{0, 1}, [2]int{1, 0}, [2]int{0, 2}, [2]int{2, 0}),
		"one block of a full grid": full[:len(full)-1],
	} {
		if _, err := DiscoverLayout(k, set(blocks...)); err == nil || !strings.Contains(err.Error(), "missing block") {
			t.Errorf("%s: err = %v, want a missing block", name, err)
		}
	}
}
