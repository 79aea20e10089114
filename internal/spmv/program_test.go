package spmv

import (
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

// TestChainedProgramsAreOneProgram: programs starting at First = 0, 2 and 3
// name the tasks and arrays of one five-iteration program, in its order, so
// a run chained from them computes what the whole program computes.
func TestChainedProgramsAreOneProgram(t *testing.T) {
	for _, cfg := range []ProgramConfig{
		{K: 3, SubBytes: 100, VecBytes: 8, Prefix: "r:"},
		{K: 3, SubBytes: 100, VecBytes: 8, Layout: MirroredLayout(3, func(u, v int) bool { return u == 0 })},
	} {
		whole := cfg
		whole.Iters = 5
		want, err := Program(whole)
		if err != nil {
			t.Fatal(err)
		}
		var got []*dag.Task
		for _, seg := range [][2]int{{0, 2}, {2, 1}, {3, 2}} {
			part := cfg
			part.First, part.Iters = seg[0], seg[1]
			tasks, err := Program(part)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(RowAssignment(part)); n != len(tasks) {
				t.Fatalf("row assignment of iterations %d+%d places %d of %d tasks", seg[0], seg[1], n, len(tasks))
			}
			got = append(got, tasks...)
		}
		if len(got) != len(want) {
			t.Fatalf("chained programs hold %d tasks, the whole one %d", len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(*got[i]) != fmt.Sprint(*want[i]) {
				t.Fatalf("task %d: chained %+v, whole %+v", i, *got[i], *want[i])
			}
		}
	}
	if _, err := Program(ProgramConfig{K: 1, Iters: 1, First: -1}); err == nil {
		t.Error("a negative First accepted")
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
