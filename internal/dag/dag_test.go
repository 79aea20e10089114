package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func ref(name string, block int) Ref { return Ref{Array: name, Block: block, Bytes: 100} }

func TestBuildDerivesDependencies(t *testing.T) {
	// producer writes a, consumer reads a: consumer depends on producer.
	g, err := Build([]*Task{
		{ID: "w", Outputs: []Ref{ref("a", 0)}},
		{ID: "r", Inputs: []Ref{ref("a", 0)}, Outputs: []Ref{ref("b", 0)}},
		{ID: "r2", Inputs: []Ref{ref("b", 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Preds("r"); len(got) != 1 || got[0] != "w" {
		t.Fatalf("Preds(r) = %v", got)
	}
	if got := g.Succs("r"); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("Succs(r) = %v", got)
	}
	if got := g.Ready(); len(got) != 1 || got[0] != "w" {
		t.Fatalf("Ready = %v", got)
	}
}

func TestIndependentInputsAreReady(t *testing.T) {
	// Reading data nothing produces (seed data) yields no dependency.
	g, err := Build([]*Task{
		{ID: "t1", Inputs: []Ref{ref("seed", 0)}},
		{ID: "t2", Inputs: []Ref{ref("seed", 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Ready(); len(got) != 2 {
		t.Fatalf("Ready = %v", got)
	}
}

func TestDuplicateWriterRejected(t *testing.T) {
	_, err := Build([]*Task{
		{ID: "w1", Outputs: []Ref{ref("a", 0)}},
		{ID: "w2", Outputs: []Ref{ref("a", 0)}},
	})
	if err == nil || !strings.Contains(err.Error(), "single writer") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	_, err := Build([]*Task{{ID: "x"}, {ID: "x"}})
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestCycleRejected(t *testing.T) {
	_, err := Build([]*Task{
		{ID: "a", Inputs: []Ref{ref("y", 0)}, Outputs: []Ref{ref("x", 0)}},
		{ID: "b", Inputs: []Ref{ref("x", 0)}, Outputs: []Ref{ref("y", 0)}},
	})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestStartCompleteProtocol(t *testing.T) {
	g, err := Build([]*Task{
		{ID: "w", Outputs: []Ref{ref("a", 0)}},
		{ID: "r", Inputs: []Ref{ref("a", 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start("w")
	if len(g.Ready()) != 0 {
		t.Fatal("running task still in ready set")
	}
	g.Complete("w")
	if got := g.Ready(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Ready = %v", got)
	}
	g.Start("r")
	g.Complete("r")
	if !g.Done() {
		t.Fatal("not done after completing all tasks")
	}
}

func TestRequeueReturnsTaskToReadySet(t *testing.T) {
	g, err := Build([]*Task{
		{ID: "w", Outputs: []Ref{ref("a", 0)}},
		{ID: "r", Inputs: []Ref{ref("a", 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start("w")
	g.Requeue("w")
	if got := g.Ready(); len(got) != 1 || got[0] != "w" {
		t.Fatalf("Ready after requeue = %v, want [w]", got)
	}
	// Successor bookkeeping survives a requeue cycle.
	g.Start("w")
	g.Complete("w")
	if got := g.Ready(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Ready after complete = %v, want [r]", got)
	}
}

func TestRequeueNotRunningPanics(t *testing.T) {
	g, _ := Build([]*Task{{ID: "w"}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic requeueing unstarted task")
		}
	}()
	g.Requeue("w")
}

func TestStartNotReadyPanics(t *testing.T) {
	g, _ := Build([]*Task{
		{ID: "w", Outputs: []Ref{ref("a", 0)}},
		{ID: "r", Inputs: []Ref{ref("a", 0)}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic starting blocked task")
		}
	}()
	g.Start("r")
}

func TestCompleteWithoutStartPanics(t *testing.T) {
	g, _ := Build([]*Task{{ID: "w"}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic completing unstarted task")
		}
	}()
	g.Complete("w")
}

func TestHeavyInputsDefault(t *testing.T) {
	t1 := &Task{ID: "t", Inputs: []Ref{ref("a", 0), ref("b", 0)}}
	if len(t1.HeavyInputs()) != 2 {
		t.Fatal("HeavyInputs should default to all inputs")
	}
	t1.Heavy = []Ref{ref("a", 0)}
	if len(t1.HeavyInputs()) != 1 {
		t.Fatal("explicit Heavy not honored")
	}
}

func TestTopoRespectsEdges(t *testing.T) {
	g, err := Build([]*Task{
		{ID: "c", Inputs: []Ref{ref("b", 0)}},
		{ID: "a", Outputs: []Ref{ref("a", 0)}},
		{ID: "b", Inputs: []Ref{ref("a", 0)}, Outputs: []Ref{ref("b", 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Fatalf("topo = %v", topo)
	}
}

func TestCriticalPathLen(t *testing.T) {
	g, _ := Build([]*Task{
		{ID: "a", Outputs: []Ref{ref("x", 0)}},
		{ID: "b", Inputs: []Ref{ref("x", 0)}, Outputs: []Ref{ref("y", 0)}},
		{ID: "c", Inputs: []Ref{ref("y", 0)}},
		{ID: "solo"},
	})
	if got := g.CriticalPathLen(); got != 3 {
		t.Fatalf("CriticalPathLen = %d, want 3", got)
	}
}

// layeredTasks is a graph of layers × width tasks, each reading three outputs
// of the layer before it.
func layeredTasks(layers, width int) []*Task {
	var tasks []*Task
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			tk := &Task{
				ID:      fmt.Sprintf("L%d-%d", l, i),
				Outputs: []Ref{{Array: fmt.Sprintf("d%d-%d", l, i)}},
			}
			if l > 0 {
				for j := 0; j < 3; j++ {
					tk.Inputs = append(tk.Inputs, Ref{Array: fmt.Sprintf("d%d-%d", l-1, (i+j)%width)})
				}
			}
			tasks = append(tasks, tk)
		}
	}
	return tasks
}

// scanReady is ReadyAppend as it was before the graph kept a ready list: a
// walk of every task in insertion order. The list is held to it.
func scanReady(g *Graph) []string {
	var out []string
	for _, id := range g.order {
		if g.indegree[id] == 0 && !g.completed[id] && !g.running[id] {
			out = append(out, id)
		}
	}
	return out
}

// TestReadyListMatchesScan: over random DAGs — each task reading from a random
// subset of the others' outputs, listed in an order unrelated to the
// dependencies — and random interleavings of Start, Complete and Requeue with
// several tasks running at once, the ready list names the tasks the full scan
// names, in the same order, after every step; a task is ready only once its
// predecessors have completed, and every graph runs to completion.
func TestReadyListMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{ID: fmt.Sprintf("t%d", i), Outputs: []Ref{ref(fmt.Sprintf("d%d", i), 0)}}
			for j := 0; j < i; j++ {
				if rng.Intn(4) == 0 {
					tasks[i].Inputs = append(tasks[i].Inputs, ref(fmt.Sprintf("d%d", j), 0))
				}
			}
		}
		rng.Shuffle(n, func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		g, err := Build(tasks)
		if err != nil {
			t.Log(err)
			return false
		}
		var running []string
		for steps := 0; !g.Done(); steps++ {
			ready := g.Ready()
			if want := scanReady(g); !slices.Equal(ready, want) {
				t.Logf("seed %d step %d: ready list %v, scan %v", seed, steps, ready, want)
				return false
			}
			if steps > 10*n+100 {
				return false
			}
			switch op := rng.Intn(4); {
			case len(ready) > 0 && (op < 2 || len(running) == 0):
				id := ready[rng.Intn(len(ready))]
				for _, p := range g.Preds(id) {
					if !g.Completed(p) {
						t.Logf("seed %d: %s ready before its predecessor %s completed", seed, id, p)
						return false
					}
				}
				g.Start(id)
				running = append(running, id)
			case len(running) == 0:
				return false // nothing ready, nothing running, not done: deadlock
			default:
				i := rng.Intn(len(running))
				if op == 3 && steps < 5*n {
					g.Requeue(running[i])
				} else {
					g.Complete(running[i])
				}
				running = slices.Delete(running, i, i+1)
			}
		}
		return len(g.Ready()) == 0 && len(scanReady(g)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReadyAppend polls the ready set of a layered graph, twenty tasks
// wide, half of whose layers have completed: what a worker does at every
// wake-up. The poll allocates nothing and costs the same at 200 tasks as at
// 2,000 (`make perf-gate` fails on an allocation).
func BenchmarkReadyAppend(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			const width = 20
			tasks := layeredTasks(n/width, width)
			g, err := Build(tasks)
			if err != nil {
				b.Fatal(err)
			}
			for _, tk := range tasks[:len(tasks)/2] {
				g.Start(tk.ID)
				g.Complete(tk.ID)
			}
			ids := g.ReadyAppend(nil)
			if len(ids) != width {
				b.Fatalf("%d tasks ready, want one layer of %d", len(ids), width)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids = g.ReadyAppend(ids[:0])
			}
		})
	}
}

// BenchmarkBuildLargeDAG measures DAG derivation on a wide layered graph.
func BenchmarkBuildLargeDAG(b *testing.B) {
	tasks := layeredTasks(20, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tasks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tasks)), "tasks")
}
