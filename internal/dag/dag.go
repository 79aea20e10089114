// Package dag models DOoC's task graphs. Tasks declare the data (arrays or
// blocks) they read and write; the dependency structure is *derived* from
// that declaration — a task that reads a datum depends on the task that
// writes it. This is exactly the paper's global-scheduler input: "Each
// computation takes some data as an input and outputs some data. ... The
// input and output data information is used to derive a DAG of the tasks."
package dag

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Ref names a datum: a block of an array (Block == Whole means the whole
// array). Bytes is the datum's size, used for affinity and cache decisions.
type Ref struct {
	Array string
	Block int
	Bytes int64
}

// Whole marks a Ref that covers its entire array.
const Whole = -1

// Key returns a map key identifying the datum: "array[block]". Built with
// strconv appends — Key runs once per ref per scheduler pass, where fmt's
// formatting state is measurable.
func (r Ref) Key() string {
	b := make([]byte, 0, len(r.Array)+16)
	b = append(b, r.Array...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(r.Block), 10)
	b = append(b, ']')
	return string(b)
}

// Task is a unit of computation with declared data in- and outputs.
type Task struct {
	ID string
	// Kind is an application label ("multiply", "sum", ...).
	Kind string
	// Inputs are data read; Outputs are data produced. A datum may be
	// produced by at most one task (immutable arrays: single writer).
	Inputs, Outputs []Ref
	// Heavy marks the subset of Inputs whose residency should drive
	// scheduling (e.g. 4 GB matrix blocks, not 100 KB vector parts).
	// nil means all inputs are heavy; an explicitly empty (non-nil) slice
	// means none are.
	Heavy []Ref
	// Flops estimates the task's computational cost.
	Flops float64
}

// HeavyInputs returns the cache-relevant inputs.
func (t *Task) HeavyInputs() []Ref {
	if t.Heavy != nil {
		return t.Heavy
	}
	return t.Inputs
}

// Graph is a derived task DAG with ready-set tracking.
type Graph struct {
	tasks []*Task        // insertion order, the deterministic tie-break
	order []string       // tasks[i].ID
	pos   map[string]int // ID → index in tasks and order

	succ map[string][]string
	pred map[string][]string

	indegree  map[string]int
	completed map[string]bool
	running   map[string]bool

	// ready holds the positions of the startable tasks — every predecessor
	// completed, neither running nor completed — ascending. Build, Start,
	// Requeue and Complete keep it, so a scheduler's poll costs the size of
	// the ready set whatever the size of the graph.
	ready []int
}

// refID is Ref.Key() as a comparable struct: Build indexes producers per
// datum for every ref of every task, and string keys would dominate its
// allocation profile.
type refID struct {
	array string
	block int
}

func (r Ref) id() refID { return refID{r.Array, r.Block} }

// Build derives the DAG. It rejects duplicate task IDs, multiple writers of
// one datum, and cycles.
func Build(tasks []*Task) (*Graph, error) {
	g := &Graph{
		tasks:     make([]*Task, 0, len(tasks)),
		order:     make([]string, 0, len(tasks)),
		succ:      make(map[string][]string, len(tasks)),
		pred:      make(map[string][]string, len(tasks)),
		indegree:  make(map[string]int, len(tasks)),
		completed: make(map[string]bool, len(tasks)),
		running:   make(map[string]bool, len(tasks)),
		pos:       make(map[string]int, len(tasks)),
	}
	producer := make(map[refID]string, len(tasks))
	for _, t := range tasks {
		if t.ID == "" {
			return nil, fmt.Errorf("dag: task with empty ID")
		}
		if _, dup := g.pos[t.ID]; dup {
			return nil, fmt.Errorf("dag: duplicate task %q", t.ID)
		}
		g.pos[t.ID] = len(g.tasks)
		g.tasks = append(g.tasks, t)
		g.order = append(g.order, t.ID)
		for _, out := range t.Outputs {
			if prev, taken := producer[out.id()]; taken {
				return nil, fmt.Errorf("dag: datum %s written by both %q and %q (immutable arrays have a single writer)", out.Key(), prev, t.ID)
			}
			producer[out.id()] = t.ID
		}
	}
	seen := make(map[string]bool, 8)
	for _, t := range g.tasks {
		id := t.ID
		clear(seen)
		for _, in := range t.Inputs {
			p, ok := producer[in.id()]
			if !ok || p == id || seen[p] {
				continue
			}
			seen[p] = true
			g.succ[p] = append(g.succ[p], id)
			g.pred[id] = append(g.pred[id], p)
			g.indegree[id]++
		}
	}
	if _, err := g.Topo(); err != nil {
		return nil, err
	}
	for i, id := range g.order {
		if g.indegree[id] == 0 {
			g.ready = append(g.ready, i)
		}
	}
	return g, nil
}

// enqueue puts a task that has become startable into the ready list.
func (g *Graph) enqueue(id string) {
	p := g.pos[id]
	i, _ := slices.BinarySearch(g.ready, p)
	g.ready = slices.Insert(g.ready, i, p)
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.order) }

// Task returns a task by ID (nil if absent).
func (g *Graph) Task(id string) *Task {
	if p, ok := g.pos[id]; ok {
		return g.tasks[p]
	}
	return nil
}

// Tasks returns all tasks in insertion order.
func (g *Graph) Tasks() []*Task {
	return slices.Clone(g.tasks)
}

// Preds returns the dependency task IDs of id.
func (g *Graph) Preds(id string) []string { return g.pred[id] }

// Succs returns the dependent task IDs of id.
func (g *Graph) Succs(id string) []string { return g.succ[id] }

// Ready returns, in insertion order, tasks whose predecessors have all
// completed and which are neither running nor completed.
func (g *Graph) Ready() []string { return g.ReadyAppend(nil) }

// ReadyAppend appends the ready task IDs to dst and returns it — the
// allocation-free form of Ready for schedulers that poll every wake-up.
func (g *Graph) ReadyAppend(dst []string) []string {
	for _, p := range g.ready {
		dst = append(dst, g.order[p])
	}
	return dst
}

// Start marks a ready task as running. It panics on protocol misuse (not
// ready, already started) — those are scheduler bugs, not runtime
// conditions.
func (g *Graph) Start(id string) {
	p, ok := g.pos[id]
	if !ok {
		panic(fmt.Sprintf("dag: start of unknown task %q", id))
	}
	i, startable := slices.BinarySearch(g.ready, p)
	if !startable {
		panic(fmt.Sprintf("dag: task %q is not startable", id))
	}
	g.ready = slices.Delete(g.ready, i, i+1)
	g.running[id] = true
}

// Requeue returns a running task to the ready set — the recovery path when
// its executor failed or its node died before completion. Successor
// indegrees were not touched by Start, so the task goes straight back into
// the ready list and is pickable again immediately.
func (g *Graph) Requeue(id string) {
	if !g.running[id] {
		panic(fmt.Sprintf("dag: requeue of task %q that is not running", id))
	}
	delete(g.running, id)
	g.enqueue(id)
}

// Complete marks a running task finished, unlocking its successors.
func (g *Graph) Complete(id string) {
	if !g.running[id] {
		panic(fmt.Sprintf("dag: completion of task %q that is not running", id))
	}
	delete(g.running, id)
	g.completed[id] = true
	for _, s := range g.succ[id] {
		g.indegree[s]--
		if g.indegree[s] == 0 {
			g.enqueue(s)
		}
	}
}

// Done reports whether every task has completed.
func (g *Graph) Done() bool { return len(g.completed) == len(g.order) }

// Completed reports whether a specific task has completed.
func (g *Graph) Completed(id string) bool { return g.completed[id] }

// Topo returns a topological order (insertion-order stable) or an error if
// the graph has a cycle.
func (g *Graph) Topo() ([]string, error) {
	// The base indegree, whatever has completed since Build.
	base := make(map[string]int, len(g.order))
	for _, id := range g.order {
		base[id] = len(g.pred[id])
	}
	var queue []string
	for _, id := range g.order {
		if base[id] == 0 {
			queue = append(queue, id)
		}
	}
	var out []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		out = append(out, id)
		for _, s := range g.succ[id] {
			base[s]--
			if base[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != len(g.order) {
		remaining := make([]string, 0)
		for _, id := range g.order {
			done := false
			for _, o := range out {
				if o == id {
					done = true
					break
				}
			}
			if !done {
				remaining = append(remaining, id)
			}
		}
		sort.Strings(remaining)
		return nil, fmt.Errorf("dag: cycle involving tasks %v", remaining)
	}
	return out, nil
}

// CriticalPathLen returns the longest chain length (in tasks), a useful
// lower bound on schedule length for tests.
func (g *Graph) CriticalPathLen() int {
	topo, err := g.Topo()
	if err != nil {
		return 0
	}
	depth := make(map[string]int, len(topo))
	best := 0
	for _, id := range topo {
		d := 1
		for _, p := range g.pred[id] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		if d > best {
			best = d
		}
	}
	return best
}
