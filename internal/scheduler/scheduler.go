// Package scheduler implements DOoC's hierarchical data-aware task
// scheduler (Section III-C of the paper).
//
// The *global* scheduler distributes tasks across nodes with an affinity
// heuristic: "Tasks are sent to the compute nodes which host most of the
// data required to process them."
//
// The *local* scheduler reorders each node's ready tasks to minimize
// expensive data loads. The policy here scores ready tasks by (1) how many
// heavy input bytes are already resident, then (2) how recently their heavy
// inputs were used (most-recent first). On an iterated SpMV this MRU-first
// rule reproduces the paper's Fig. 5(b) "back and forth" traversal exactly:
// each iteration walks the sub-matrices in the reverse order of the
// previous one, saving the boundary load.
package scheduler

import (
	"sort"

	"dooc/internal/dag"
	"dooc/internal/obs"
)

// Affinity assigns each task to the node hosting the most input bytes.
// locate reports where a datum currently lives (ok=false if nowhere yet).
// Ties and unlocatable tasks go to the least-loaded node (by assigned input
// bytes), which doubles as round-robin on empty state.
func Affinity(tasks []*dag.Task, nodes int, locate func(dag.Ref) (int, bool)) map[string]int {
	assign := make(map[string]int, len(tasks))
	load := make([]int64, nodes)
	byNode := make([]int64, nodes)
	for _, t := range tasks {
		clear(byNode)
		var located bool
		for _, in := range t.Inputs {
			if n, ok := locate(in); ok && n >= 0 && n < nodes {
				byNode[n] += in.Bytes
				located = true
			}
		}
		best := -1
		if located {
			for n, b := range byNode {
				if b == 0 {
					continue
				}
				if best == -1 || b > byNode[best] || (b == byNode[best] && load[n] < load[best]) {
					best = n
				}
			}
		}
		if best == -1 {
			// Least-loaded placement for data-free tasks.
			best = 0
			for n := 1; n < nodes; n++ {
				if load[n] < load[best] {
					best = n
				}
			}
		}
		assign[t.ID] = best
		var bytes int64
		for _, in := range t.Inputs {
			bytes += in.Bytes
		}
		if bytes < 1 {
			bytes = 1 // data-free tasks still occupy a node
		}
		load[best] += bytes
	}
	return assign
}

// RoundRobin is the affinity-free baseline placement used by the ablation
// benchmarks.
func RoundRobin(tasks []*dag.Task, nodes int) map[string]int {
	assign := make(map[string]int, len(tasks))
	for i, t := range tasks {
		assign[t.ID] = i % nodes
	}
	return assign
}

// refKey identifies a datum like dag.Ref.Key() but as a comparable struct,
// so the policy's maps never build key strings on the pick path.
type refKey struct {
	array       string
	block, part int
}

func keyOf(r dag.Ref) refKey { return refKey{r.Array, r.Block, r.Part} }

// Policy is one node's local-scheduler task selection state. A Policy is not
// safe for concurrent use; the engine serializes all calls per node.
type Policy struct {
	lastUse map[refKey]int64
	tick    int64

	// Reusable pick-path scratch (Order, PrefetchTargets).
	ordScratch   []*dag.Task
	tmpScratch   []*dag.Task
	scoreScratch []score
	idxScratch   []int
	seenScratch  map[refKey]bool
	refScratch   []dag.Ref
	sorter       orderSorter
	// Reorder enables the data-aware reordering; false degrades to FIFO
	// (the ablation baseline).
	Reorder bool
	// Optional observability hooks (nil counters are no-ops):
	// Picks counts Pick decisions, Reorders the picks where the data-aware
	// score overrode FIFO order, PrefetchRefs the data refs handed to the
	// prefetcher.
	Picks        *obs.Counter
	Reorders     *obs.Counter
	PrefetchRefs *obs.Counter
}

// NewPolicy returns a reordering policy.
func NewPolicy() *Policy {
	return &Policy{lastUse: make(map[refKey]int64), Reorder: true}
}

// Touch records that the given data were just used (called when a task's
// inputs are consumed).
func (p *Policy) Touch(refs []dag.Ref) {
	p.tick++
	for _, r := range refs {
		p.lastUse[keyOf(r)] = p.tick
	}
}

// score summarizes a task's desirability: tasks with no heavy inputs run
// eagerly (the paper: reductions "can be performed as soon as intermediate
// results become available" — delaying them would stall successors); then
// resident heavy bytes; then recency of heavy inputs (MRU-first).
type score struct {
	eager         bool
	residentBytes int64
	recency       int64
	pos           int
}

func (p *Policy) scoreOf(t *dag.Task, pos int, resident func(dag.Ref) bool) score {
	s := score{pos: pos}
	heavy := t.HeavyInputs()
	if len(heavy) == 0 {
		s.eager = true
		return s
	}
	for _, r := range heavy {
		if resident(r) {
			s.residentBytes += r.Bytes
		}
		if lu := p.lastUse[keyOf(r)]; lu > s.recency {
			s.recency = lu
		}
	}
	return s
}

// orderSorter stably sorts an index permutation by score without the
// reflection-based swapper sort.SliceStable allocates per call.
type orderSorter struct {
	idx    []int
	scores []score
}

func (o *orderSorter) Len() int      { return len(o.idx) }
func (o *orderSorter) Swap(i, j int) { o.idx[i], o.idx[j] = o.idx[j], o.idx[i] }
func (o *orderSorter) Less(i, j int) bool {
	return better(o.scores[o.idx[i]], o.scores[o.idx[j]])
}

func better(a, b score) bool {
	if a.eager != b.eager {
		return a.eager
	}
	if a.residentBytes != b.residentBytes {
		return a.residentBytes > b.residentBytes
	}
	if a.recency != b.recency {
		return a.recency > b.recency
	}
	return a.pos < b.pos
}

// Pick selects the next task to run from the node's ready tasks. resident
// reports whether a datum is in this node's memory (the engine answers it
// from one question to the storage layer about the ready tasks' heavy
// inputs). Returns nil when ready is empty.
func (p *Policy) Pick(ready []*dag.Task, resident func(dag.Ref) bool) *dag.Task {
	if len(ready) == 0 {
		return nil
	}
	p.Picks.Inc()
	if !p.Reorder {
		return ready[0]
	}
	best := 0
	bestScore := p.scoreOf(ready[0], 0, resident)
	for i := 1; i < len(ready); i++ {
		if s := p.scoreOf(ready[i], i, resident); better(s, bestScore) {
			best, bestScore = i, s
		}
	}
	if best != 0 {
		p.Reorders.Inc()
	}
	return ready[best]
}

// Order returns the ready tasks sorted by descending desirability; the
// prefix of this order is what the prefetcher warms. The returned slice is
// scratch owned by the policy — valid until the next Order or
// PrefetchTargets call.
func (p *Policy) Order(ready []*dag.Task, resident func(dag.Ref) bool) []*dag.Task {
	out := append(p.ordScratch[:0], ready...)
	p.ordScratch = out[:0]
	if !p.Reorder {
		return out
	}
	scores := p.scoreScratch[:0]
	idx := p.idxScratch[:0]
	for i, t := range out {
		scores = append(scores, p.scoreOf(t, i, resident))
		idx = append(idx, i)
	}
	p.scoreScratch, p.idxScratch = scores[:0], idx[:0]
	p.sorter.idx, p.sorter.scores = idx, scores
	sort.Stable(&p.sorter)
	p.sorter.idx, p.sorter.scores = nil, nil
	// Apply the permutation through a second scratch buffer (out aliases
	// ordScratch, so the copy must not share its backing array).
	tmp := append(p.tmpScratch[:0], out...)
	p.tmpScratch = tmp[:0]
	for i, j := range idx {
		out[i] = tmp[j]
	}
	return out
}

// PrefetchTargets returns up to `window` heavy, non-resident data refs from
// the most desirable ready tasks, in the order the prefetcher should issue
// them. This is how the local scheduler keeps "a given number of ready
// tasks whose data are in memory". The returned slice is scratch owned by
// the policy — valid until the next PrefetchTargets call.
func (p *Policy) PrefetchTargets(ready []*dag.Task, resident func(dag.Ref) bool, window int) []dag.Ref {
	if window <= 0 {
		return nil
	}
	out := p.refScratch[:0]
	if p.seenScratch == nil {
		p.seenScratch = make(map[refKey]bool, 8)
	}
	seen := p.seenScratch
	clear(seen)
	for _, t := range p.Order(ready, resident) {
		for _, r := range t.HeavyInputs() {
			if resident(r) || seen[keyOf(r)] {
				continue
			}
			seen[keyOf(r)] = true
			out = append(out, r)
			if len(out) == window {
				p.refScratch = out[:0]
				p.PrefetchRefs.Add(int64(len(out)))
				return out
			}
		}
	}
	p.refScratch = out[:0]
	p.PrefetchRefs.Add(int64(len(out)))
	return out
}
