package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"dooc/internal/obs"
	"dooc/internal/sparse"
)

// obsSeriesValue extracts one labeled series value from a snapshot; node < 0
// matches unlabeled series.
func obsSeriesValue(snap []obs.SeriesSnapshot, name string, node int) int64 {
	want := strconv.Itoa(node)
	for _, s := range snap {
		if s.Name != name {
			continue
		}
		if node < 0 && len(s.Labels) == 0 {
			return s.Value
		}
		for _, l := range s.Labels {
			if l.Key == "node" && l.Value == want {
				return s.Value
			}
		}
	}
	return 0
}

// TestObsReconcilesAcrossLayers runs a multi-node iterated SpMV with the full
// observability stack attached and asserts the cross-layer invariants the
// paper's accounting depends on: engine task counters match RunStats, storage
// series match each store's Stats, scheduler picks match executions, the
// queue-wait histogram saw every task, and the emitted trace is valid Chrome
// trace-event JSON. Run under -race this also proves the instrumentation
// introduces no data races into the hot path.
func TestObsReconcilesAcrossLayers(t *testing.T) {
	const (
		nodes = 3
		dim   = 45
		iters = 3
	)
	rng := rand.New(rand.NewSource(7))
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	sys, err := NewSystem(Options{
		Nodes:          nodes,
		WorkersPerNode: 2,
		Reorder:        true,
		PrefetchWindow: 2,
		Obs:            reg,
		Trace:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: iters, Nodes: nodes}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rng, dim)
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.X, referenceIterate(m, x0, iters)); d > 1e-9 {
		t.Fatalf("instrumented run diverges from in-core reference by %v", d)
	}

	snap := reg.Snapshot()
	st := res.Stats

	// Engine layer: per-node completion counters mirror RunStats exactly,
	// and in a failure-free run executions == completions == picks.
	var totalTasks int64
	for n := 0; n < nodes; n++ {
		got := obsSeriesValue(snap, "dooc_engine_tasks_completed_total", n)
		if got != int64(st.TasksPerNode[n]) {
			t.Errorf("node %d: tasks_completed = %d, RunStats says %d", n, got, st.TasksPerNode[n])
		}
		totalTasks += int64(st.TasksPerNode[n])
	}
	if totalTasks == 0 {
		t.Fatal("run completed no tasks")
	}
	if retries := reg.Sum("dooc_engine_task_retries_total"); retries != int64(st.TaskRetries) {
		t.Errorf("task_retries = %d, RunStats says %d", retries, st.TaskRetries)
	}
	if picks := reg.Sum("dooc_sched_picks_total"); picks != totalTasks {
		t.Errorf("scheduler picks = %d, executions = %d (must be 1:1 in a clean run)", picks, totalTasks)
	}
	if qw := reg.Sum("dooc_engine_queue_wait_seconds"); qw != totalTasks {
		t.Errorf("queue-wait observations = %d, want one per execution = %d", qw, totalTasks)
	}
	if len(st.Events) != int(totalTasks) {
		t.Errorf("event log has %d entries, want %d", len(st.Events), totalTasks)
	}

	// Storage layer: registry series are cumulative since system creation,
	// exactly like each store's own Stats.
	for n := 0; n < nodes; n++ {
		ss := sys.Store(n).Stats()
		pairs := []struct {
			name string
			want int64
		}{
			{"dooc_storage_read_requests_total", ss.ReadRequests},
			{"dooc_storage_write_requests_total", ss.WriteRequests},
			{"dooc_storage_cache_hits_total", ss.Hits},
			{"dooc_storage_cache_misses_total", ss.Misses},
			{"dooc_storage_evictions_total", ss.Evictions},
			{"dooc_storage_block_loads_total", ss.BlockLoads},
			{"dooc_storage_prefetch_loads_total", ss.PrefetchLoads},
			{"dooc_storage_prefetch_hits_total", ss.PrefetchHits},
		}
		for _, p := range pairs {
			if got := obsSeriesValue(snap, p.name, n); got != p.want {
				t.Errorf("node %d: %s = %d, Stats says %d", n, p.name, got, p.want)
			}
		}
		if ss.Hits+ss.Misses != ss.ReadRequests {
			t.Errorf("node %d: hits(%d)+misses(%d) != reads(%d)", n, ss.Hits, ss.Misses, ss.ReadRequests)
		}
		if ss.PrefetchHits > ss.PrefetchLoads {
			t.Errorf("node %d: prefetch hits(%d) > loads(%d)", n, ss.PrefetchHits, ss.PrefetchLoads)
		}
	}
	if got := reg.Sum("dooc_storage_lease_wait_seconds"); got != reg.Sum("dooc_storage_read_requests_total")+reg.Sum("dooc_storage_write_requests_total") {
		t.Errorf("lease-wait observations (%d) != total requests", got)
	}

	// RunStats deltas derived from the same counters must agree with a
	// direct before/after subtraction.
	var wantHits int64
	for i := range st.StorageAfter {
		wantHits += st.StorageAfter[i].Hits - st.StorageBefore[i].Hits
	}
	if st.CacheHits() != wantHits {
		t.Errorf("RunStats.CacheHits() = %d, manual delta %d", st.CacheHits(), wantHits)
	}

	// Trace layer: exactly two spans (queued + execution) per task execution
	// once the storage band (lane metadata, grants, loads, spills, evicts)
	// is excluded, and the serialized form must be loadable Chrome
	// trace-event JSON.
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("emitted trace is invalid: %v", err)
	}
	taskEvents := 0
	for _, ev := range decodeTraceEvents(t, buf.Bytes()) {
		if ev.Ph == "M" || ev.Cat == "storage" {
			continue
		}
		taskEvents++
	}
	if taskEvents != int(2*totalTasks) {
		t.Errorf("trace has %d task events, want %d (2 per task)", taskEvents, 2*totalTasks)
	}
}

// TestObsCountsNodeDeathRecovery reconciles the recovery counters: killing a
// node mid-fleet must surface in dooc_engine_node_deaths_total and the
// re-execution counter must match RunStats.TaskRetries.
func TestObsCountsNodeDeathRecovery(t *testing.T) {
	const (
		nodes = 3
		dim   = 45
	)
	rng := rand.New(rand.NewSource(3))
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys, err := NewSystem(Options{Nodes: nodes, WorkersPerNode: 2, Reorder: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 2, Nodes: nodes}
	if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := sys.FailNode(2); err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rng, dim)
	res, err := RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.X, referenceIterate(m, x0, 2)); d > 1e-9 {
		t.Fatalf("post-failure result diverges by %v", d)
	}
	if deaths := reg.Sum("dooc_engine_node_deaths_total"); deaths != int64(res.Stats.NodesFailed) {
		t.Errorf("node_deaths = %d, RunStats says %d", deaths, res.Stats.NodesFailed)
	}
	if res.Stats.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", res.Stats.NodesFailed)
	}
	if retries := reg.Sum("dooc_engine_task_retries_total"); retries != int64(res.Stats.TaskRetries) {
		t.Errorf("task_retries = %d, RunStats says %d", retries, res.Stats.TaskRetries)
	}
	if done := obsSeriesValue(reg.Snapshot(), "dooc_engine_tasks_completed_total", 2); done != 0 {
		t.Errorf("dead node 2 completed %d tasks", done)
	}
}

// viewsAreCopies reports the doocdebug build, whose block views are private
// copies poisoned on release.
func viewsAreCopies() bool {
	released := &sparse.CSR{RowPtr: []int64{0}}
	sparse.ReleaseView(released)
	return !sparse.ViewValid(released)
}

// TestObsViewCopiedBytes reconciles dooc_kernel_view_copied_bytes_total with
// the shapes of the blocks multiplied out of their leases. A block staged
// today costs nothing: the columns, stored as in-row gaps, the values, which
// the adaptive encoder leaves raw, and the row pointers, a sliver of a block
// with long rows and so left raw too, all alias the lease. Where the rows are
// too short for that — the writer's output is then byte for byte what it was
// before the sliver rule, which sparse pins against a block the parent
// commit wrote — a view decodes the row pointers and nothing else. A
// DOOCCRS1 block costs nothing either, and the doocdebug build, whose views
// are private copies, every section of any of them as it is stored.
func TestObsViewCopiedBytes(t *testing.T) {
	const dim, k, nodes, iters = 300, 3, 2, 2
	cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
	p, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		d         int // mean gap between a row's entries
		stage     func(string, *sparse.CSR, SpMVConfig) error
		v1        bool
		rowPtrRaw bool
	}{
		{"v1", 3, stageV1, true, true},
		{"long rows", 1, StageMatrix, false, true},
		{"short rows, as before the sliver rule", 3, StageMatrix, false, false},
	} {
		m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: c.d, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		// Per iteration every block is multiplied once.
		var want, copies int64 // copied per iteration, in a release and in a doocdebug build
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				b, err := sparse.Block(m, p, u, v)
				if err != nil {
					t.Fatal(err)
				}
				width := sparse.ColGapWidth(b)
				if width == 0 {
					t.Fatalf("%s: block %d,%d would be staged with delta32 columns: the test is about the gap form", c.name, u, v)
				}
				rowPtr := 8 * int64(b.Rows+1)
				if !c.rowPtrRaw {
					want += rowPtr
				}
				if c.v1 {
					copies += rowPtr + (4+8)*b.NNZ()
				} else {
					copies += rowPtr + 4*int64(b.Rows) + (int64(width)+8)*b.NNZ()
				}
			}
		}
		root := t.TempDir()
		if err := c.stage(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, Reorder: true, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunIteratedSpMV(sys, cfg, randVec(rand.New(rand.NewSource(1)), dim)); err != nil {
			t.Fatal(err)
		}
		sys.Close()
		if viewsAreCopies() {
			want = copies
		}
		if got := reg.Sum("dooc_kernel_view_copied_bytes_total"); got != iters*want {
			t.Errorf("%s: view_copied_bytes = %d, the block shapes say %d", c.name, got, iters*want)
		}
	}
}
