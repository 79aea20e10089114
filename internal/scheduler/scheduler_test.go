package scheduler

import (
	"fmt"
	"testing"

	"dooc/internal/dag"
)

func mkTask(id string, heavyArrays ...string) *dag.Task {
	t := &dag.Task{ID: id}
	for _, a := range heavyArrays {
		r := dag.Ref{Array: a, Block: 0, Bytes: 100}
		t.Inputs = append(t.Inputs, r)
		t.Heavy = append(t.Heavy, r)
	}
	return t
}

func TestAffinityPlacesTasksWithTheirData(t *testing.T) {
	tasks := []*dag.Task{
		mkTask("t0", "a"),
		mkTask("t1", "b"),
		mkTask("t2", "a", "b"), // a on 0 (100B), b on 1 (100B): tie -> less loaded
	}
	where := map[string]int{"a": 0, "b": 1}
	assign := Affinity(tasks, 2, func(r dag.Ref) (int, bool) {
		n, ok := where[r.Array]
		return n, ok
	})
	if assign["t0"] != 0 {
		t.Errorf("t0 on node %d, want 0", assign["t0"])
	}
	if assign["t1"] != 1 {
		t.Errorf("t1 on node %d, want 1", assign["t1"])
	}
}

func TestAffinityPrefersMajorityBytes(t *testing.T) {
	big := dag.Ref{Array: "big", Block: 0, Bytes: 1000}
	small := dag.Ref{Array: "small", Block: 0, Bytes: 10}
	task := &dag.Task{ID: "t", Inputs: []dag.Ref{big, small}}
	assign := Affinity([]*dag.Task{task}, 2, func(r dag.Ref) (int, bool) {
		if r.Array == "big" {
			return 1, true
		}
		return 0, true
	})
	if assign["t"] != 1 {
		t.Fatalf("task placed on %d, want 1 (hosts 1000 of 1010 input bytes)", assign["t"])
	}
}

func TestAffinityBalancesDataFreeTasks(t *testing.T) {
	var tasks []*dag.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, mkTask(string(rune('a'+i))))
	}
	assign := Affinity(tasks, 2, func(dag.Ref) (int, bool) { return 0, false })
	counts := map[int]int{}
	for _, n := range assign {
		counts[n]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("unbalanced placement: %v", counts)
	}
}

func TestRoundRobin(t *testing.T) {
	tasks := []*dag.Task{mkTask("a"), mkTask("b"), mkTask("c")}
	assign := RoundRobin(tasks, 2)
	if assign["a"] != 0 || assign["b"] != 1 || assign["c"] != 0 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestPolicyPrefersResident(t *testing.T) {
	p := NewPolicy()
	ready := []*dag.Task{mkTask("cold", "X"), mkTask("hot", "Y")}
	got := p.Pick(ready, func(r dag.Ref) bool { return r.Array == "Y" })
	if got.ID != "hot" {
		t.Fatalf("picked %s, want hot", got.ID)
	}
}

func TestPolicyMRUTieBreak(t *testing.T) {
	p := NewPolicy()
	// Nothing resident; "b" used more recently than "a".
	p.Touch([]dag.Ref{{Array: "a", Block: 0, Bytes: 1}})
	p.Touch([]dag.Ref{{Array: "b", Block: 0, Bytes: 1}})
	ready := []*dag.Task{mkTask("ta", "a"), mkTask("tb", "b")}
	got := p.Pick(ready, func(dag.Ref) bool { return false })
	if got.ID != "tb" {
		t.Fatalf("picked %s, want tb (MRU-first)", got.ID)
	}
}

func TestPolicyFIFOWhenReorderDisabled(t *testing.T) {
	p := NewPolicy()
	p.Reorder = false
	p.Touch([]dag.Ref{{Array: "b", Block: 0, Bytes: 1}})
	ready := []*dag.Task{mkTask("first", "a"), mkTask("second", "b")}
	got := p.Pick(ready, func(dag.Ref) bool { return false })
	if got.ID != "first" {
		t.Fatalf("picked %s, want first", got.ID)
	}
}

func TestPolicyEmptyReady(t *testing.T) {
	p := NewPolicy()
	if p.Pick(nil, func(dag.Ref) bool { return false }) != nil {
		t.Fatal("Pick(nil) != nil")
	}
}

// TestPrefetchTargets: the window counts ready tasks, the picked one and
// those whose data are resident included. It names the runners-up's missing
// heavy refs, each once, and never the picked task's: its own read loads it.
func TestPrefetchTargets(t *testing.T) {
	p := NewPolicy()
	ready := []*dag.Task{
		mkTask("t1", "m1"),
		mkTask("t2", "m2"),
		mkTask("t3", "m1"), // duplicate heavy ref must not repeat
		mkTask("t4", "m3"),
		mkTask("t5", "m4"),
	}
	resident := func(r dag.Ref) bool { return r.Array == "m2" || r.Array == "m3" }
	// Order: t2 and t4 (resident), then t1, t3, t5.
	for _, tc := range []struct {
		window int
		want   []string
	}{
		{0, nil},
		{1, nil},                  // the picked task t2 alone
		{2, nil},                  // t4 is resident: its place needs no fetch
		{3, []string{"m1"}},       // t1 misses m1
		{4, []string{"m1"}},       // t3 misses m1 too: named once
		{9, []string{"m1", "m4"}}, // every runner-up's missing data
	} {
		var got []string
		for _, r := range p.PrefetchTargets(ready, resident, tc.window) {
			got = append(got, r.Array)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("window %d: targets %v, want %v", tc.window, got, tc.want)
		}
	}
}

func TestSimCacheLRU(t *testing.T) {
	c := NewSimCache(200)
	a := dag.Ref{Array: "a", Block: 0, Bytes: 100}
	b := dag.Ref{Array: "b", Block: 0, Bytes: 100}
	d := dag.Ref{Array: "d", Block: 0, Bytes: 100}
	if !c.Use(a) || !c.Use(b) {
		t.Fatal("first uses should load")
	}
	if c.Use(a) {
		t.Fatal("second use of a should hit")
	}
	// Loading d evicts LRU = b.
	if !c.Use(d) {
		t.Fatal("d should load")
	}
	if c.Resident(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Resident(a) || !c.Resident(d) {
		t.Fatal("a and d should be resident")
	}
	if c.Loads != 3 || c.LoadedBytes != 300 {
		t.Fatalf("loads=%d bytes=%d", c.Loads, c.LoadedBytes)
	}
}

func TestSimCacheNeverEvictsOnlyEntry(t *testing.T) {
	c := NewSimCache(10) // smaller than any block
	big := dag.Ref{Array: "big", Block: 0, Bytes: 100}
	c.Use(big)
	if !c.Resident(big) {
		t.Fatal("sole oversized entry evicted")
	}
}

func TestOrderIsStableAndComplete(t *testing.T) {
	p := NewPolicy()
	p.Touch([]dag.Ref{{Array: "m2", Block: 0, Bytes: 1}})
	ready := []*dag.Task{
		mkTask("t1", "m1"),
		mkTask("t2", "m2"), // most recent -> first among non-resident
		mkTask("t3", "m3"),
		mkTask("t4", "m4"),
	}
	resident := func(r dag.Ref) bool { return r.Array == "m3" }
	got := p.Order(ready, resident)
	if len(got) != len(ready) {
		t.Fatalf("Order returned %d of %d tasks", len(got), len(ready))
	}
	if got[0].ID != "t3" {
		t.Fatalf("first = %s, want resident t3", got[0].ID)
	}
	if got[1].ID != "t2" {
		t.Fatalf("second = %s, want MRU t2", got[1].ID)
	}
	// Remaining two keep insertion order (stable sort).
	if got[2].ID != "t1" || got[3].ID != "t4" {
		t.Fatalf("tail = %s,%s, want t1,t4", got[2].ID, got[3].ID)
	}
	// Order must agree with Pick on the head.
	if pick := p.Pick(ready, resident); pick.ID != got[0].ID {
		t.Fatalf("Pick %s != Order head %s", pick.ID, got[0].ID)
	}
	// FIFO mode preserves input order entirely.
	p.Reorder = false
	fifo := p.Order(ready, resident)
	for i := range ready {
		if fifo[i].ID != ready[i].ID {
			t.Fatalf("FIFO order changed position %d", i)
		}
	}
}

func TestPrefetchTargetsFollowOrder(t *testing.T) {
	p := NewPolicy()
	p.Touch([]dag.Ref{{Array: "b", Block: 0, Bytes: 1}})
	ready := []*dag.Task{mkTask("ta", "a"), mkTask("tb", "b"), mkTask("tc", "c")}
	got := p.PrefetchTargets(ready, func(dag.Ref) bool { return false }, 3)
	// The MRU task tb is the pick: its datum is its own read, not a
	// prefetch. The runners-up follow in order.
	if len(got) != 2 || got[0].Array != "a" || got[1].Array != "c" {
		t.Fatalf("targets = %v, want a then c", got)
	}
}
