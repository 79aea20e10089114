package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dooc_test_ops_total", "ops", L("node", "0"))
	g := reg.Gauge("dooc_test_depth", "depth")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolving the series must return the same storage.
			c2 := reg.Counter("dooc_test_ops_total", "ops", L("node", "0"))
			for i := 0; i < per; i++ {
				c2.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestSeriesIdentityAndSum(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dooc_x_total", "x", L("node", "0"))
	b := reg.Counter("dooc_x_total", "x", L("node", "1"))
	if a == b {
		t.Fatal("distinct labels must produce distinct series")
	}
	// Label order must not split a series.
	c1 := reg.Counter("dooc_y_total", "y", L("a", "1"), L("b", "2"))
	c2 := reg.Counter("dooc_y_total", "y", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Fatal("label order split a series")
	}
	a.Add(3)
	b.Add(4)
	if got := reg.Sum("dooc_x_total"); got != 7 {
		t.Fatalf("Sum = %d, want 7", got)
	}
	if got := reg.Sum("dooc_missing_total"); got != 0 {
		t.Fatalf("Sum of unknown family = %d, want 0", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dooc_z_total", "z")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	reg.Gauge("dooc_z_total", "z")
}

func TestHistogramInvariants(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dooc_test_seconds", "latency", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	vals := []float64{0.0001, 0.005, 0.05, 0.5, 2}
	const loops = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				for _, v := range vals {
					h.Observe(v)
				}
			}
		}()
	}
	wg.Wait()
	want := int64(4 * loops * len(vals))
	if got := h.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	var bucketSum int64
	for _, c := range h.BucketCounts() {
		bucketSum += c
	}
	if bucketSum != want {
		t.Fatalf("sum of bucket counts = %d, want %d (histogram must not lose observations)", bucketSum, want)
	}
	// 0.5 and 2 both exceed the last bound: +Inf bucket holds 2/5 of them.
	counts := h.BucketCounts()
	if counts[len(counts)-1] != int64(4*loops*2) {
		t.Fatalf("+Inf bucket = %d, want %d", counts[len(counts)-1], 4*loops*2)
	}
	if h.Sum() <= 0 {
		t.Fatalf("histogram sum = %g, want > 0", h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dooc_a_total", "a help", L("node", "0")).Add(5)
	reg.Gauge("dooc_b", "b help").Set(-2)
	h := reg.Histogram("dooc_c_seconds", "c help", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dooc_a_total a help",
		"# TYPE dooc_a_total counter",
		`dooc_a_total{node="0"} 5`,
		"# TYPE dooc_b gauge",
		"dooc_b -2",
		"# TYPE dooc_c_seconds histogram",
		`dooc_c_seconds_bucket{le="0.01"} 1`,
		`dooc_c_seconds_bucket{le="0.1"} 2`,
		`dooc_c_seconds_bucket{le="+Inf"} 3`,
		"dooc_c_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dooc_s_total", "s", L("node", "1")).Add(9)
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	s := snap[0]
	if s.Name != "dooc_s_total" || s.Kind != "counter" || s.Value != 9 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
	if s.ID() != `dooc_s_total{node="1"}` {
		t.Fatalf("unexpected series ID %q", s.ID())
	}
}

func TestNilSafety(t *testing.T) {
	// Nil instruments are no-ops that read zero.
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}

	// A nil registry hands out live counters and gauges — each call a fresh,
	// unregistered one — so a layer without a registry still has its counts,
	// and nothing about them is exported.
	var reg *Registry
	rc := reg.Counter("dooc_x_total", "")
	rg := reg.Gauge("dooc_x", "")
	rc.Inc()
	rc.Add(5)
	rg.Set(3)
	rg.Add(-1)
	if rc.Value() != 6 || rg.Value() != 2 {
		t.Fatalf("nil-registry counter = %d, gauge = %d, want 6 and 2", rc.Value(), rg.Value())
	}
	if reg.Counter("dooc_x_total", "") == rc {
		t.Fatal("a nil registry must not share series between callers")
	}
	if rh := reg.Histogram("dooc_x_seconds", "", nil); rh != nil {
		t.Fatal("nil registry histogram must stay nil")
	}
	if reg.Sum("dooc_x_total") != 0 || reg.Snapshot() != nil || reg.Totals() != nil {
		t.Fatal("nil registry must read empty")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatal("nil registry WritePrometheus must be a no-op")
	}
	// A live registry's Totals never picks up an unregistered counter.
	live := NewRegistry()
	live.Counter("dooc_registered_total", "").Inc()
	if tot := live.Totals(); len(tot) != 1 || tot["dooc_registered_total"] != 1 {
		t.Fatalf("Totals = %v, want only the registered family", tot)
	}

	var tr *Tracer
	tr.Span("a", "b", 0, 0, timeZero(), timeZero(), nil)
	tr.Instant("a", "b", 0, 0, timeZero(), nil)
	if tr.Len() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
}

// TestTotalsReconcileHistogramSums: a histogram family of durations appears
// in Totals twice — its observation count under its own name, and under
// <name>_sum_ns the time observed across all its series, which is what the
// series' own Sum()s add up to, in whole nanoseconds. Counters, gauges and a
// histogram of anything but seconds get no such twin.
func TestTotalsReconcileHistogramSums(t *testing.T) {
	reg := NewRegistry()
	waits := []*Histogram{
		reg.Histogram("dooc_test_lease_wait_seconds", "lease waits", nil, L("node", "0")),
		reg.Histogram("dooc_test_lease_wait_seconds", "lease waits", nil, L("node", "1")),
	}
	var wantNs int64
	for i, ns := range []int64{250, 1_500, 40_000, 3_000_000, 7} {
		waits[i%2].Observe(float64(ns) / 1e9)
		wantNs += ns
	}
	reg.Histogram("dooc_test_batch_rows", "rows per batch", []float64{1, 10, 100}).Observe(42)
	reg.Counter("dooc_test_total", "a counter").Add(3)
	reg.Gauge("dooc_test_depth", "a gauge").Set(5)

	tot := reg.Totals()
	want := map[string]int64{
		"dooc_test_lease_wait_seconds":        5,
		"dooc_test_lease_wait_seconds_sum_ns": wantNs,
		"dooc_test_batch_rows":                1,
		"dooc_test_total":                     3,
		"dooc_test_depth":                     5,
	}
	if len(tot) != len(want) {
		t.Fatalf("Totals = %v, want %v", tot, want)
	}
	for name, v := range want {
		if tot[name] != v {
			t.Errorf("Totals[%s] = %d, want %d", name, tot[name], v)
		}
	}
	if got := int64(math.Round((waits[0].Sum() + waits[1].Sum()) * 1e9)); got != tot["dooc_test_lease_wait_seconds_sum_ns"] {
		t.Errorf("the series' sums add up to %d ns, Totals says %d", got, tot["dooc_test_lease_wait_seconds_sum_ns"])
	}
	if tot["dooc_test_lease_wait_seconds"] != reg.Sum("dooc_test_lease_wait_seconds") {
		t.Error("Totals and Sum disagree on the observation count")
	}
}
