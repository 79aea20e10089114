package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dooc/internal/sparse"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so sorting matters
		}
		level, value := tailPercentile(xs)
		if level != tc.level {
			t.Errorf("n=%d: level %g, want %g", tc.n, level, tc.level)
		}
		beyond := 0
		for _, x := range xs {
			if x > value {
				beyond++
			}
		}
		if tc.level > 50 && beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= 10", tc.n, level, beyond)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 90); got != 5 {
		t.Errorf("p90 of 1..5 = %g, want 5", got)
	}
}

// The host clock scales an interval by cpu / (cpu + steal) read over it,
// interpolating between samples; without steal the factor is exactly 1.
func TestHostClockGivenShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	h := &hostClock{samples: []hostSample{
		{at: at(0), cpu: d(0), steal: d(0)},
		{at: at(100), cpu: d(100), steal: d(0)},   // all of it given
		{at: at(200), cpu: d(150), steal: d(50)},  // half of the second 100 ms stolen
		{at: at(300), cpu: d(150), steal: d(50)},  // blocked: neither ran nor was robbed
		{at: at(400), cpu: d(175), steal: d(125)}, // three quarters stolen
	}}
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 100, 1},
		{100, 200, 0.5},
		{150, 200, 0.5},  // inside one sample interval: its average
		{0, 200, 0.75},   // 150 run of 200 runnable
		{200, 300, 1},    // no steal read: exactly 1
		{250, 400, 0.25}, // 25 run of 100 runnable
		{-50, 100, 1},    // before the first sample: holds its value
		{300, 900, 0.25}, // after the last sample: holds its value
		{100, 100, 1},    // empty interval
	} {
		if got := h.given(at(tc.from), at(tc.to)); !near(got, tc.want) {
			t.Errorf("given(%d, %d) = %g, want %g", tc.from, tc.to, got, tc.want)
		}
	}
	live := startHostClock()
	time.Sleep(3 * hostClockPeriod)
	live.close()
	if n := len(live.samples); n < 3 {
		t.Errorf("the sampler took %d samples in three periods", n)
	}
	if g := live.given(live.samples[0].at, time.Now()); g <= 0 || g > 1 {
		t.Errorf("share given to this test %g, want in (0, 1]", g)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Name: "window", Start: at(0), End: at(100)},
		// two children that overlap each other on [30,40]: they cover [10,60]
		{ID: 1, Parent: 0, Layer: "remote", Name: "a", Start: at(10), End: at(40)},
		{ID: 2, Parent: 0, Layer: "remote", Name: "b", Start: at(30), End: at(60)},
		// a child that sticks out of its parent: only [90,100] counts
		{ID: 3, Parent: 0, Layer: "proxy", Name: "c", Start: at(90), End: at(120)},
		// a grandchild is its parent's business, not the root's
		{ID: 4, Parent: 1, Layer: "core", Name: "d", Start: at(15), End: at(25)},
		// a child wholly inside a sibling adds nothing
		{ID: 5, Parent: 0, Layer: "remote", Name: "e", Start: at(35), End: at(38)},
	}
	want := []time.Duration{at(100 - 50 - 10), at(30 - 10), at(30), at(30), at(10), at(3)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	byLayer := layerSelf(spans, 0)
	if byLayer["remote"] != at(20+30+3) || byLayer["bench"] != at(40) {
		t.Errorf("layer self times %v", byLayer)
	}

	r := newRecorder()
	root := r.start(noSpan, 7, "bench", "root")
	child := r.start(root, 7, "core", "child")
	child.end()
	root.end()
	snap := r.snapshot()
	if len(snap) != 2 || snap[1].Parent != snap[0].ID || snap[0].Parent != -1 || snap[1].Run != 7 || snap[1].End < snap[1].Start {
		t.Errorf("recorded spans %+v", snap)
	}
	var none *recorder
	none.start(noSpan, 0, "x", "y").end() // the untraced run records nothing and must not panic
	if none.snapshot() != nil {
		t.Error("nil recorder has spans")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) ([]byte, benchmarkFile) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return raw, f
}

func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	raw, f := readBenchmarkFile(t)
	if !bytes.Equal(raw, manifestJSON()) {
		t.Error("BENCHMARK.json differs from spec.go: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(raw) > 64<<10 || f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(raw), f.RunSeconds, f.Paths)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// A result line must carry every declared metric of its run and nothing else,
// under exactly the declared names and units, whatever the workload set.
func TestResultLineRoundTrip(t *testing.T) {
	_, f := readBenchmarkFile(t)
	for _, tc := range []struct {
		specs []metric
		want  int
	}{{endToEnd, len(f.EndToEnd)}, {perLayer, len(f.PerLayer)}} {
		l := newLedger(tc.specs)
		l.set(tc.specs[0].Name, 1.25, 3)
		line, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: l.report()})
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", back)
		}
		var res result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != tc.want || res.Metrics[tc.specs[0].Name].Value != 1.25 {
			t.Errorf("%d metrics after the round trip, want %d", len(res.Metrics), tc.want)
		}
		for _, s := range tc.specs {
			if got, ok := res.Metrics[s.Name]; !ok || got.Unit != s.Unit {
				t.Errorf("metric %s: unit %q, want %q", s.Name, got.Unit, s.Unit)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric must panic")
		}
	}()
	newLedger(endToEnd).set("no.such_metric", 1, 0)
}

func TestEveryLayerIsDeclaredAndMeasured(t *testing.T) {
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	on := make(map[string]bool)
	for _, w := range workloads {
		if w.New == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
		for _, l := range w.Layers {
			if !known[l] {
				t.Errorf("workload %s names unknown layer %q", w.Name, l)
			}
			on[l] = true
		}
	}
	measured := make(map[string]bool)
	for _, m := range perLayer {
		if !known[m.Layer] {
			t.Errorf("metric %s belongs to unknown layer %q", m.Name, m.Layer)
		}
		measured[m.Layer] = true
	}
	for _, l := range layers {
		if !on[l] || !measured[l] {
			t.Errorf("layer %s: on a workload's path %v, has a metric %v", l, on[l], measured[l])
		}
	}
}

func TestSeedDecidesTheInputs(t *testing.T) {
	gen := func(seed int64) string {
		m, err := genMatrix(300, 4, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return matrixSHA(m)
	}
	if gen(1) != gen(1) {
		t.Error("same seed, different matrix")
	}
	if gen(1) == gen(2) {
		t.Error("different seed, same matrix")
	}
	if shaFloats(startVector(300, 1)) == shaFloats(startVector(300, 2)) {
		t.Error("different seed, same start vector")
	}
}

func TestOracleAgreesWithTheUnpartitionedProduct(t *testing.T) {
	m, err := genMatrix(301, 4, 5, false) // 301 rows: block sizes differ
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(m, 3) // checks one product against sparse.MulVec itself
	if err != nil {
		t.Fatal(err)
	}
	x0 := startVector(301, 9)
	want, y := append([]float64(nil), x0...), make([]float64, 301)
	for i := 0; i < 3; i++ {
		sparse.MulVec(m, want, y)
		want, y = y, want
	}
	got := o.iterate(x0, 3)
	scale := sparse.Norm2(want)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12*scale || d < -1e-12*scale {
			t.Fatalf("row %d: blocked %g, unpartitioned %g", i, got[i], want[i])
		}
	}
	if shaFloats(x0) != shaFloats(startVector(301, 9)) {
		t.Error("iterate modified its start vector")
	}
}
