// Package obs is the runtime's observability substrate: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket histograms with
// Prometheus text exposition) and a lightweight span/event tracer emitting
// Chrome trace-event JSON loadable in perfetto or chrome://tracing.
//
// Every layer of the middleware — storage, scheduler, engine, remote,
// datacutter — registers its series here under the naming scheme
// `dooc_<layer>_<name>` (counters end in `_total`, latency histograms in
// `_seconds`, sizes in `_bytes`). The registry is the measurement substrate
// the paper's quantitative claims are validated against: block-load counts
// (Fig. 5b), I/O overlap (Tables III/IV), and recovery overheads all
// reconcile against these counters in the test suite.
//
// All types are nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, or *Tracer are no-ops, so instrumentation call sites never
// branch on whether observability is enabled. A nil *Registry still hands
// out live counters and gauges — unregistered, so no export or Totals sees
// them — which lets a layer keep exactly one count per event: the accessor
// that reports it (cluster.Node.Counters, remote.Server.Requests) reads the
// same instrument the exposition does.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series (e.g. node="0").
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the series to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// series is one registered (name, labels) pair with its backing metric.
type series struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric series. All methods are safe for concurrent use;
// registering the same (name, labels) twice returns the same metric, so
// layers can resolve their counters independently and still share series.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	order     []string           // family registration order
	byID      map[string]*series // id = name + rendered labels
	seriesCap int
	dropped   *Counter // dooc_obs_series_dropped_total
}

// DefaultSeriesCap bounds the distinct series per metric family. High-
// cardinality label sources (per-job, per-tenant) overflow into a single
// catch-all series instead of growing the registry without bound.
const DefaultSeriesCap = 256

// overflowLabelValue replaces every label value of a series that would
// exceed the family's cardinality cap.
const overflowLabelValue = "other"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:  make(map[string]*family),
		byID:      make(map[string]*series),
		seriesCap: DefaultSeriesCap,
	}
}

// SetSeriesCap replaces the per-family series cap (n <= 0 restores the
// default). Series already registered are unaffected.
func (r *Registry) SetSeriesCap(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultSeriesCap
	}
	r.mu.Lock()
	r.seriesCap = n
	r.mu.Unlock()
}

// seriesID renders the unique identity of a (name, labels) pair. Labels are
// sorted so registration order does not split series.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns a sorted copy of labels.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates a series. Registering an existing name with a
// different kind panics: that is a programming error, not runtime state.
// A new labelled series that would push its family past the cardinality cap
// is routed to the family's single overflow series (every label value
// "other") and counted in dooc_obs_series_dropped_total.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	labels = sortLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, help, kind, labels, true)
}

func (r *Registry) lookupLocked(name, help string, kind metricKind, labels []Label, capped bool) *series {
	id := seriesID(name, labels)
	if s, ok := r.byID[id]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, s.kind))
		}
		return s
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric family %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	if capped && len(labels) > 0 && len(f.series) >= r.seriesCap {
		if r.dropped == nil {
			r.dropped = r.lookupLocked("dooc_obs_series_dropped_total",
				"series routed to a family's overflow slot by the cardinality cap",
				counterKind, nil, false).counter
		}
		r.dropped.Inc()
		other := make([]Label, len(labels))
		for i, l := range labels {
			other[i] = Label{Key: l.Key, Value: overflowLabelValue}
		}
		return r.lookupLocked(name, help, kind, other, false)
	}
	s := &series{name: name, labels: labels, kind: kind}
	switch kind {
	case counterKind:
		s.counter = &Counter{}
	case gaugeKind:
		s.gauge = &Gauge{}
	case histogramKind:
		// hist is attached by the caller (bucket bounds vary).
	}
	f.series = append(f.series, s)
	r.byID[id] = s
	return s
}

// Counter registers (or finds) a counter series. A nil registry returns a
// live counter that belongs to no family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, help, counterKind, labels).counter
}

// Gauge registers (or finds) a gauge series. A nil registry returns a live
// gauge that belongs to no family.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, help, gaugeKind, labels).gauge
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit). nil bounds use DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, histogramKind, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// Sum adds up the values of every counter or gauge series in the named
// family (e.g. the per-node cache hits of the whole cluster). Histogram
// families return the summed observation count.
func (r *Registry) Sum(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	var list []*series
	if ok {
		list = append(list, f.series...)
	}
	r.mu.Unlock()
	n, _ := sumSeries(list)
	return n
}

// sumSeries adds up one family's series: the values of counters and gauges,
// the observation counts of histograms — and what those observations add up
// to.
func sumSeries(list []*series) (n int64, observed float64) {
	for _, s := range list {
		switch s.kind {
		case counterKind:
			n += s.counter.Value()
		case gaugeKind:
			n += s.gauge.Value()
		case histogramKind:
			n += s.hist.Count()
			observed += s.hist.Sum()
		}
	}
	return n, observed
}

// Totals snapshots every family's summed value keyed by family name —
// counters and gauges sum their series, histograms their observation
// counts. A histogram family of durations (named …_seconds) also yields the
// time it observed in all, as whole nanoseconds under <name>_sum_ns:
// dooc_storage_lease_wait_seconds says how many leases waited,
// dooc_storage_lease_wait_seconds_sum_ns for how long. Benchmark reports
// embed it (BENCH_*.json) so a result JSON carries the run's full counter
// state, diffable across PRs.
func (r *Registry) Totals() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	families := make(map[string][]*series, len(r.families))
	for name, f := range r.families {
		families[name] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()
	out := make(map[string]int64, len(families))
	for name, list := range families {
		n, seconds := sumSeries(list)
		out[name] = n
		if len(list) > 0 && list[0].kind == histogramKind && strings.HasSuffix(name, "_seconds") {
			out[name+"_sum_ns"] = int64(math.Round(seconds * 1e9))
		}
	}
	return out
}

// SumWhere is Sum restricted to series carrying the label key=value —
// e.g. the bytes one codec contributed across every node.
func (r *Registry) SumWhere(name, key, value string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	var list []*series
	if ok {
		list = append(list, f.series...)
	}
	r.mu.Unlock()
	var n int64
	for _, s := range list {
		matched := false
		for _, l := range s.labels {
			if l.Key == key && l.Value == value {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		switch s.kind {
		case counterKind:
			n += s.counter.Value()
		case gaugeKind:
			n += s.gauge.Value()
		case histogramKind:
			n += s.hist.Count()
		}
	}
	return n
}
