package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call it made into a
// layer. Start and End are offsets from the recorder's epoch. Spans of one
// unit of work (a rep, a solve, a job) share Run.
type span struct {
	ID, Parent int // Parent is -1 for a root
	Run        int
	Layer      string
	Name       string
	Start, End time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run pays no cost for them.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; the zero parent is noSpan.
type openSpan struct {
	r  *recorder
	id int
}

var noSpan = openSpan{id: -1}

func (r *recorder) start(parent openSpan, run int, layer, name string) openSpan {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Run: run, Layer: layer, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return openSpan{r: r, id: id}
}

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans[s.id].End = now
	s.r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval its
// direct children cover. Children may overlap each other (two clients inside
// one window) and may stick out of the parent; the covered part is the union
// of the children clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time by layer, over spans whose Run is at least fromRun
// (set-up spans carry a negative Run).
func layerSelf(spans []span, fromRun int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		if spans[i].Run >= fromRun {
			out[spans[i].Layer] += d
		}
	}
	return out
}

// spanDurations lists the durations, in ms, of the spans called name with Run
// at least fromRun.
func spanDurations(spans []span, name string, fromRun int) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Run >= fromRun {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete "X"
// events; pid 1, tid = Run) for chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
