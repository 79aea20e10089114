package obs

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record("transition", "queued", SpanContext{}, SpanID{}, nil)
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
	r.Preload([]FlightEvent{{Seq: 1}})
}

func TestFlightRecorderRingBound(t *testing.T) {
	r := NewFlightRecorder(4)
	sc := NewSpanContext()
	for i := 0; i < 10; i++ {
		r.Record("note", fmt.Sprintf("ev%d", i), sc, SpanID{}, nil)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Name != want {
			t.Fatalf("event %d = %q, want %q (oldest-first, newest retained)", i, ev.Name, want)
		}
		if ev.Seq != uint64(7+i) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, 7+i)
		}
		if ev.Trace != sc.Trace.String() || ev.Span != sc.Span.String() {
			t.Fatal("causal ids not recorded")
		}
	}
}

// TestFlightRecorderGrowsOnDemand: a job records about four events, so the
// ring allocates for what it holds rather than its bound — and once the
// bound is reached it overwrites and counts drops exactly as above.
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	r := NewFlightRecorder(0)
	for i := 0; i < 4; i++ {
		r.Record("transition", fmt.Sprintf("ev%d", i), SpanContext{}, SpanID{}, nil)
	}
	if c := cap(r.ring); r.Len() != 4 || c > 8 {
		t.Fatalf("after 4 events: Len = %d, ring capacity %d, want 4 and ≤ 8 (not %d up front)", r.Len(), c, DefaultFlightEvents)
	}
	const total = DefaultFlightEvents + 10
	for i := 4; i < total; i++ {
		r.Record("note", fmt.Sprintf("ev%d", i), SpanContext{}, SpanID{}, nil)
	}
	if r.Len() != DefaultFlightEvents || r.Dropped() != total-DefaultFlightEvents {
		t.Fatalf("at capacity: Len = %d, Dropped = %d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if evs[0].Name != "ev10" || evs[len(evs)-1].Name != fmt.Sprintf("ev%d", total-1) {
		t.Fatalf("wrapped ring holds %s..%s, want ev10..ev%d", evs[0].Name, evs[len(evs)-1].Name, total-1)
	}
}

func TestFlightRecorderPreload(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Preload([]FlightEvent{{Seq: 5, Kind: "transition", Name: "queued"}, {Seq: 6, Kind: "transition", Name: "running"}})
	r.Record("transition", "done", SpanContext{}, SpanID{}, nil)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Name != "queued" || evs[1].Name != "running" || evs[2].Name != "done" {
		t.Fatalf("order wrong: %+v", evs)
	}
	if evs[2].Seq != 7 {
		t.Fatalf("post-recovery seq = %d, want 7 (continues past preloaded)", evs[2].Seq)
	}

	// Preload beyond capacity drops from the front.
	r2 := NewFlightRecorder(2)
	r2.Preload([]FlightEvent{{Seq: 1, Name: "a"}, {Seq: 2, Name: "b"}, {Seq: 3, Name: "c"}})
	evs = r2.Events()
	if len(evs) != 2 || evs[0].Name != "b" || evs[1].Name != "c" {
		t.Fatalf("overfull preload kept %+v", evs)
	}
	if r2.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r2.Dropped())
	}
}

func TestFlightTrace(t *testing.T) {
	r := NewFlightRecorder(16)
	root := NewSpanContext()
	r.Record("transition", "queued", root.Child(), root.Span, map[string]string{"tenant": "acme"})
	r.Record("transition", "running", root.Child(), root.Span, nil)
	r.Record("retry", "io", root.Child(), root.Span, map[string]string{"error": "transient"})
	r.Record("transition", "done", root.Child(), root.Span, nil)

	data, err := FlightTrace(r.Events(), PidJobs, "job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(data); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	// 1 metadata + 2 state spans (queued, running) + retry instant + terminal instant.
	var spans, instants, meta int
	for _, ev := range tf.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if meta != 1 || spans != 2 || instants != 2 {
		t.Fatalf("meta/spans/instants = %d/%d/%d, want 1/2/2", meta, spans, instants)
	}

	// The root span is only referenced as a parent here; together with a
	// blob that contains it, the combined set must be causally closed.
	rootBlob := []byte(fmt.Sprintf(
		`[{"name":"job","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"trace_id":%q,"span_id":%q}}]`,
		root.Trace.String(), root.Span.String()))
	if err := ValidateCausal(rootBlob, data); err != nil {
		t.Fatalf("ValidateCausal: %v", err)
	}
	// Without the root blob, the flight events are all orphans.
	if err := ValidateCausal(data); err == nil {
		t.Fatal("ValidateCausal accepted orphan parents")
	}

	if _, err := FlightTrace(nil, 1, "x"); err == nil {
		t.Fatal("FlightTrace accepted empty events")
	}
}
