package obs

import (
	"sync"
	"time"
)

// FlightEvent is one structured entry in a job's flight recorder: a
// lifecycle transition, a span reference, or a retry/fault annotation. The
// hex-encoded causal IDs make a snapshot self-contained — it can be
// journaled, recovered after a crash, and rendered as a Chrome trace without
// the process that recorded it.
type FlightEvent struct {
	Seq    uint64            `json:"seq"`
	At     time.Time         `json:"at"`
	Kind   string            `json:"kind"` // "transition", "span", "retry", "note"
	Name   string            `json:"name"`
	Trace  string            `json:"trace_id,omitempty"`
	Span   string            `json:"span_id,omitempty"`
	Parent string            `json:"parent_id,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// DefaultFlightEvents bounds a flight recorder when no capacity is given.
const DefaultFlightEvents = 64

// FlightRecorder is a bounded ring of FlightEvents. The ring grows on demand
// up to its capacity; once full, the oldest events are overwritten and
// counted as dropped — a job can never grow its journal records without
// bound. A nil *FlightRecorder discards everything.
type FlightRecorder struct {
	mu       sync.Mutex
	ring     []FlightEvent // len(ring) == n until the ring first fills
	capacity int
	start    int // index of oldest event (0 until the ring first fills)
	n        int // live events
	seq      uint64
	dropped  uint64
}

// NewFlightRecorder returns a recorder bounded to capacity events
// (DefaultFlightEvents when capacity <= 0). Nothing is allocated up front: a
// job records a handful of events, far fewer than the bound.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{capacity: capacity}
}

// Record appends an event, evicting the oldest when the ring is full.
func (r *FlightRecorder) Record(kind, name string, sc SpanContext, parent SpanID, attrs map[string]string) {
	if r == nil {
		return
	}
	ev := FlightEvent{At: time.Now(), Kind: kind, Name: name, Attrs: attrs}
	if !sc.Trace.IsZero() {
		ev.Trace = sc.Trace.String()
	}
	if !sc.Span.IsZero() {
		ev.Span = sc.Span.String()
	}
	if !parent.IsZero() {
		ev.Parent = parent.String()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.pushLocked(ev)
	r.mu.Unlock()
}

// pushLocked appends ev, overwriting the oldest event once the ring is full.
func (r *FlightRecorder) pushLocked(ev FlightEvent) {
	if r.n < r.capacity {
		r.ring = append(r.ring, ev)
		r.n++
		return
	}
	r.ring[r.start] = ev
	r.start = (r.start + 1) % r.capacity
	r.dropped++
}

// Events returns the live events oldest-first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.start+i)%len(r.ring)])
	}
	return out
}

// Len returns the number of live events.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events the ring has overwritten.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Preload seeds the ring with recovered events (oldest-first), keeping the
// sequence counter ahead of them so post-recovery events sort after. Events
// beyond capacity drop from the front, as they would have in flight.
func (r *FlightRecorder) Preload(events []FlightEvent) {
	if r == nil || len(events) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range events {
		r.pushLocked(ev)
		if ev.Seq > r.seq {
			r.seq = ev.Seq
		}
	}
}
