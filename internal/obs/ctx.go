package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Trace context: the causal identity a job carries across process
// boundaries. A TraceID names one causal tree end-to-end (client submit →
// queue → run → iterations → tasks → result); a SpanID names one node in
// that tree. Both travel over the gob wire as plain uint64 words; all-zero
// means untraced.

// TraceID is a 128-bit trace identifier. The zero value means "untraced".
type TraceID [16]byte

// SpanID is a 64-bit span identifier. The zero value means "no span".
type SpanID [8]byte

// IsZero reports whether t is the absent trace.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders t as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// Words splits t into (hi, lo) big-endian words for wire transport.
func (t TraceID) Words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(t[:8]), binary.BigEndian.Uint64(t[8:])
}

// TraceIDFromWords reassembles a TraceID from its wire words.
func TraceIDFromWords(hi, lo uint64) TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], hi)
	binary.BigEndian.PutUint64(t[8:], lo)
	return t
}

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	return t, nil
}

// IsZero reports whether s is the absent span.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders s as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Word returns s as a big-endian word for wire transport.
func (s SpanID) Word() uint64 { return binary.BigEndian.Uint64(s[:]) }

// SpanIDFromWord reassembles a SpanID from its wire word.
func SpanIDFromWord(w uint64) SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], w)
	return s
}

// ParseSpanID parses the 16-hex-digit form produced by String.
func ParseSpanID(str string) (SpanID, error) {
	var s SpanID
	if len(str) != 16 {
		return s, fmt.Errorf("obs: span id %q: want 16 hex digits", str)
	}
	if _, err := hex.Decode(s[:], []byte(str)); err != nil {
		return SpanID{}, fmt.Errorf("obs: span id %q: %w", str, err)
	}
	return s, nil
}

// SpanContext is the (trace, span) pair a caller passes down so children can
// link themselves under the right parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether sc carries a usable causal identity.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Child returns a fresh span under the same trace.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{Trace: sc.Trace, Span: NewSpanID()}
}

// NewSpanContext mints a fresh root: new trace, new root span.
func NewSpanContext() SpanContext {
	return SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
}

// ID generation: a crypto-seeded SplitMix64 stream behind an atomic counter.
// Tracing-path IDs only need uniqueness, not unpredictability, and an atomic
// add per ID keeps generation allocation-free and lock-free so even heavily
// traced runs pay nothing measurable.
var (
	idCounter atomic.Uint64
	idKey0    uint64
	idKey1    uint64
)

func init() {
	var seed [16]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		// Degraded environments still get per-process-unique IDs.
		binary.LittleEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(seed[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
	}
	idKey0 = binary.LittleEndian.Uint64(seed[:8]) | 1 // odd, never zero
	idKey1 = binary.LittleEndian.Uint64(seed[8:])
}

// splitmix64 is the finalizer from Steele et al.'s SplitMix generator: a
// bijection on uint64, so distinct inputs never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nextIDWord() uint64 {
	for {
		if w := splitmix64(idCounter.Add(1)*idKey0 + idKey1); w != 0 {
			return w
		}
	}
}

// NewTraceID mints a unique non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	return TraceIDFromWords(nextIDWord(), nextIDWord())
}

// NewSpanID mints a unique non-zero 64-bit span ID.
func NewSpanID() SpanID {
	return SpanIDFromWord(nextIDWord())
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc for downstream callees.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the span context stored by ContextWithSpan, or
// the zero SpanContext when none is present.
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}
