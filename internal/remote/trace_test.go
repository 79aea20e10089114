package remote

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dooc/internal/jobs"
	"dooc/internal/obs"
)

// TestTracePropagatesOverWire: a submission stamped with a client trace
// context rides the gob framing to the server, the server's job spans join
// it, and the client-side and server-side Chrome traces compose into one
// causal tree under obs.ValidateCausal — the end-to-end property the CI
// trace smoke asserts across real processes.
func TestTracePropagatesOverWire(t *testing.T) {
	server := obs.NewTracer()
	cl, svc, _, _ := newJobServer(t, jobs.Config{MaxRunning: 2, QueueDepth: 8, Trace: server})

	client := obs.NewTracer()
	client.SetProcessName(obs.PidClient, "doocrun-test")
	root := obs.NewSpanContext()
	start := time.Now()

	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 2, Seed: 1, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != root.Trace.String() {
		t.Fatalf("submitted status trace ID %q, want the client's %q", st.TraceID, root.Trace.String())
	}
	if _, _, err := cl.JobResult(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.JobStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.TraceID != root.Trace.String() {
		t.Fatalf("final status trace ID %q, want %q", final.TraceID, root.Trace.String())
	}
	client.SpanCtx("doocrun alice", "client", obs.PidClient, 0, start, time.Now(),
		root, obs.SpanID{}, nil)

	var clientBlob, serverBlob bytes.Buffer
	if err := client.WriteJSON(&clientBlob); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteJSON(&serverBlob); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCausal(clientBlob.Bytes(), serverBlob.Bytes()); err != nil {
		t.Fatalf("client+server traces do not form one causal tree: %v", err)
	}

	// The server's flight recorder carries the same identity, so the
	// journaled per-job trace joins the tree too.
	events, _, err := svc.Manager.FlightEvents(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Trace != root.Trace.String() {
		t.Fatalf("flight events do not carry the client trace ID: %+v", events)
	}
	jobBlob, err := obs.FlightTrace(events, obs.PidJobs, "job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCausal(clientBlob.Bytes(), serverBlob.Bytes(), jobBlob); err != nil {
		t.Fatalf("flight-recorder trace breaks the causal tree: %v", err)
	}
}

// TestUntracedClientInterop: an untraced submission (zero trace words on
// the wire) still works against a tracing server — the server mints its own
// identity and the result round-trip is unaffected.
func TestUntracedClientInterop(t *testing.T) {
	cl, _, _, _ := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4, Trace: obs.NewTracer()})
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "bob", Iters: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.JobResult(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.JobStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.TraceID == "" {
		t.Fatal("tracing server minted no trace ID for an untraced submission")
	}
	if _, err := obs.ParseTraceID(final.TraceID); err != nil {
		t.Fatalf("minted trace ID %q does not parse: %v", final.TraceID, err)
	}
}

// TestJobStatusCarriesTraceJSON: the wire status marshals trace_id for HTTP
// consumers exactly as the local JobStatus does.
func TestJobStatusCarriesTraceJSON(t *testing.T) {
	cl, _, _, _ := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4, Trace: obs.NewTracer()})
	root := obs.NewSpanContext()
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "carol", Iters: 1, Seed: 3, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.JobResult(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.JobStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["trace_id"] != root.Trace.String() {
		t.Fatalf("status JSON trace_id = %v, want %s", decoded["trace_id"], root.Trace)
	}
}
