package remote

import (
	"bytes"
	"errors"
	"testing"

	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/proxy"
)

// newProxyServer is newJobServer with the proxy result plane enabled and a
// capability-handshaking client (the proxy verbs require the hello). When o
// is non-nil it receives both the client's and the proxy registry's series.
func newProxyServer(t *testing.T, o *obs.Registry) (*Client, *jobs.SolverService, string) {
	t.Helper()
	reg := proxy.NewRegistry(proxy.Config{Scope: "nodeA", Obs: o})
	t.Cleanup(reg.Close)
	_, svc, _, addr := newJobServer(t, jobs.Config{MaxRunning: 2, QueueDepth: 16, Proxy: reg})
	cl, err := DialOptions(addr, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if !cl.ProxyCapable() {
		t.Fatal("proxy-enabled server did not advertise ProxyCapBit")
	}
	return cl, svc, addr
}

// TestProxyVerbsRoundTrip drives the full by-reference surface over a live
// TCP server: submit, job-proxy, stat, addref/release, resolve — with the
// resolved bytes equal to the by-value result.
func TestProxyVerbsRoundTrip(t *testing.T) {
	cl, _, _ := newProxyServer(t, nil)
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 3, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	h, final, err := cl.JobProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !h.Valid() || h.Scope != "nodeA" {
		t.Fatalf("job-proxy: state=%s handle=%+v", final.State, h)
	}
	byValue, _, err := cl.JobResult(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h.Length != int64(len(byValue)) {
		t.Fatalf("handle length %d, by-value %d", h.Length, len(byValue))
	}

	got, h2, err := cl.ResolveProxy(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("resolve returned handle %+v, want %+v", h2, h)
	}
	if !bytes.Equal(got, byValue) {
		t.Fatal("resolved bytes differ from by-value result")
	}

	if _, refs, err := cl.ProxyStat(h.Ref()); err != nil || refs != 1 {
		t.Fatalf("stat: refs=%d err=%v", refs, err)
	}
	if _, refs, err := cl.ProxyAddRef(h.Ref(), ""); err != nil || refs != 2 {
		t.Fatalf("addref: refs=%d err=%v", refs, err)
	}
	if refs, err := cl.ProxyRelease(h.Ref(), ""); err != nil || refs != 1 {
		t.Fatalf("release: refs=%d err=%v", refs, err)
	}
	// The origin lease is the last reference; releasing it frees the result.
	if refs, err := cl.ProxyRelease(h.Ref(), ""); err != nil || refs != 0 {
		t.Fatalf("final release: refs=%d err=%v", refs, err)
	}
	if _, _, err := cl.ProxyStat(h.Ref()); !errors.Is(err, proxy.ErrProxyGone) {
		t.Fatalf("stat after free: %v", err)
	}
}

// TestProxyChunkedResolve exercises the chunked resolve protocol directly
// with ranges far below resolveChunk and reassembles the payload by hand.
func TestProxyChunkedResolve(t *testing.T) {
	cl, _, _ := newProxyServer(t, nil)
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := cl.JobProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cl.ResolveProxy(h.Ref())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 777 // deliberately unaligned
	var out []byte
	for lo := int64(0); lo < h.Length; lo += chunk {
		hi := lo + chunk
		if hi > h.Length {
			hi = h.Length
		}
		resp, err := cl.proxyCall(&request{Op: opProxyResolve, Array: h.Ref().String(), Lo: lo, Hi: hi})
		if err != nil {
			t.Fatalf("chunk [%d,%d): %v", lo, hi, err)
		}
		if resp.Total != h.Length {
			t.Fatalf("chunk total %d, handle %d", resp.Total, h.Length)
		}
		out = append(out, resp.data...)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("hand-chunked payload differs from streamed resolve")
	}
	// An out-of-bounds range is rejected, not clamped into silence.
	if _, err := cl.proxyCall(&request{Op: opProxyResolve, Array: h.Ref().String(), Lo: h.Length + 1, Hi: h.Length + 2}); err == nil {
		t.Fatal("out-of-bounds resolve range accepted")
	}
}

// TestProxyChainZeroClientBytes is the wire half of the dataflow
// acceptance: chain job A into job B purely by reference and assert — via
// the client's own payload-byte counter — that no result bytes crossed the
// client link until B's final explicit resolve. The server's resolve
// counters must account for exactly the two resolves: A's payload feeding
// B's input, and B's payload returned to the client.
func TestProxyChainZeroClientBytes(t *testing.T) {
	o := obs.NewRegistry()
	cl, svc, _ := newProxyServer(t, o)
	bytesIn := func() int64 { return o.Sum("dooc_remote_client_bytes_in_total") }

	a, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ha, _, err := cl.JobProxy(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 2, Input: ha.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	hb, final, err := cl.JobProxy(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("chained job state %s", final.State)
	}
	if got := bytesIn(); got != 0 {
		t.Fatalf("%d result bytes crossed the client link on the A->B hop, want 0", got)
	}

	// B's result matches an unchained 5-iteration run, fetched by reference.
	bBytes, _, err := cl.ResolveProxy(hb.Ref())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := svc.Manager.Result(bServerRef(t, svc, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bBytes, ref) {
		t.Fatal("chained by-reference result differs from unchained run")
	}
	if got := bytesIn(); got != hb.Length {
		t.Fatalf("client received %d payload bytes, want exactly the final resolve (%d)", got, hb.Length)
	}
	aBytes, err := svc.Manager.Result(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Sum("dooc_proxy_resolved_total"); got != 2 {
		t.Fatalf("dooc_proxy_resolved_total = %d, want 2", got)
	}
	if got, want := o.Sum("dooc_proxy_resolved_bytes_total"), int64(len(aBytes)+len(bBytes)); got != want {
		t.Fatalf("dooc_proxy_resolved_bytes_total = %d, want %d (A's input resolve + B's client resolve)", got, want)
	}
}

// bServerRef runs an unchained reference job server-side and returns its ID.
func bServerRef(t *testing.T, svc *jobs.SolverService, iters int, seed int64) int64 {
	t.Helper()
	st, err := svc.Submit(jobs.SolveRequest{Tenant: "ref", Iters: iters, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestProxyLegacyRejection: against a server whose proxy plane is off, the
// hello carries no ProxyCapBit and every proxy verb fails fast, client-side,
// with the typed ErrLegacyProxy.
func TestProxyLegacyRejection(t *testing.T) {
	_, _, _, plainAddr := newJobServer(t, jobs.Config{MaxRunning: 1, QueueDepth: 4})
	cl, err := Dial(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.ProxyCapable() {
		t.Fatal("proxy-less server advertised ProxyCapBit")
	}
	ref := proxy.Ref{Name: "job1", Epoch: 1}
	if _, _, err := cl.ProxyStat(ref); !errors.Is(err, ErrLegacyProxy) {
		t.Fatalf("stat against proxy-less server: %v", err)
	}
	if _, _, err := cl.ResolveProxy(ref); !errors.Is(err, ErrLegacyProxy) {
		t.Fatalf("resolve against proxy-less server: %v", err)
	}
	if _, _, err := cl.JobProxy(1); !errors.Is(err, ErrLegacyProxy) {
		t.Fatalf("job-proxy against proxy-less server: %v", err)
	}
	if _, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "a", Iters: 1, Input: ref}); !errors.Is(err, ErrLegacyProxy) {
		t.Fatalf("chained submit against proxy-less server: %v", err)
	}
}

// TestProxyTypedErrorsOverWire: registry lifetime errors survive the wire
// round trip as errors.Is-able values.
func TestProxyTypedErrorsOverWire(t *testing.T) {
	cl, _, _ := newProxyServer(t, nil)
	if _, _, err := cl.ProxyStat(proxy.Ref{Name: "job99", Epoch: 1}); !errors.Is(err, proxy.ErrUnknownProxy) {
		t.Fatalf("unknown handle: %v", err)
	}
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := cl.JobProxy(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ProxyRelease(h.Ref(), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.ResolveProxy(h.Ref()); !errors.Is(err, proxy.ErrProxyGone) {
		t.Fatalf("resolve of released handle: %v", err)
	}
	// A chained submit naming the dead handle is rejected typed, up front.
	if _, err := cl.SubmitJob(jobs.SolveRequest{Tenant: "alice", Iters: 1, Input: h.Ref()}); !errors.Is(err, proxy.ErrProxyGone) {
		t.Fatalf("chained submit on dead handle: %v", err)
	}
}
