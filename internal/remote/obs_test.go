package remote

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dooc/internal/obs"
	"dooc/internal/storage"
)

// startObsServer is startServer with a shared registry on both ends.
func startObsServer(t *testing.T, reg *obs.Registry) (*Server, *Client) {
	t.Helper()
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenOptions(st, "127.0.0.1:0", ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		st.Close()
	})
	return srv, cl
}

// TestRemoteMetricsReconcile checks that the wire is accounted identically on
// both ends: the client's RPC-latency histogram counts exactly the requests
// the server received, payload byte counters agree crosswise, and the active
// gauge settles back to zero once the traffic stops.
func TestRemoteMetricsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := startObsServer(t, reg)

	if err := cl.Create("arr", 64, 32); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("ab"), 16)
	if err := cl.WriteBlock("arr", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("arr", 1, payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.ReadBlock("arr", 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}

	// Clean connection, no retries: one client round trip per server request.
	if got, want := reg.Sum("dooc_remote_client_rpc_seconds"), srv.Requests(); got != want {
		t.Errorf("client observed %d round trips, server received %d", got, want)
	}
	// The wire is symmetric: what the client sends the server receives.
	if in, out := reg.Sum("dooc_remote_server_bytes_in_total"), reg.Sum("dooc_remote_client_bytes_out_total"); in != out {
		t.Errorf("server bytes in %d != client bytes out %d", in, out)
	}
	if out, in := reg.Sum("dooc_remote_server_bytes_out_total"), reg.Sum("dooc_remote_client_bytes_in_total"); out != in {
		t.Errorf("server bytes out %d != client bytes in %d", out, in)
	}
	if in, want := srv.BytesIn(), int64(2*len(payload)); in != want {
		t.Errorf("server bytes in = %d, want the two write payloads = %d", in, want)
	}
	if reconnects := reg.Sum("dooc_remote_client_reconnects_total"); reconnects != 0 {
		t.Errorf("clean run recorded %d reconnects", reconnects)
	}
	if fails := reg.Sum("dooc_remote_server_checksum_failures_total") + reg.Sum("dooc_remote_client_checksum_failures_total"); fails != 0 {
		t.Errorf("clean run recorded %d checksum failures", fails)
	}
	// A request stays active until its reply is on the wire — that is what
	// Shutdown drains — so the gauge may trail the last reply by the moment
	// the handler takes to return.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Sum("dooc_remote_server_active_requests") != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if active := reg.Sum("dooc_remote_server_active_requests"); active != 0 {
		t.Errorf("active-request gauge = %d after all replies", active)
	}

	// The exposition endpoint serves the same numbers.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dooc_remote_server_requests_total") {
		t.Error("exposition is missing the server request counter")
	}
}

// TestServerShutdownDrains exercises the graceful path doocserve uses on
// SIGINT/SIGTERM: Shutdown must let an in-flight request finish (no dropped
// reply), stop accepting new connections, and return.
func TestServerShutdownDrains(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := startObsServer(t, reg)
	if err := cl.Create("arr", 32, 32); err != nil {
		t.Fatal(err)
	}

	// Park a read on a not-yet-written interval, then write it from a second
	// client while Shutdown is draining: the parked reply must still arrive.
	readDone := make(chan error, 1)
	go func() {
		_, err := cl.ReadBlock("arr", 0)
		readDone <- err
	}()
	// Give the read time to reach the server and park.
	time.Sleep(50 * time.Millisecond)

	cl2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	// A round trip proves the server accepted cl2's connection — Dial alone
	// only guarantees the kernel-level connect, and Shutdown closes the
	// listener immediately.
	if _, err := cl2.Info("arr"); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		srv.Shutdown(2 * time.Second)
		close(done)
	}()
	go func() {
		time.Sleep(50 * time.Millisecond)
		if err := cl2.WriteBlock("arr", 0, bytes.Repeat([]byte("z"), 32)); err != nil {
			t.Errorf("drain-time write failed: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	select {
	case err := <-readDone:
		if err != nil {
			t.Errorf("parked read failed during drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked read never completed")
	}
	// The listener is closed: new connections must be refused.
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
	// Shutdown is idempotent.
	srv.Shutdown(time.Millisecond)
}
