package remote

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dooc/internal/faults"
	"dooc/internal/storage"
)

// TestClientFailsWhenServerDiesMidRequest is the regression test for the
// original hang: a pending call must fail with a connection error when the
// server dies, never block indefinitely.
func TestClientFailsWhenServerDiesMidRequest(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), Options{ReconnectBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("never", 8, 8); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.ReadBlock("never", 0) // parks server-side: never written
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read succeeded against a dead server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung forever after server death")
	}
}

func TestClientRequestDeadline(t *testing.T) {
	_, blocked := startServer(t, "")
	cl, err := DialOptions(blocked.addrForTest(), Options{Timeout: 60 * time.Millisecond, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("slow", 8, 8); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cl.ReadBlock("slow", 0) // never written: deadline must fire
	if err == nil {
		t.Fatal("deadline never fired")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error not attributed to deadline: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v", d)
	}
	// The connection survives an expired deadline: other requests work.
	if _, err := cl.Info("slow"); err != nil {
		t.Fatalf("connection unusable after deadline: %v", err)
	}
}

// addrForTest exposes the server address a startServer client connected to.
func (cl *Client) addrForTest() string { return cl.addr }

// TestClientReconnectsAndReplays drives a full create/write/read workload
// while a seeded injector tears the connection down on both sides; the
// client must reconnect, replay, and finish with byte-identical data.
func TestClientReconnectsAndReplays(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srvInj := faults.New(faults.Config{Seed: 11, DropRate: 0.15, MaxInjections: 3})
	srv, err := ListenOptions(st, "127.0.0.1:0", ServerOptions{Faults: srvInj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clInj := faults.New(faults.Config{Seed: 17, DropRate: 0.15, MaxInjections: 4})
	cl, err := DialOptions(srv.Addr(), Options{
		MaxRetries:       5,
		ReconnectBackoff: 2 * time.Millisecond,
		Faults:           clInj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	payloads := make(map[string][]byte)
	for a := 0; a < 6; a++ {
		name := fmt.Sprintf("arr%d", a)
		payload := bytes.Repeat([]byte{byte('A' + a)}, 64)
		if err := cl.Create(name, 64, 32); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if err := cl.WriteBlock(name, 0, payload[:32]); err != nil {
			t.Fatalf("write %s lo: %v", name, err)
		}
		if err := cl.WriteBlock(name, 1, payload[32:]); err != nil {
			t.Fatalf("write %s hi: %v", name, err)
		}
		payloads[name] = payload
	}
	for name, want := range payloads {
		got, err := cl.ReadAll(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: data differs after recovery", name)
		}
	}
	if clInj.Counts().Drops+srvInj.Counts().Drops == 0 {
		t.Fatal("no drops injected; test proved nothing")
	}
	if cl.Reconnects() == 0 {
		t.Fatal("connection dropped but client never reconnected")
	}
}

// TestReplayResolvesLandedWrite unit-tests the idempotent-replay resolution:
// a replayed write rejected as an immutability violation is recognized as
// the original write having landed iff the bytes match. The rejection is
// the server's own, from a second write of the interval.
func TestReplayResolvesLandedWrite(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("w", 8, 8); err != nil {
		t.Fatal(err)
	}
	payload := []byte("LANDED!!")
	if err := cl.WriteBlock("w", 0, payload); err != nil {
		t.Fatal(err)
	}
	se := cl.WriteBlock("w", 0, payload)
	if !errors.Is(se, storage.ErrImmutable) {
		t.Fatalf("second write: %v, want storage.ErrImmutable", se)
	}
	resolved, inconclusive := cl.resolveReplay(&request{Op: opWrite, Array: "w", Block: 0, data: payload}, se)
	if !resolved || inconclusive {
		t.Fatalf("landed write not resolved: %v %v", resolved, inconclusive)
	}
	// Different bytes at the same interval: genuinely conflicting write.
	resolved, _ = cl.resolveReplay(&request{Op: opWrite, Array: "w", Block: 0, data: []byte("DIFFER!!")}, se)
	if resolved {
		t.Fatal("conflicting write wrongly resolved as landed")
	}
}

// TestReplayResolvesLandedCreateAndDelete: a replayed create refused because
// the array exists resolves iff the shape matches, and a replayed delete
// refused because the array is unknown resolves. The refusals are the
// server's own, from a second create and a delete of an absent array.
func TestReplayResolvesLandedCreateAndDelete(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("c", 64, 32); err != nil {
		t.Fatal(err)
	}
	se := cl.Create("c", 64, 32)
	if !errors.Is(se, storage.ErrArrayExists) {
		t.Fatalf("second create: %v, want storage.ErrArrayExists", se)
	}
	resolved, inconclusive := cl.resolveReplay(&request{Op: opCreate, Array: "c", Size: 64, BlockSize: 32}, se)
	if !resolved || inconclusive {
		t.Fatalf("landed create not resolved: %v %v", resolved, inconclusive)
	}
	resolved, _ = cl.resolveReplay(&request{Op: opCreate, Array: "c", Size: 128, BlockSize: 32}, se)
	if resolved {
		t.Fatal("create with different shape wrongly resolved")
	}
	de := cl.Delete("gone")
	if !errors.Is(de, storage.ErrUnknownArray) {
		t.Fatalf("delete of an absent array: %v, want storage.ErrUnknownArray", de)
	}
	resolved, _ = cl.resolveReplay(&request{Op: opDelete, Array: "gone"}, de)
	if !resolved {
		t.Fatal("landed delete not resolved")
	}
}

// TestCorruptionDetectedServerToClient injects payload corruption into the
// server's responses: the client must detect it via checksum and fail with
// an attributed error instead of returning wrong bytes.
func TestCorruptionDetectedServerToClient(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	inj := faults.New(faults.Config{Seed: 4, CorruptRate: 1})
	srv, err := ListenOptions(st, "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("pay", 32, 32); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("pay", 0, bytes.Repeat([]byte{9}, 32)); err != nil {
		t.Fatal(err)
	}
	_, err = cl.ReadBlock("pay", 0)
	if err == nil {
		t.Fatal("corrupted payload accepted")
	}
	for _, want := range []string{"checksum", `"pay"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if inj.Counts().Corruptions == 0 {
		t.Fatal("injector never corrupted")
	}
}

// TestCorruptionDetectedClientToServer injects corruption into the client's
// write payloads: the server must reject the frame before it reaches the
// store.
func TestCorruptionDetectedClientToServer(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj := faults.New(faults.Config{Seed: 6, CorruptRate: 1})
	cl, err := DialOptions(srv.Addr(), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create("up", 16, 16); err != nil {
		t.Fatal(err)
	}
	err = cl.WriteBlock("up", 0, bytes.Repeat([]byte{3}, 16))
	if err == nil {
		t.Fatal("corrupted write accepted")
	}
	for _, want := range []string{"checksum", `"up"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// The rejected frame must not have published anything: the interval is
	// still writable through a clean client.
	clean, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if err := clean.WriteBlock("up", 0, bytes.Repeat([]byte{3}, 16)); err != nil {
		t.Fatalf("interval poisoned by rejected corrupt write: %v", err)
	}
}
