package remote

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/storage"
)

// memConn is a net.Conn over an in-memory byte stream: reads come from r,
// writes go to w (discarded when nil). Only what conn and the handshakes
// call is implemented.
type memConn struct {
	net.Conn
	r io.Reader
	w *bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error) { return m.r.Read(p) }

func (m *memConn) Write(p []byte) (int, error) {
	if m.w != nil {
		return m.w.Write(p)
	}
	return len(p), nil
}

func (m *memConn) Close() error                     { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// frameStream renders request frames as a sender writes them.
func frameStream(t testing.TB, codec compress.Codec, reqs ...*request) []byte {
	t.Helper()
	var out bytes.Buffer
	c := newConn(&memConn{w: &out})
	c.codec, c.compressMin, c.wire = codec, 1, newClientMetrics(nil).wire
	for _, r := range reqs {
		if _, err := c.sendRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes, after a valid hello, to both ends'
// frame readers: the server's (after its side of the handshake) and the
// client's (after its own). Nothing may panic, every payload read must have
// the length its header declared, and a header declaring a payload outside
// [0, maxFramePayload] must be refused for its length — which closes the
// connection — before the arena hands out a buffer. Every request the
// server end decodes is then served, as Server.serve serves it, by a server
// that plays no role over a closed store (so no verb blocks): whatever its
// opcode byte, it must get a response.
func FuzzReadFrame(f *testing.F) {
	closed, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	closed.Close()
	srv := &Server{store: closed, metrics: newServerMetrics(nil)}
	f.Add([]byte{})
	f.Add(frameStream(f, nil, &request{ID: 1, Op: opCreate, Array: "a", Size: 64, BlockSize: 16}))
	f.Add(frameStream(f, nil,
		&request{ID: 2, Op: opWrite, Array: "a", data: bytes.Repeat([]byte{7}, 16)},
		&request{ID: 3, Op: opPeerPut, Array: "b", Block: 1, Epoch: 4, data: wirePayload(3000)}))
	f.Add(frameStream(f, compress.Default(), &request{ID: 4, Op: opWrite, Array: "c", data: wirePayload(4096)}))
	var oversized bytes.Buffer
	if err := gob.NewEncoder(&oversized).Encode(&request{ID: 5, Op: opWrite, Len: maxFramePayload + 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(oversized.Bytes())
	f.Add(frameStream(f, nil, &request{ID: 6, Op: opRead, Array: "a", data: []byte("truncated payload")})[:40])
	f.Add(frameStream(f, nil, &request{ID: 7, Op: 0}, &request{ID: 8, Op: opJobProxy + 1}, &request{ID: 9, Op: 255}))
	f.Add(frameStream(f, nil, &request{ID: 10, Op: opJobSubmit, Job: &jobWire{Tenant: "a", Iters: 1}},
		&request{ID: 11, Op: opPeerView, View: &PeerView{From: "n0"}}, &request{ID: 12, Op: opStats}))
	f.Add(frameStream(f, nil, &request{ID: 13, Op: opRead, Array: "a", Block: 3}))
	f.Add(frameStream(f, nil, &request{ID: 14, Op: opWrite, Array: "a", Block: 2, data: bytes.Repeat([]byte{5}, 16)}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		hello := helloFrame(compress.Mask(), compress.Default().ID())
		server := newConn(&memConn{r: bytes.NewReader(append(hello, stream...))})
		if err := srv.negotiate(server); err != nil {
			t.Fatalf("server refused a valid hello: %v", err)
		}
		readFrames(t, func(n *int) error {
			var r request
			err := server.readRequest(&r)
			*n = r.Len
			if err == nil {
				checkPayload(t, r.data, r.Len, r.Sum, r.Enc)
				resp := srv.serve(&r) // gives r.data back
				if resp == nil {
					t.Fatalf("%v request got no response", r.Op)
				}
				if resp.release != nil {
					resp.release()
				}
			}
			return err
		})

		client := &memConn{r: bytes.NewReader(append(hello, stream...))}
		if _, _, err := clientHandshake(client, compress.Default()); err != nil {
			t.Fatalf("client refused a valid hello: %v", err)
		}
		cc := newConn(client)
		fc := &Client{metrics: newClientMetrics(nil)}
		readFrames(t, func(n *int) error {
			var r response
			err := cc.readResponse(&r)
			*n = r.Len
			if err == nil {
				checkPayload(t, r.data, r.Len, r.Sum, r.Enc)
				// Accepted as a reply: whatever its error code, an
				// untyped or typed error, never a panic.
				if resp, err := fc.acceptResponse(&request{}, &r); err == nil {
					storage.SharedArena().Put(resp.data)
				}
			}
			return err
		})
	})
}

// readFrames reads frames with read until it fails, holding each to the
// payload ceiling: a declared length out of range must be refused as such
// and take no buffer from the arena.
func readFrames(t *testing.T, read func(declared *int) error) {
	arena := storage.SharedArena()
	for {
		var declared int
		gets := arena.Stats().Gets
		err := read(&declared)
		outOfRange := declared < 0 || declared > maxFramePayload
		if outOfRange && !errors.Is(err, errPayloadLength) {
			t.Fatalf("a frame declaring a %d-byte payload was not refused for its length: %v", declared, err)
		}
		if outOfRange && arena.Stats().Gets != gets {
			t.Fatalf("a frame declaring a %d-byte payload took an arena buffer before it was refused", declared)
		}
		if err != nil {
			return
		}
	}
}

// checkPayload holds one read payload to its header and puts it through
// the receiver's checks. The payload stays the caller's.
func checkPayload(t *testing.T, data []byte, n int, sum uint32, enc bool) {
	if len(data) != n {
		t.Fatalf("header declared %d payload bytes, read %d", n, len(data))
	}
	if payloadSum(data) != sum || !enc {
		return
	}
	if raw, err := decodePayload(data, newServerMetrics(nil).wire); err == nil {
		storage.SharedArena().Put(raw)
	}
}

// TestServerClosesOnOversizedPayload: after a valid hello, a header that
// declares a payload above maxFramePayload closes the connection without a
// reply, a counted request or an arena buffer.
func TestServerClosesOnOversizedPayload(t *testing.T) {
	srv, _ := startServer(t, "")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, _, err := clientHandshake(raw, nil); err != nil {
		t.Fatal(err)
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&request{ID: 1, Op: opWrite, Array: "a", Len: maxFramePayload + 1}); err != nil {
		t.Fatal(err)
	}
	requests := srv.Requests()
	gets := storage.SharedArena().Stats().Gets
	if _, err := raw.Write(hdr.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("server did not close the connection: %v", err)
	}
	if len(reply) != 0 {
		t.Errorf("server answered an oversized frame with % x", reply)
	}
	if n := srv.Requests(); n != requests {
		t.Errorf("server counted %d requests for an oversized frame", n-requests)
	}
	if n := storage.SharedArena().Stats().Gets - gets; n != 0 {
		t.Errorf("server took %d arena buffers for a frame it refused", n)
	}
}

// TestDialRefusesVersion1Server: a server answering with a version-1 hello
// speaks the old frame layout, and the dial fails with an error naming the
// server and both versions.
func TestDialRefusesVersion1Server(t *testing.T) { testDialRefusesVersion(t, 1) }

// TestDialRefusesVersion2Server: a version-2 server sends refusals without
// their error code, so a client would read them untyped; the dial fails at
// the hello instead, naming both versions.
func TestDialRefusesVersion2Server(t *testing.T) { testDialRefusesVersion(t, 2) }

// TestDialRefusesVersion3Server: a version-3 server sets hello bit 6 only
// when it has a proxy registry, and its client refuses the proxy verbs to a
// server that does not; the dial fails at the hello, naming both versions.
func TestDialRefusesVersion3Server(t *testing.T) { testDialRefusesVersion(t, 3) }

// TestDialRefusesVersion4Server: a version-4 server reads a read, write or
// prefetch as a byte range, where this version sends a block index; the
// dial fails at the hello, naming both versions.
func TestDialRefusesVersion4Server(t *testing.T) { testDialRefusesVersion(t, 4) }

func testDialRefusesVersion(t *testing.T, version byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := io.ReadFull(c, make([]byte, helloLen)); err != nil {
			return
		}
		old := helloFrame(compress.Mask(), 0)
		old[5] = version
		c.Write(old)
		<-done
	}()
	cl, err := DialOptions(ln.Addr().String(), Options{})
	if err == nil {
		cl.Close()
		t.Fatalf("dialled a version-%d server", version)
	}
	for _, want := range []string{ln.Addr().String(), fmt.Sprintf("protocol version %d", version), fmt.Sprintf("speaks %d", protoVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dial error %q does not say %q", err, want)
		}
	}
}

// sinkPeer is a PeerHandler that accepts every put and keeps nothing, so a
// benchmark of it measures the wire path alone.
type sinkPeer struct{ recordingPeer }

func (*sinkPeer) PeerPut(string, int, uint64, []byte, bool) (bool, error) { return true, nil }

// BenchmarkPeerPut pushes one block per op over a loopback connection, at a
// vector part's size (12 KB, a small arena class) and at a mapped class's
// (96 KB). The payload is read into an arena buffer and given back after
// the put, so B/op is the frame's headers and bookkeeping, not the block:
// make perf-gate holds it well under one payload.
func BenchmarkPeerPut(b *testing.B) {
	for _, size := range []int{12 << 10, 96 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			_, cl := startPeerServer(b, &sinkPeer{})
			block := wirePayload(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := cl.PeerPut("b", i, 1, block, true); err != nil || !ok {
					b.Fatalf("put %d: ok=%v err=%v", i, ok, err)
				}
			}
		})
	}
}
