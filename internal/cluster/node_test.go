package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dooc/internal/remote"
	"dooc/internal/storage"
)

// lateHandler is the construction-order shim: the remote server needs its
// PeerHandler at listen time, but the cluster node needs every peer's
// listen address first. The shim serves "still starting" until the node is
// bound in.
type lateHandler struct {
	mu sync.Mutex
	h  remote.PeerHandler
}

func (l *lateHandler) set(h remote.PeerHandler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) get() remote.PeerHandler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

func (l *lateHandler) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	h := l.get()
	if h == nil {
		return false, fmt.Errorf("peer still starting")
	}
	return h.PeerPut(array, block, epoch, data, durable)
}

func (l *lateHandler) PeerGet(array string, block int) ([]byte, uint64, bool, error) {
	h := l.get()
	if h == nil {
		return nil, 0, false, fmt.Errorf("peer still starting")
	}
	return h.PeerGet(array, block)
}

func (l *lateHandler) PeerDelete(array string) error {
	h := l.get()
	if h == nil {
		return fmt.Errorf("peer still starting")
	}
	return h.PeerDelete(array)
}

func (l *lateHandler) PeerViewExchange(v remote.PeerView) remote.PeerView {
	h := l.get()
	if h == nil {
		return remote.PeerView{}
	}
	return h.PeerViewExchange(v)
}

// testPeer is one in-process stand-in for a doocserve peer: a storage
// store, a real TCP server with the cluster role, and the cluster node.
type testPeer struct {
	id   string
	st   *storage.Store
	srv  *remote.Server
	late *lateHandler
	node *Node

	killed bool
}

// kill simulates SIGKILL: the TCP server drops every connection and stops
// accepting; the node's prober stops gossiping.
func (p *testPeer) kill() {
	if p.killed {
		return
	}
	p.killed = true
	p.node.Close()
	p.srv.Close()
}

// startTestCluster brings up n wired peers: all servers listen first (so
// every address is known), then every node starts with the full peer list.
// mut customizes each node's config before construction.
func startTestCluster(t *testing.T, n int, mut func(i int, cfg *Config)) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, n)
	for i := range peers {
		st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 22, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		late := &lateHandler{}
		srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: late})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = &testPeer{id: fmt.Sprintf("n%d", i), st: st, srv: srv, late: late}
	}
	members := make([]Member, n)
	for i, p := range peers {
		members[i] = Member{ID: p.id, Addr: p.srv.Addr()}
	}
	for i, p := range peers {
		cfg := Config{
			Self:   members[i],
			VNodes: 64,
			// Gossip off by default: tests that need liveness set a real
			// interval via mut, everything else stays deterministic.
			ProbeInterval: time.Hour,
			RPCTimeout:    2 * time.Second,
		}
		for j, m := range members {
			if j != i {
				cfg.Peers = append(cfg.Peers, m)
			}
		}
		if mut != nil {
			mut(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.node = node
		p.late.set(node)
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.kill()
			p.st.Close()
		}
	})
	return peers
}

func peerByID(peers []*testPeer, id string) *testPeer {
	for _, p := range peers {
		if p.id == id {
			return p
		}
	}
	return nil
}

// findBlockExcluding returns a block index of array whose fetch-walk
// owners do not include exclude — the shape that forces a forwarded read.
func findBlockExcluding(t *testing.T, r *Ring, array, exclude string) int {
	t.Helper()
	for b := 0; b < 4096; b++ {
		hit := false
		for _, id := range r.Owners(BlockKey(array, b), fetchCandidates) {
			if id == exclude {
				hit = true
				break
			}
		}
		if !hit {
			return b
		}
	}
	t.Fatalf("no block of %s excludes %s from its owner walk", array, exclude)
	return -1
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestNodePushDurableAndForwardedRead is the core data path over real TCP:
// a pushed block lands on its ring owners with two remote acks (durable),
// and a non-owner peer resolves it with one forwarded read.
func TestNodePushDurableAndForwardedRead(t *testing.T) {
	peers := startTestCluster(t, 4, nil)
	ring := peers[0].node.currentRing()
	block := findBlockExcluding(t, ring, "A", "n3")
	reader := peerByID(peers, "n3")
	pusher := peerByID(peers, ring.Owner(BlockKey("A", block)))

	payload := bytes.Repeat([]byte{0xAB}, 4096)
	if !pusher.node.PushBlock("A", block, payload, nil) {
		t.Fatal("push with three live remote-capable owners not durable")
	}
	pc := pusher.node.Counters()
	if pc.Pushes != 1 || pc.PushAcks != int64(ReplicateCopies) || pc.PushBytes != 4096 {
		t.Fatalf("pusher counters after push: %+v", pc)
	}

	data, ok := reader.node.FetchBlock("A", block)
	if !ok || !bytes.Equal(data, payload) {
		t.Fatalf("forwarded fetch: ok=%v len=%d", ok, len(data))
	}
	rc := reader.node.Counters()
	if rc.ForwardedReads != 1 || rc.ForwardedBytes != 4096 {
		t.Fatalf("reader counters after fetch: %+v", rc)
	}
	// Some owner served it.
	var served int64
	for _, p := range peers {
		served += p.node.Counters().ServedGets
	}
	if served != 1 {
		t.Fatalf("served gets across peers = %d, want 1", served)
	}

	// A block nobody pushed is a clean miss: fall back to the local path.
	if _, ok := reader.node.FetchBlock("nowhere", 0); ok {
		t.Fatal("fetch of never-pushed block succeeded")
	}
	if c := reader.node.Counters(); c.ForwardedReadMisses != 1 {
		t.Fatalf("miss counter = %d, want 1", c.ForwardedReadMisses)
	}
}

// TestNodeTooFewPeersNotDurable checks the durability floor: with a single
// remote peer only one remote ack is possible, so the pusher must keep its
// local durability path (PushBlock false) — but the copy still serves
// reads.
func TestNodeTooFewPeersNotDurable(t *testing.T) {
	peers := startTestCluster(t, 2, nil)
	payload := bytes.Repeat([]byte{7}, 512)
	if peers[0].node.PushBlock("A", 0, payload, nil) {
		t.Fatal("push reported durable with only one remote peer")
	}
	data, ok := peers[1].node.FetchBlock("A", 0)
	if !ok || !bytes.Equal(data, payload) {
		t.Fatalf("fetch after non-durable push: ok=%v", ok)
	}
}

// TestNodeBackpressureRefusesDurable checks the pinned-byte backpressure
// end to end: receivers whose shard tables cannot pin the copy refuse the
// durable put, the pusher sees missing acks and reports not-durable.
func TestNodeBackpressureRefusesDurable(t *testing.T) {
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.TableBytes = 64 // far below the payload size
	})
	if peers[0].node.PushBlock("A", 0, bytes.Repeat([]byte{1}, 1024), nil) {
		t.Fatal("push durable though every receiver refused to pin")
	}
	if c := peers[0].node.Counters(); c.PushAcks != 0 {
		t.Fatalf("push acks = %d, want 0 under backpressure", c.PushAcks)
	}
}

// TestForwardedFetchKeepsNoCopy: a block fetched from another peer lives
// only in the buffer handed to the caller. The reading node keeps no copy —
// not even of an x_ array, the SpMV input vector a node is told is hot — so
// once the caller gives the buffer back the arena's live bytes are where they
// were and the shard table has not grown. A re-push at a new epoch is what
// the next fetch returns, and so is another writer's push once this node has
// learned its epoch.
func TestForwardedFetchKeepsNoCopy(t *testing.T) {
	const array, size = "x_t", 96 << 10
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Hot = func(array string) bool { return strings.HasPrefix(array, "x_") }
	})
	ring := peers[0].node.currentRing()
	p := peerByID(peers, "n2")
	block := 0
	for ring.Owner(BlockKey(array, block)) == p.id {
		block++
	}
	arena := storage.SharedArena()

	v1 := bytes.Repeat([]byte{1}, size)
	if !p.node.PushBlock(array, block, v1, nil) {
		t.Fatal("v1 push not durable")
	}
	live, table := arena.Stats().Live, p.node.Status().TableBytes
	data, ok := p.node.FetchBlock(array, block)
	if !ok || !bytes.Equal(data, v1) {
		t.Fatal("v1 fetch failed")
	}
	arena.Put(data)
	if c := p.node.Counters(); c.ForwardedReads != 1 {
		t.Fatalf("forwarded reads after fetch = %d, want 1", c.ForwardedReads)
	}
	// The serving peer gives its copy-out back after the reply is written.
	waitFor(t, 2*time.Second, "the arena's live bytes to come back", func() bool {
		return arena.Stats().Live == live
	})
	if got := p.node.Status().TableBytes; got != table {
		t.Fatalf("shard table holds %d bytes after a forwarded fetch, %d before", got, table)
	}

	// Write-back: the next fetch forwards again and must see the new bytes.
	v2 := bytes.Repeat([]byte{2}, size)
	if !p.node.PushBlock(array, block, v2, nil) {
		t.Fatal("v2 push not durable")
	}
	if data, ok := p.node.FetchBlock(array, block); !ok || !bytes.Equal(data, v2) {
		t.Fatal("fetch after write-back returned stale bytes")
	} else {
		arena.Put(data)
	}
	if c := p.node.Counters(); c.ForwardedReads != 2 {
		t.Fatalf("forwarded reads after write-back = %d, want 2", c.ForwardedReads)
	}

	// Another writer moves the block to epoch 3; once this node learns the
	// epoch, the fetch returns the writer's bytes.
	v3 := bytes.Repeat([]byte{3}, size)
	w := peerByID(peers, ring.Owner(BlockKey(array, block)))
	w.node.noteEpoch(array, block, 2) // writer continues from the observed epoch
	if !w.node.PushBlock(array, block, v3, nil) {
		t.Fatal("v3 push not durable")
	}
	p.node.noteEpoch(array, block, 3)
	if data, ok := p.node.FetchBlock(array, block); !ok || !bytes.Equal(data, v3) {
		t.Fatal("fetch after external write returned stale bytes")
	} else {
		arena.Put(data)
	}
}

// TestNodeInvalidateArray checks the delete path: the deleting peer drops
// its own state synchronously and peers drop theirs via the acked delete
// fan-out, with epochs folded so a recreated array starts fresh.
func TestNodeInvalidateArray(t *testing.T) {
	peers := startTestCluster(t, 3, nil)
	payload := bytes.Repeat([]byte{9}, 256)
	for b := 0; b < 4; b++ {
		peers[0].node.PushBlock("gone", b, payload, nil)
	}
	peers[0].node.InvalidateArray("gone")
	waitFor(t, 2*time.Second, "peers to drop the deleted array", func() bool {
		for _, p := range peers {
			for b := 0; b < 4; b++ {
				if _, _, ok := p.node.table.Get("gone", b); ok {
					return false
				}
			}
		}
		return true
	})
	if _, ok := peers[1].node.FetchBlock("gone", 0); ok {
		t.Fatal("deleted array still fetchable")
	}
	// The recreated array's first push starts above every old epoch.
	if !peers[0].node.PushBlock("gone", 0, payload, nil) {
		t.Fatal("push after recreate not durable")
	}
	if e := peers[0].node.epochOf("gone", 0); e < 2 {
		t.Fatalf("recreated epoch %d does not clear the old incarnation", e)
	}
}

// TestNodeScopeIsolation checks the ring-key namespace: two peers with
// distinct scopes (the doocserve wiring — scope = node ID) pushing the
// same per-process array name ("job1:x", numbered by each peer's own job
// counter) never see each other's bytes, and one peer's delete leaves the
// other's data intact.
func TestNodeScopeIsolation(t *testing.T) {
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Scope = cfg.Self.ID
	})
	const array = "job1:x"
	a := bytes.Repeat([]byte{0xA0}, 512)
	b := bytes.Repeat([]byte{0xB1}, 512)
	if !peers[0].node.PushBlock(array, 0, a, nil) {
		t.Fatal("n0 push not durable")
	}
	if !peers[1].node.PushBlock(array, 0, b, nil) {
		t.Fatal("n1 push not durable")
	}
	if data, ok := peers[0].node.FetchBlock(array, 0); !ok || !bytes.Equal(data, a) {
		t.Fatalf("n0 fetch: ok=%v, want its own bytes", ok)
	}
	if data, ok := peers[1].node.FetchBlock(array, 0); !ok || !bytes.Equal(data, b) {
		t.Fatalf("n1 fetch: ok=%v, want its own bytes", ok)
	}
	// n0's delete removes only n0's scoped keys, everywhere.
	peers[0].node.InvalidateArray(array)
	waitFor(t, 2*time.Second, "n0's scoped delete to land", func() bool {
		_, ok := peers[0].node.FetchBlock(array, 0)
		return !ok
	})
	if data, ok := peers[1].node.FetchBlock(array, 0); !ok || !bytes.Equal(data, b) {
		t.Fatalf("n1 lost its data to n0's delete: ok=%v", ok)
	}
	// A scope containing NUL would alias other scopes' keys; refused.
	if _, err := NewNode(Config{Self: Member{ID: "bad"}, Scope: "a\x00b"}); err == nil {
		t.Fatal("NUL scope accepted")
	}
}

// denyDeletes wraps a peer handler with a switchable PeerDelete failure —
// the stand-in for a peer that is unreachable exactly when the delete
// fan-out runs.
type denyDeletes struct {
	remote.PeerHandler
	mu    sync.Mutex
	deny  bool
	calls int // PeerDelete RPCs received, denied or not
}

func (d *denyDeletes) setDeny(v bool) {
	d.mu.Lock()
	d.deny = v
	d.mu.Unlock()
}

func (d *denyDeletes) PeerDelete(array string) error {
	d.mu.Lock()
	deny := d.deny
	d.calls++
	d.mu.Unlock()
	if deny {
		return fmt.Errorf("injected delete failure")
	}
	return d.PeerHandler.PeerDelete(array)
}

// TestNodeDeleteRetryAndStaleEpochGuard covers the missed-delete hole: a
// peer that fails the delete RPC keeps its old-incarnation bytes, but (1)
// the deleting node's reads demand epochs above the folded floor, so the
// straggler's stale copy is rejected rather than served, and (2) the
// prober retries the delete until the straggler acks and drops the copy.
func TestNodeDeleteRetryAndStaleEpochGuard(t *testing.T) {
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
	})
	deny := &denyDeletes{PeerHandler: peers[1].node}
	deny.setDeny(true)
	peers[1].late.set(deny)

	payload := bytes.Repeat([]byte{0x5A}, 256)
	// With 3 members the push walk covers every peer, so n1 holds a copy.
	if !peers[0].node.PushBlock("gone", 0, payload, nil) {
		t.Fatal("push not durable")
	}
	if _, _, ok := peers[1].node.table.Get("gone", 0); !ok {
		t.Fatal("n1 did not receive the pushed copy")
	}

	peers[0].node.InvalidateArray("gone")
	// n1 missed the delete and still holds epoch-1 bytes...
	if _, _, ok := peers[1].node.table.Get("gone", 0); !ok {
		t.Fatal("denied delete still removed n1's copy")
	}
	// ...but the deleting node's want is floor+1, so the stale copy can
	// never be served back to it.
	if want := peers[0].node.epochOf("gone", 0); want < 2 {
		t.Fatalf("post-delete epoch demand %d does not clear the dead incarnation", want)
	}
	if _, ok := peers[0].node.FetchBlock("gone", 0); ok {
		t.Fatal("deleted array served from a peer that missed the delete")
	}

	// Once the peer is reachable again, the prober's retry delivers the
	// delete and the stale copy disappears.
	deny.setDeny(false)
	waitFor(t, 5*time.Second, "retried delete to reach n1", func() bool {
		_, _, ok := peers[1].node.table.Get("gone", 0)
		return !ok
	})
}

// TestInvalidateKicksOnlyItsOwnDelete: the immediate delete fan-out of one
// InvalidateArray reaches each peer once, however many earlier deletes are
// still owed. When every kick retried every pending array, p unacknowledged
// deletes cost p² RPCs and a run that deleted arrays faster than a peer acked
// them — spmv-ring, once the iteration got faster — piled up thousands of
// goroutines and never caught up. The prober (off here) retries the backlog.
func TestInvalidateKicksOnlyItsOwnDelete(t *testing.T) {
	peers := startTestCluster(t, 3, nil)
	deny := &denyDeletes{PeerHandler: peers[1].node}
	deny.setDeny(true)
	peers[1].late.set(deny)

	const arrays = 8
	for i := 0; i < arrays; i++ {
		peers[0].node.InvalidateArray(fmt.Sprintf("gone%d", i))
	}
	delivered := func() int {
		deny.mu.Lock()
		defer deny.mu.Unlock()
		return deny.calls
	}
	waitFor(t, 5*time.Second, "every kick to reach the peer", func() bool { return delivered() >= arrays })
	peers[0].node.Close() // waits for whatever the kicks still had to send
	if calls := delivered(); calls != arrays {
		t.Fatalf("%d invalidated arrays cost the unreachable peer %d delete RPCs, want one each", arrays, calls)
	}
	peers[0].node.mu.Lock()
	owed := len(peers[0].node.pendingDel)
	peers[0].node.mu.Unlock()
	if owed != arrays {
		t.Fatalf("%d deletes still owed, want all %d: the denying peer acked none", owed, arrays)
	}
}

// TestNodeDeathFailover kills one peer (SIGKILL-style: TCP gone, no
// goodbye) and checks the survivors: death detected by the prober, the
// OnDeath hook fired exactly once, the view version bumped and gossiped,
// and a durable block still fetchable from survivors.
func TestNodeDeathFailover(t *testing.T) {
	var deathMu sync.Mutex
	deaths := make(map[string][]string) // observer -> dead IDs
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
		self := fmt.Sprintf("n%d", i)
		cfg.OnDeath = func(id string) {
			deathMu.Lock()
			deaths[self] = append(deaths[self], id)
			deathMu.Unlock()
		}
	})
	// Let gossip run until everyone has seen everyone (death-marking is
	// gated on having been seen alive once).
	waitFor(t, 5*time.Second, "initial gossip convergence", func() bool {
		for _, p := range peers {
			if p.node.Counters().ViewExchanges < 4 {
				return false
			}
		}
		return true
	})

	payload := bytes.Repeat([]byte{5}, 2048)
	if !peers[0].node.PushBlock("A", 1, payload, nil) {
		t.Fatal("push not durable before the kill")
	}

	peers[2].kill()
	// OnDeath runs on its own goroutine: the view shrinking does not mean
	// the callback has been through yet, so both are waited for.
	waitFor(t, 5*time.Second, "survivors to declare n2 dead and say so", func() bool {
		deathMu.Lock()
		defer deathMu.Unlock()
		for _, p := range peers[:2] {
			if len(p.node.LiveMembers()) != 2 || len(deaths[p.id]) == 0 {
				return false
			}
		}
		return true
	})
	for _, p := range peers[:2] {
		st := p.node.Status()
		if len(st.Dead) != 1 || st.Dead[0] != "n2" {
			t.Fatalf("%s dead list = %v", p.id, st.Dead)
		}
		if st.Version < 2 {
			t.Fatalf("%s view version %d not bumped", p.id, st.Version)
		}
	}
	deathMu.Lock()
	for _, p := range peers[:2] {
		if got := deaths[p.id]; len(got) != 1 || got[0] != "n2" {
			t.Fatalf("%s OnDeath calls = %v, want exactly [n2]", p.id, got)
		}
	}
	deathMu.Unlock()

	// Durable means: survives any single peer death.
	for _, p := range peers[:2] {
		if data, ok := p.node.FetchBlock("A", 1); !ok || !bytes.Equal(data, payload) {
			t.Fatalf("%s lost the durable block after one death", p.id)
		}
	}
}

// TestNodeRejoin restarts the killed peer as a fresh process (same ID, new
// address, empty state) and checks the join path: an established cluster
// whose view version moved past the newcomer's still admits it via the
// sender identity, clears its dead flag, and re-converges to 3 members.
func TestNodeRejoin(t *testing.T) {
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
	})
	waitFor(t, 5*time.Second, "initial gossip convergence", func() bool {
		for _, p := range peers {
			if p.node.Counters().ViewExchanges < 4 {
				return false
			}
		}
		return true
	})
	peers[2].kill()
	waitFor(t, 5*time.Second, "death of n2", func() bool {
		return len(peers[0].node.LiveMembers()) == 2 && len(peers[1].node.LiveMembers()) == 2
	})

	// Restart: a new process with the old identity but a fresh listener.
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 22, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	late := &lateHandler{}
	srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: late})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node, err := NewNode(Config{
		Self:          Member{ID: "n2", Addr: srv.Addr()},
		Peers:         []Member{{ID: "n0", Addr: peers[0].srv.Addr()}, {ID: "n1", Addr: peers[1].srv.Addr()}},
		VNodes:        64,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	late.set(node)

	waitFor(t, 5*time.Second, "rejoin convergence to 3 members", func() bool {
		for _, n := range []*Node{peers[0].node, peers[1].node, node} {
			live := n.LiveMembers()
			if len(live) != 3 {
				return false
			}
		}
		return true
	})
	for _, p := range peers[:2] {
		st := p.node.Status()
		if len(st.Dead) != 0 {
			t.Fatalf("%s still lists dead peers after rejoin: %v", p.id, st.Dead)
		}
		if m := peerByMember(st.Members, "n2"); m == nil || m.Addr != srv.Addr() {
			t.Fatalf("%s did not learn n2's new address: %+v", p.id, st.Members)
		}
	}
}

func peerByMember(members []Member, id string) *Member {
	for i := range members {
		if members[i].ID == id {
			return &members[i]
		}
	}
	return nil
}

// TestNodeLegacyRejection points a cluster node at a plain storage server
// (no peer role — a pre-cluster binary) and checks the typed rejection:
// ErrLegacyPeer on first contact, permanent expulsion from membership, and
// placement that never routes to the legacy peer again.
func TestNodeLegacyRejection(t *testing.T) {
	lst, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	legacy, err := remote.Listen(lst, "127.0.0.1:0") // no ServerOptions.Peer
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()

	peers := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Peers = append(cfg.Peers, Member{ID: "old", Addr: legacy.Addr()})
	})
	n := peers[0].node
	if _, err := n.client("old"); !errors.Is(err, ErrLegacyPeer) {
		t.Fatalf("first contact error = %v, want ErrLegacyPeer", err)
	}
	// Expelled: no longer a member, counted, and listed dead.
	if _, err := n.client("old"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("post-expulsion error = %v, want ErrNotMember", err)
	}
	if c := n.Counters(); c.LegacyRejections != 1 {
		t.Fatalf("legacy rejections = %d, want 1", c.LegacyRejections)
	}
	st := n.Status()
	if len(st.Dead) != 1 || st.Dead[0] != "old" {
		t.Fatalf("dead list = %v, want [old]", st.Dead)
	}
	for _, id := range n.currentRing().Members() {
		if id == "old" {
			t.Fatal("legacy peer still on the ring")
		}
	}
	// The cluster keeps working without it.
	payload := bytes.Repeat([]byte{4}, 128)
	peers[0].node.PushBlock("A", 0, payload, nil)
	if data, ok := peers[1].node.FetchBlock("A", 0); !ok || !bytes.Equal(data, payload) {
		t.Fatal("fetch failed after legacy expulsion")
	}
}

// TestNodeClosedRefuses checks that a closed node fails cleanly on every
// entry point instead of dialing dead pools.
func TestNodeClosedRefuses(t *testing.T) {
	peers := startTestCluster(t, 2, nil)
	n := peers[0].node
	n.Close()
	n.Close() // idempotent
	if _, ok := n.FetchBlock("A", 0); ok {
		t.Fatal("closed node served a fetch")
	}
	if n.PushBlock("A", 0, []byte{1}, nil) {
		t.Fatal("closed node accepted a push")
	}
	if _, err := n.PeerPut("A", 0, 1, []byte{1}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed PeerPut err = %v", err)
	}
	if _, _, _, err := n.PeerGet("A", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed PeerGet err = %v", err)
	}
}

// TestGossipLearnedDeathRunsDeathPath forces the ordering the failover test
// only hits by chance: the survivor hears of a death from a peer's newer
// view before its own probe fails. No network and no prober tick are
// involved — the view is merged by hand — so the order is the one written.
func TestGossipLearnedDeathRunsDeathPath(t *testing.T) {
	deaths := make(chan string, 4)
	n, err := NewNode(Config{
		Self:          Member{ID: "n0", Addr: "127.0.0.1:1"},
		Peers:         []Member{{ID: "n1", Addr: "127.0.0.1:2"}, {ID: "n2", Addr: "127.0.0.1:3"}},
		ProbeInterval: time.Hour,
		OnDeath:       func(id string) { deaths <- id },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// n1 saw n2 die and gossips the view it moved to.
	n.mergeView(remote.PeerView{From: "n1", Version: 2, Members: []remote.PeerMember{
		{ID: "n0", Addr: "127.0.0.1:1"}, {ID: "n1", Addr: "127.0.0.1:2"},
	}})
	st := n.Status()
	if len(st.Dead) != 1 || st.Dead[0] != "n2" {
		t.Fatalf("dead list after adopting the view = %v, want [n2]", st.Dead)
	}
	if len(st.Members) != 2 || st.Version != 2 {
		t.Fatalf("view = v%d %v, want v2 with n0 and n1", st.Version, st.Members)
	}
	if got := st.Counters.PeerDeaths; got != 1 {
		t.Fatalf("PeerDeaths = %d, want 1", got)
	}
	if id := <-deaths; id != "n2" {
		t.Fatalf("OnDeath(%q), want n2", id)
	}

	// The observer's own probe fails afterwards, and the same view arrives
	// again: neither may run the hook a second time.
	n.markSeen("n2")
	n.maybeDead("n2")
	n.mergeView(remote.PeerView{From: "n1", Version: 2, Members: []remote.PeerMember{
		{ID: "n0", Addr: "127.0.0.1:1"}, {ID: "n1", Addr: "127.0.0.1:2"},
	}})
	if got := n.Counters().PeerDeaths; got != 1 {
		t.Fatalf("PeerDeaths = %d after the late probe, want 1", got)
	}
	select {
	case id := <-deaths:
		t.Fatalf("second OnDeath(%q)", id)
	default:
	}

	// A newer view that lists n2 again is a rejoin, not a death.
	n.mergeView(remote.PeerView{From: "n2", Version: 5, Members: []remote.PeerMember{
		{ID: "n0", Addr: "127.0.0.1:1"}, {ID: "n1", Addr: "127.0.0.1:2"}, {ID: "n2", Addr: "127.0.0.1:3"},
	}})
	if st := n.Status(); len(st.Dead) != 0 || len(st.Members) != 3 {
		t.Fatalf("after rejoin: dead %v, members %v", st.Dead, st.Members)
	}
}
