package cluster

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/remote"
	"dooc/internal/storage"
)

// putGate parks every PeerPut until the test opens it: the stand-in for a
// push whose RPCs are still on the wire when the engine deletes the array it
// pushed. parked counts the calls that arrived, landed those stored.
type putGate struct {
	gate           chan struct{}
	once           sync.Once
	parked, landed atomic.Int64
}

func (g *putGate) open() { g.once.Do(func() { close(g.gate) }) }

type gatedPuts struct {
	remote.PeerHandler
	g *putGate
}

func (h *gatedPuts) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	h.g.parked.Add(1)
	<-h.g.gate
	ok, err := h.PeerHandler.PeerPut(array, block, epoch, data, durable)
	h.g.landed.Add(1)
	return ok, err
}

// gateAllPuts puts every peer's PeerPut behind one gate. The test's cleanup
// opens it, so a failed test never leaves a server handler parked.
func gateAllPuts(t *testing.T, peers []*testPeer) *putGate {
	g := &putGate{gate: make(chan struct{})}
	for _, p := range peers {
		p.late.set(&gatedPuts{PeerHandler: p.node, g: g})
	}
	t.Cleanup(g.open)
	return g
}

// arrayBlocks is how many blocks of array the table holds.
func arrayBlocks(t *BlockTable, array string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.arrays[array])
}

func pinnedBytes(t *BlockTable) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pinned
}

// writeBlocks creates array and writes every block, block b's bytes all
// equal to fill+b.
func writeBlocks(t *testing.T, s *storage.Store, array string, blocks int, blockSize int64, fill byte) {
	t.Helper()
	if err := s.Create(array, int64(blocks)*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		l, err := s.RequestBlock(array, b, storage.PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		for i := range l.Data {
			l.Data[i] = fill + byte(b)
		}
		l.Release()
	}
}

// TestRingHoldsLiveArraysOnly: a push that loses the race to its array's
// delete does not bring the array back. Every push is parked on the wire
// when the store deletes the array; once the pushes land, no node's table
// holds a block of it, and the pinned bytes are exactly the live array's
// two remote copies per block.
func TestRingHoldsLiveArraysOnly(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 4096
	)
	peers := startTestCluster(t, 3, nil)
	g := gateAllPuts(t, peers)
	drv, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 22, Shard: peers[0].node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(drv.Close)

	writeBlocks(t, drv, "dead", blocks, blockSize, 1)
	writeBlocks(t, drv, "live", blocks, blockSize, 101)
	// With three members every push walks all three, so each parks at
	// its first remote owner.
	waitFor(t, 2*time.Second, "every push to park at its first remote owner", func() bool {
		return g.parked.Load() == 2*blocks
	})
	if err := drv.Delete("dead"); err != nil {
		t.Fatal(err)
	}
	g.open()

	// Each live push lands two remote copies; each dead one lands at least
	// the copy it was parked on.
	waitFor(t, 2*time.Second, "the parked pushes to land", func() bool {
		return g.landed.Load() >= 3*blocks && drv.Stats().ShardDurablePushes == blocks
	})
	waitFor(t, 2*time.Second, "the deleted array to leave every table", func() bool {
		for _, p := range peers {
			if arrayBlocks(p.node.table, "dead") != 0 {
				return false
			}
		}
		return true
	})
	var pinned int64
	for _, p := range peers {
		pinned += pinnedBytes(p.node.table)
	}
	if want := int64(2 * blocks * blockSize); pinned != want {
		t.Fatalf("tables pin %d bytes, want %d (two remote copies of each live block)", pinned, want)
	}
}

// TestRecreatedNameWaitsForDrain: an array re-created under the name of a
// deleted one whose pushes are still draining pushes nothing until the
// drain ends, so the old incarnation's invalidation cannot drop the new
// one's copies; the new block stays local, spills and reads back
// bit-identically. Once the drain has ended the name pushes again.
func TestRecreatedNameWaitsForDrain(t *testing.T) {
	const blockSize = 4096
	peers := startTestCluster(t, 3, nil)
	g := gateAllPuts(t, peers)
	drv, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 22, ScratchDir: t.TempDir(), Shard: peers[0].node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(drv.Close)

	writeBlocks(t, drv, "A", 1, blockSize, 1)
	waitFor(t, 2*time.Second, "the push to park", func() bool { return g.parked.Load() == 1 })
	if err := drv.Delete("A"); err != nil {
		t.Fatal(err)
	}
	writeBlocks(t, drv, "A", 1, blockSize, 7)
	if got := drv.Stats().ShardPushes; got != 1 {
		t.Fatalf("store started %d pushes, want 1: the re-created block was pushed while the old one drained", got)
	}
	g.open()
	waitFor(t, 2*time.Second, "the old incarnation to land and leave every table", func() bool {
		if g.landed.Load() == 0 {
			return false
		}
		for _, p := range peers {
			if p.node.table.Len() != 0 {
				return false
			}
		}
		return true
	})
	if got := peers[0].node.Counters().Pushes; got != 1 {
		t.Fatalf("node saw %d pushes, want 1", got)
	}

	if err := drv.Flush("A"); err != nil {
		t.Fatal(err)
	}
	if err := drv.Evict("A", 0); err != nil {
		t.Fatal(err)
	}
	l, err := drv.RequestBlock("A", 0, storage.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	ok := bytes.Equal(l.Data, bytes.Repeat([]byte{7}, blockSize))
	l.Release()
	if !ok {
		t.Fatal("the re-created block read back different bytes")
	}

	// Nothing is in flight now: the delete invalidates at once and the
	// next incarnation pushes as usual.
	if err := drv.Delete("A"); err != nil {
		t.Fatal(err)
	}
	writeBlocks(t, drv, "A", 1, blockSize, 9)
	if got := drv.Stats().ShardPushes; got != 2 {
		t.Fatalf("store started %d pushes after the drain ended, want 2", got)
	}
}

// markDeadAfterPut serves PeerPut, then marks the push's array deleted: the
// delete that lands while the push is between owners.
type markDeadAfterPut struct {
	remote.PeerHandler
	dead *atomic.Bool
}

func (m *markDeadAfterPut) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	ok, err := m.PeerHandler.PeerPut(array, block, epoch, data, durable)
	m.dead.Store(true)
	return ok, err
}

// TestPushSkipsOwnersOfDeadArray: a push whose array is deleted after its
// first owner took a copy places no further copy — no PeerPut to the other
// remote owner, no self copy.
func TestPushSkipsOwnersOfDeadArray(t *testing.T) {
	peers := startTestCluster(t, 3, nil)
	ring := peers[0].node.currentRing()
	block := -1
	var owners []string
	for b := 0; block < 0; b++ {
		if o := ring.Owners(BlockKey("A", b), ReplicateCopies+1); o[0] != peers[0].id {
			block, owners = b, o
		}
	}
	first := peerByID(peers, owners[0])
	var dead atomic.Bool
	first.late.set(&markDeadAfterPut{PeerHandler: first.node, dead: &dead})

	if peers[0].node.PushBlock("A", block, bytes.Repeat([]byte{3}, 512), &dead) {
		t.Fatal("a push cut short after one remote copy reported durable")
	}
	for _, p := range peers {
		want := int64(0)
		if p == first {
			want = 1
		}
		if got := p.node.Counters().ServedPuts; got != want {
			t.Fatalf("%s served %d puts, want %d", p.id, got, want)
		}
	}
	if n := peers[0].node.table.Len(); n != 0 {
		t.Fatalf("the pusher kept %d self copies of a dead array", n)
	}
}
