package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dooc/internal/obs"
)

// TestClusterObsReconcile drives a shared-registry cluster through pushes,
// forwarded reads, replica traffic and a delete, then checks the invariants
// that tie one peer's dooc_cluster_* series to another's — every forwarded
// read was a get some owner served, every push ack a put some owner accepted
// — and that the residency gauges track the live table/replica state.
func TestClusterObsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	peers := startTestCluster(t, 4, func(i int, cfg *Config) {
		cfg.Obs = reg
		cfg.Hot = func(array string) bool { return strings.HasPrefix(array, "x_") }
	})

	ring := peers[0].node.currentRing()
	payload := bytes.Repeat([]byte{6}, 1024)
	// Cold pushes and forwarded reads across several keys.
	for b := 0; b < 6; b++ {
		pusher := peers[b%len(peers)]
		pusher.node.PushBlock("A", b, payload, nil)
		reader := peerByID(peers, findNonOwner(ring, "A", b))
		reader.node.FetchBlock("A", b)
	}
	// Hot-array traffic: fills, hits, a write-back, and a delete.
	hotBlock := findBlockExcluding(t, ring, "x_t", "n1")
	hotPeer := peerByID(peers, "n1")
	hotPeer.node.PushBlock("x_t", hotBlock, payload, nil)
	hotPeer.node.FetchBlock("x_t", hotBlock) // forward + fill
	hotPeer.node.FetchBlock("x_t", hotBlock) // replica hit
	hotPeer.node.PushBlock("x_t", hotBlock, payload, nil)
	peers[0].node.InvalidateArray("A")
	// A miss and an explicit gossip round.
	peers[2].node.FetchBlock("missing", 0)
	peers[0].node.gossipOnce()
	// Let the best-effort remote deletes land so residency gauges are
	// stable before reconciling.
	waitFor(t, 2*time.Second, "remote deletes of A to settle", func() bool {
		for _, p := range peers {
			for b := 0; b < 6; b++ {
				if _, _, ok := p.node.table.Get("A", b); ok {
					return false
				}
			}
		}
		return true
	})

	// What one peer counts as fetched or acknowledged, another counted as
	// served: the series reconcile across the wire.
	if fwd, served := reg.Sum("dooc_cluster_forwarded_reads_total"), reg.Sum("dooc_cluster_served_gets_total"); fwd == 0 || fwd != served {
		t.Errorf("forwarded reads %d != served gets %d", fwd, served)
	}
	if acks, puts := reg.Sum("dooc_cluster_push_acks_total"), reg.Sum("dooc_cluster_served_puts_total"); acks == 0 || acks != puts {
		t.Errorf("push acks %d != served puts %d", acks, puts)
	}
	if fwd, bytesFwd := reg.Sum("dooc_cluster_forwarded_reads_total"), reg.Sum("dooc_cluster_forwarded_bytes_total"); bytesFwd != fwd*int64(len(payload)) {
		t.Errorf("forwarded bytes %d for %d reads of %d bytes", bytesFwd, fwd, len(payload))
	}
	if hits, fills := reg.Sum("dooc_cluster_replica_hits_total"), reg.Sum("dooc_cluster_replica_fills_total"); hits != 1 || fills != 1 {
		t.Errorf("replica hits %d fills %d, want 1/1", hits, fills)
	}
	// Node.Counters reads the same series, peer by peer.
	var pushes int64
	for _, p := range peers {
		pushes += p.node.Counters().Pushes
	}
	if got := reg.Sum("dooc_cluster_pushes_total"); got != 8 || pushes != 8 {
		t.Errorf("pushes: registry %d, Counters %d, scenario made 8", got, pushes)
	}

	// Residency gauges track the live table/replica state per peer.
	for _, p := range peers {
		st := p.node.Status()
		if got := reg.SumWhere("dooc_cluster_table_blocks", "peer", p.id); got != int64(st.TableBlocks) {
			t.Errorf("table_blocks{peer=%s} = %d, Status says %d", p.id, got, st.TableBlocks)
		}
		if got := reg.SumWhere("dooc_cluster_table_bytes", "peer", p.id); got != st.TableBytes {
			t.Errorf("table_bytes{peer=%s} = %d, Status says %d", p.id, got, st.TableBytes)
		}
		if got := reg.SumWhere("dooc_cluster_replica_blocks", "peer", p.id); got != int64(st.ReplicaBlocks) {
			t.Errorf("replica_blocks{peer=%s} = %d, Status says %d", p.id, got, st.ReplicaBlocks)
		}
		if got := reg.SumWhere("dooc_cluster_members", "peer", p.id); got != int64(len(st.Members)) {
			t.Errorf("members{peer=%s} = %d, Status says %d", p.id, got, len(st.Members))
		}
	}
}

// findNonOwner returns the ID of some peer outside the block's fetch walk
// (there is always one in a 4-peer cluster with a 3-owner walk).
func findNonOwner(r *Ring, array string, block int) string {
	owners := r.Owners(BlockKey(array, block), fetchCandidates)
	for _, id := range r.Members() {
		hit := false
		for _, o := range owners {
			if o == id {
				hit = true
				break
			}
		}
		if !hit {
			return id
		}
	}
	return owners[len(owners)-1]
}
