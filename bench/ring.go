package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dooc/internal/cluster"
	"dooc/internal/obs"
	"dooc/internal/remote"
	"dooc/internal/storage"
)

// lateHandler breaks the construction cycle between a peer's RPC server (which
// needs its handler at listen time) and its cluster node (which needs every
// peer's listen address): the server is built around this shell and the node
// is slotted in once all addresses are known.
type lateHandler struct {
	mu sync.Mutex
	h  remote.PeerHandler
}

var errStarting = errors.New("peer still starting")

func (l *lateHandler) get() remote.PeerHandler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

func (l *lateHandler) set(h remote.PeerHandler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	if h := l.get(); h != nil {
		return h.PeerPut(array, block, epoch, data, durable)
	}
	return false, errStarting
}

func (l *lateHandler) PeerGet(array string, block int) ([]byte, uint64, bool, error) {
	if h := l.get(); h != nil {
		return h.PeerGet(array, block)
	}
	return nil, 0, false, errStarting
}

func (l *lateHandler) PeerDelete(array string) error {
	if h := l.get(); h != nil {
		return h.PeerDelete(array)
	}
	return errStarting
}

func (l *lateHandler) PeerViewExchange(v remote.PeerView) remote.PeerView {
	if h := l.get(); h != nil {
		return h.PeerViewExchange(v)
	}
	return remote.PeerView{}
}

// peer is one in-process stand-in for a doocserve cluster peer: a storage
// filter, a real TCP server with the peer verbs, a cluster node.
type peer struct {
	store *storage.Store
	srv   *remote.Server
	node  *cluster.Node
}

// ring is the spmv-ring workload's cluster: peers over loopback TCP with
// default membership timers and no injected deaths. Peer 0's node is the
// engine's shard backend.
type ring struct {
	peers []*peer
	ids   []string
}

// hotArray is doocserve's replication predicate: the SpMV input vector
// generations, with or without a run tag.
func hotArray(array string) bool {
	if i := strings.LastIndexByte(array, ':'); i >= 0 {
		array = array[i+1:]
	}
	return strings.HasPrefix(array, "x_")
}

func newRing(n int, reg *obs.Registry) (*ring, error) {
	r := &ring{}
	members := make([]cluster.Member, n)
	lates := make([]*lateHandler, n)
	for i := 0; i < n; i++ {
		st, err := storage.NewLocal(storage.Config{MemoryBudget: 32 << 20})
		if err != nil {
			r.close()
			return nil, err
		}
		lates[i] = &lateHandler{}
		srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: lates[i], Obs: reg})
		if err != nil {
			st.Close()
			r.close()
			return nil, err
		}
		r.peers = append(r.peers, &peer{store: st, srv: srv})
		r.ids = append(r.ids, fmt.Sprintf("p%d", i))
		members[i] = cluster.Member{ID: r.ids[i], Addr: srv.Addr()}
	}
	for i, p := range r.peers {
		others := append(append([]cluster.Member(nil), members[:i]...), members[i+1:]...)
		// Scope by node ID, as doocserve does.
		node, err := cluster.NewNode(cluster.Config{Self: members[i], Scope: r.ids[i], Peers: others, Obs: reg, Hot: hotArray})
		if err != nil {
			r.close()
			return nil, err
		}
		p.node = node
		lates[i].set(node)
	}
	return r, nil
}

// backend is the engine's shard tier; a nil ring has none.
func (r *ring) backend() storage.ShardBackend {
	if r == nil {
		return nil
	}
	return r.peers[0].node
}

func (r *ring) close() {
	if r == nil {
		return
	}
	for _, p := range r.peers {
		if p.node != nil {
			p.node.Close()
		}
		p.srv.Shutdown(time.Second)
		p.store.Close()
	}
	r.peers = nil
}

// layers fills the cluster metrics and remote.rtt_us: counts from the window's
// registry growth, probes over loopback against peer 1.
func (r *ring) layers(l *ledger, m *measurement) error {
	c, iters := m.counts, float64(m.iters)
	reads := c["dooc_cluster_forwarded_reads_total"]
	l.set("cluster.forwarded_reads_per_iter", ratio(reads, iters), 0)
	l.set("cluster.forwarded_bytes_per_iter", ratio(c["dooc_cluster_forwarded_bytes_total"], iters), 0)
	l.set("cluster.pushes_per_iter", ratio(c["dooc_storage_shard_pushes_total"], iters), 0)
	l.set("cluster.durable_push_ratio", ratio(c["dooc_storage_shard_durable_total"], c["dooc_storage_shard_pushes_total"]), 0)
	hits := c["dooc_cluster_replica_hits_total"]
	l.set("cluster.replica_hit_ratio", ratio(hits, hits+c["dooc_cluster_replica_fills_total"]), 0)
	l.set("cluster.forward_miss_ratio", ratio(c["dooc_cluster_forwarded_read_misses_total"], reads), 0)

	const reps = 2000
	cr := cluster.NewRing(r.ids, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = cluster.BlockKey("rep0:x_1_0", i)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		cr.Owners(keys[i%len(keys)], cluster.ReplicateCopies)
	}
	l.set("cluster.ring_owner_ns", float64(time.Since(start).Nanoseconds())/reps, reps)

	cl, err := remote.DialOptions(r.peers[1].srv.Addr(), remote.Options{Handshake: true})
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := probeRTT(l, cl); err != nil {
		return err
	}
	const blocks = 100
	block := make([]byte, 16<<10) // a vector part of this workload
	var puts, gets []float64
	for i := 0; i < blocks; i++ {
		start := time.Now()
		if _, err := cl.PeerPut("probe", i, 1, block, false); err != nil {
			return fmt.Errorf("peer-put probe: %w", err)
		}
		puts = append(puts, float64(time.Since(start))/1e3)
	}
	for i := 0; i < blocks; i++ {
		start := time.Now()
		if _, _, held, err := cl.PeerGet("probe", i); err != nil || !held {
			return fmt.Errorf("peer-get probe: held=%v err=%v", held, err)
		}
		gets = append(gets, float64(time.Since(start))/1e3)
	}
	l.set("cluster.peer_put_us", median(puts), blocks)
	l.set("cluster.peer_get_us", median(gets), blocks)
	return cl.PeerDelete("probe")
}
