package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"dooc/internal/cluster"
	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/remote"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// latePeerHandler breaks the construction cycle between a peer's RPC
// server (which needs the handler at listen time) and its cluster node
// (which needs every peer's listen address): the server is built around
// this shell first, the node is slotted in once all addresses are known.
type latePeerHandler struct {
	mu sync.Mutex
	h  remote.PeerHandler
}

func (l *latePeerHandler) set(h remote.PeerHandler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *latePeerHandler) get() remote.PeerHandler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

func (l *latePeerHandler) PeerPut(array string, block int, epoch uint64, data []byte, durable bool) (bool, error) {
	if h := l.get(); h != nil {
		return h.PeerPut(array, block, epoch, data, durable)
	}
	return false, fmt.Errorf("peer still starting")
}

func (l *latePeerHandler) PeerGet(array string, block int) ([]byte, uint64, bool, error) {
	if h := l.get(); h != nil {
		return h.PeerGet(array, block)
	}
	return nil, 0, false, fmt.Errorf("peer still starting")
}

func (l *latePeerHandler) PeerDelete(array string) error {
	if h := l.get(); h != nil {
		return h.PeerDelete(array)
	}
	return fmt.Errorf("peer still starting")
}

func (l *latePeerHandler) PeerViewExchange(v remote.PeerView) remote.PeerView {
	if h := l.get(); h != nil {
		return h.PeerViewExchange(v)
	}
	return remote.PeerView{}
}

// benchPeer is one in-process stand-in for a doocserve peer: a real TCP
// server with the cluster peer verbs in front of a cluster node.
type benchPeer struct {
	store *storage.Store
	late  *latePeerHandler
	srv   *remote.Server
	node  *cluster.Node
}

func (p *benchPeer) close() {
	if p.node != nil {
		p.node.Close()
	}
	if p.srv != nil {
		p.srv.Shutdown(time.Second)
	}
	if p.store != nil {
		p.store.Close()
	}
}

// clusterRun measures the peer-to-peer sharded storage tier: the same
// iterated SpMV runs over a 1-peer ring (everything self-owned, pushes
// never reach remote durability) and a 3-peer ring (blocks shard across
// real TCP peers, misses forward to owners). The result vector must be
// bit-identical across the two — block placement is a storage concern,
// never a numeric one.
func clusterRun() error {
	const (
		dim   = 2400
		k     = 3
		nodes = 2
		iters = 10
	)
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 11})
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp("", "doocbench-cluster")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	base := core.SpMVConfig{Dim: dim, K: k, Nodes: nodes, Iters: 1}
	if err := core.StageMatrix(root, m, base); err != nil {
		return err
	}
	info, err := core.DiscoverStagedMatrix(root)
	if err != nil {
		return err
	}
	blockBytes := info.Bytes / int64(k*k)

	type modeResult struct {
		peers    int
		wall     time.Duration
		sha      string
		counters cluster.Counters
		fetches  int64
		pushes   int64
	}

	runMode := func(peerCount int, tag string) (*modeResult, error) {
		// Build the ring: every peer listens first (port 0 → real address),
		// then the nodes are constructed over the full address set.
		ids := make([]string, peerCount)
		peers := make([]*benchPeer, peerCount)
		members := make([]cluster.Member, peerCount)
		defer func() {
			for _, p := range peers {
				if p != nil {
					p.close()
				}
			}
		}()
		for i := range peers {
			ids[i] = fmt.Sprintf("%s-p%d", tag, i)
			st, err := storage.NewLocal(storage.Config{MemoryBudget: 32 << 20})
			if err != nil {
				return nil, err
			}
			late := &latePeerHandler{}
			srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: late})
			if err != nil {
				st.Close()
				return nil, err
			}
			peers[i] = &benchPeer{store: st, late: late, srv: srv}
			members[i] = cluster.Member{ID: ids[i], Addr: srv.Addr()}
		}
		for i, p := range peers {
			others := make([]cluster.Member, 0, peerCount-1)
			for j, m := range members {
				if j != i {
					others = append(others, m)
				}
			}
			node, err := cluster.NewNode(cluster.Config{
				Self: members[i],
				// Production-faithful: doocserve scopes ring keys by node ID.
				Scope:         ids[i],
				Peers:         others,
				Obs:           benchObs,
				ProbeInterval: 50 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			p.node = node
			p.late.set(node)
		}

		// Roughly one matrix block resident per node: vector blocks get
		// evicted between iterations, so re-reads actually exercise the
		// shard tier (durable evictions skip the disk spill and refetch
		// over the ring).
		sys, err := core.NewSystem(core.Options{
			Nodes:          nodes,
			WorkersPerNode: 2,
			MemoryBudget:   blockBytes + 1<<17,
			ScratchRoot:    root,
			PrefetchWindow: 1,
			Obs:            benchObs,
			Shard:          peers[0].node,
		})
		if err != nil {
			return nil, err
		}
		defer sys.Close()

		cfg := base
		cfg.Iters = iters
		cfg.Tag = tag
		start := time.Now()
		res, err := core.RunIteratedSpMV(sys, cfg, jobs.StartVector(dim, 42))
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		// The run deleted every array it wrote, so the ring must drain:
		// a push that lost the race to its array's delete may not leave a
		// copy behind on any peer.
		deadline := time.Now().Add(2 * time.Second)
		for _, p := range peers {
			for st := p.node.Status(); st.TableBlocks != 0; st = p.node.Status() {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("peer %s still holds %d blocks after the run deleted its arrays", st.Self, st.TableBlocks)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		sum := sha256.Sum256(jobs.EncodeFloat64s(res.X))
		return &modeResult{
			peers:    peerCount,
			wall:     wall,
			sha:      hex.EncodeToString(sum[:8]),
			counters: peers[0].node.Counters(),
			fetches:  res.Stats.ShardFetches(),
			pushes:   res.Stats.ShardPushes(),
		}, nil
	}

	fmt.Printf("peer-to-peer sharded storage: %d×%d matrix, K=%d, %d engine nodes, %d iterations\n\n",
		dim, dim, k, nodes, iters)
	results := make([]*modeResult, 0, 2)
	for _, pc := range []int{1, 3} {
		r, err := runMode(pc, fmt.Sprintf("c%d", pc))
		if err != nil {
			return fmt.Errorf("%d-peer run: %w", pc, err)
		}
		results = append(results, r)
	}
	fmt.Printf("%-6s %10s %10s %12s %12s %14s  %s\n",
		"peers", "wall", "wall/iter", "shard-push", "fwd-reads", "fwd-ratio", "result-sha")
	for _, r := range results {
		c := r.counters
		fwdRatio := 0.0
		if r.fetches > 0 {
			fwdRatio = float64(c.ForwardedReads) / float64(r.fetches)
		}
		fmt.Printf("%-6d %10v %10v %12d %12d %13.1f%%  %s\n",
			r.peers, r.wall.Round(time.Millisecond), (r.wall / iters).Round(time.Millisecond),
			r.pushes, c.ForwardedReads, 100*fwdRatio, r.sha)
	}
	if results[0].sha != results[1].sha {
		return fmt.Errorf("result diverged: 1-peer %s vs 3-peer %s", results[0].sha, results[1].sha)
	}
	fmt.Printf("\n1-peer and 3-peer results bit-identical: placement is a storage concern, not a numeric one\n\n")
	return clusterTierRun()
}

// clusterTierRun drives the shard tier directly through one storage filter
// under the solver's access shape — write a vector generation, read it back
// twice under a budget too small to keep it resident, delete the previous
// generation — and tabulates where the re-reads were served from. The
// engine benches above are too fast on a small box for the asynchronous
// durability verdicts to land mid-run; at paper scale an iteration takes
// seconds and this settle happens for free, so the phase waits for the
// verdicts explicitly instead of timing against them.
func clusterTierRun() error {
	const (
		generations = 8
		blocks      = 16
		blockSize   = 64 << 10
		passes      = 2
	)

	runTier := func(peerCount int, tag string) error {
		ids := make([]string, peerCount)
		peers := make([]*benchPeer, peerCount)
		members := make([]cluster.Member, peerCount)
		defer func() {
			for _, p := range peers {
				if p != nil {
					p.close()
				}
			}
		}()
		for i := range peers {
			ids[i] = fmt.Sprintf("%s-p%d", tag, i)
			st, err := storage.NewLocal(storage.Config{MemoryBudget: 32 << 20})
			if err != nil {
				return err
			}
			late := &latePeerHandler{}
			srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: late})
			if err != nil {
				st.Close()
				return err
			}
			peers[i] = &benchPeer{store: st, late: late, srv: srv}
			members[i] = cluster.Member{ID: ids[i], Addr: srv.Addr()}
		}
		for i, p := range peers {
			others := make([]cluster.Member, 0, peerCount-1)
			for j, m := range members {
				if j != i {
					others = append(others, m)
				}
			}
			node, err := cluster.NewNode(cluster.Config{
				Self: members[i],
				// Production-faithful: doocserve scopes ring keys by node ID.
				Scope:         ids[i],
				Peers:         others,
				Obs:           benchObs,
				ProbeInterval: 50 * time.Millisecond,
			})
			if err != nil {
				return err
			}
			p.node = node
			p.late.set(node)
		}

		// The driving store: memory only (no scratch directory), so a
		// block becomes evictable exactly when the tier reports it durable
		// — the cluster's spill-free eviction contract, isolated.
		drv, err := storage.NewLocal(storage.Config{
			MemoryBudget: blocks * blockSize / 2,
			Shard:        peers[0].node,
		})
		if err != nil {
			return err
		}
		defer drv.Close()

		start := time.Now()
		for g := 0; g < generations; g++ {
			name := fmt.Sprintf("x_%d", g)
			if err := drv.Create(name, blocks*blockSize, blockSize); err != nil {
				return err
			}
			for b := 0; b < blocks; b++ {
				lease, err := drv.RequestBlock(name, b, storage.PermWrite)
				if err != nil {
					return err
				}
				for i := range lease.Data {
					lease.Data[i] = byte(g + b + i)
				}
				lease.Release()
			}
			if peerCount > 1 {
				// Wait for the durability verdicts, standing in for the
				// seconds of compute a paper-scale iteration would spend
				// here anyway.
				deadline := time.Now().Add(5 * time.Second)
				for drv.Stats().ShardDurablePushes < int64((g+1)*blocks) &&
					time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
			}
			for pass := 0; pass < passes; pass++ {
				for b := 0; b < blocks; b++ {
					lease, err := drv.RequestBlock(name, b, storage.PermRead)
					if err != nil {
						return err
					}
					if lease.Data[0] != byte(g+b) {
						lease.Release()
						return fmt.Errorf("generation %d block %d corrupt after refetch", g, b)
					}
					lease.Release()
				}
			}
			if g > 0 {
				if err := drv.Delete(fmt.Sprintf("x_%d", g-1)); err != nil {
					return err
				}
			}
		}
		wall := time.Since(start)

		st := drv.Stats()
		c := peers[0].node.Counters()
		fwdRatio := 0.0
		if st.ShardFetches > 0 {
			fwdRatio = float64(c.ForwardedReads) / float64(st.ShardFetches)
		}
		fmt.Printf("%-6d %10v %10v %12d %12d %13.1f%%\n",
			peerCount, wall.Round(time.Millisecond),
			(wall / generations).Round(time.Millisecond),
			st.ShardDurablePushes, c.ForwardedReads, 100*fwdRatio)
		return nil
	}

	fmt.Printf("shard tier direct: %d generations × %d blocks × %d KiB, %d read passes, budget ½ generation\n\n",
		generations, blocks, blockSize>>10, passes)
	fmt.Printf("%-6s %10s %10s %12s %12s %14s\n",
		"peers", "wall", "wall/gen", "durable", "fwd-reads", "fwd-ratio")
	for _, pc := range []int{1, 3} {
		if err := runTier(pc, fmt.Sprintf("t%d", pc)); err != nil {
			return fmt.Errorf("%d-peer tier run: %w", pc, err)
		}
	}
	return nil
}
