package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/remote"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// TestCloseReturnsEveryBlockBuffer: ten systems in a row, each created,
// run and closed, hand every block buffer back to the shared arena — an
// in-core store, an out-of-core one that evicts and reloads, and one backed
// by a three-peer ring. The arena's live bytes come back to where they
// started, and once the first cycle has mapped what a cycle needs, later
// cycles reuse it: mapped bytes grow by less than one staged matrix over
// the nine cycles that follow, where a store that left its blocks to the
// collector would map the whole matrix again every cycle. (On a platform
// without the mmap path both counts stay 0.)
func TestCloseReturnsEveryBlockBuffer(t *testing.T) {
	const dim, k, nodes, cycles = 1200, 3, 2, 10
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	stagedRoot := t.TempDir()
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: nodes}
	if err := core.StageMatrix(stagedRoot, m, cfg); err != nil {
		t.Fatal(err)
	}
	info, err := core.DiscoverStagedMatrix(stagedRoot)
	if err != nil {
		t.Fatal(err)
	}
	if b := info.Bytes / (k * k); b < 64<<10 {
		t.Fatalf("a staged block is %d bytes: below the arena's large classes, the test checks nothing", b)
	}
	x0 := make([]float64, dim)
	rng := rand.New(rand.NewSource(5))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	for _, tc := range []struct {
		name string
		opts core.Options
		ring bool
	}{
		{"in-core", core.Options{MemoryBudget: 2 * info.Bytes}, false},
		{"out-of-core", core.Options{MemoryBudget: 2 * info.Bytes / int64(k*k)}, false},
		{"ring", core.Options{MemoryBudget: 2 * info.Bytes / int64(k*k)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := storage.SharedArena()
			start := arena.Stats().Live
			var peers []*testPeer
			if tc.ring {
				peers = startTestCluster(t, 3, nil)
				tc.opts.Shard = peers[0].node
			}
			var mapped int64
			for c := 0; c < cycles; c++ {
				opts := tc.opts
				opts.Nodes, opts.PrefetchWindow, opts.Reorder = nodes, 2, true
				opts.ScratchRoot = copyStaged(t, stagedRoot)
				sys, err := core.NewSystem(opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := cfg
				cfg.Tag = fmt.Sprintf("c%d", c)
				_, err = core.RunIteratedSpMV(sys, cfg, x0)
				sys.Close()
				if err != nil {
					t.Fatal(err)
				}
				if c == 0 {
					mapped = arena.Stats().Mapped
				}
			}
			if tc.ring {
				// The ring held copies of what the systems pushed; closing
				// its nodes gives them back.
				if peers[0].node.Counters().Pushes == 0 {
					t.Fatal("the ring case pushed no block: it checks nothing of the ring")
				}
				for _, p := range peers {
					p.kill()
				}
			}
			// A background push may still hold its copy of a block.
			waitFor(t, 5*time.Second, "the arena's live bytes to come back", func() bool {
				return arena.Stats().Live == start
			})
			if grew := arena.Stats().Mapped - mapped; grew >= info.Bytes {
				t.Fatalf("mapped bytes grew %d over %d cycles after the first, a staged matrix is %d: closed systems left their blocks behind", grew, cycles-1, info.Bytes)
			}
		})
	}
}

// TestConcurrentPushFetchInvalidate: one peer re-pushes the blocks of an
// array, invalidating it every few rounds, while the other two fetch the
// blocks over the ring (read replicas on) and clients ask all three servers
// for them directly. Table entries are replaced and dropped — their buffers
// given back to the arena — while readers copy them out, so a buffer given
// back too early shows as a block whose bytes are not the ones pushed at its
// epoch. The blocks are a mapped class's size: once every node is closed,
// the arena's live bytes are back where they started.
func TestConcurrentPushFetchInvalidate(t *testing.T) {
	const blocks, rounds, size = 4, 24, 96 << 10
	arena := storage.SharedArena()
	start := arena.Stats().Live
	peers := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Hot = func(string) bool { return true }
	})

	type pushKey struct {
		block int
		epoch uint64
	}
	var (
		mu       sync.Mutex
		pushedAt = make(map[pushKey]uint64) // block and epoch -> round
		seen     []pushKey                  // PeerGet answers, checked at the end
		got      []uint64                   // the round each answer held
		reads    atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	check := func(data []byte, block int) (uint64, bool) {
		round, ok := roundOf(data, block, size)
		if !ok {
			select {
			case fail <- fmt.Errorf("block %d read back as %d bytes that are not a pushed block", block, len(data)):
			default:
			}
		}
		reads.Add(1)
		arena.Put(data)
		return round, ok
	}
	for _, p := range peers[1:] {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if data, ok := n.FetchBlock("A", i%blocks); ok {
					check(data, i%blocks)
				}
			}
		}(p.node)
	}
	for _, p := range peers {
		cl, err := remote.DialOptions(p.srv.Addr(), remote.Options{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				data, epoch, held, err := cl.PeerGet("A", i%blocks)
				if err != nil || !held {
					continue
				}
				if round, ok := check(data, i%blocks); ok {
					mu.Lock()
					seen = append(seen, pushKey{i % blocks, epoch})
					got = append(got, round)
					mu.Unlock()
				}
			}
		}()
	}

	w := peers[0].node
	for r := uint64(1); r <= rounds; r++ {
		for b := 0; b < blocks; b++ {
			w.PushBlock("A", b, blockOfRound(r, b, size), nil)
			mu.Lock()
			pushedAt[pushKey{b, w.epochOf("A", b)}] = r
			mu.Unlock()
		}
		if r%8 == 0 {
			w.InvalidateArray("A")
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if len(seen) == 0 || reads.Load() == int64(len(seen)) {
		t.Fatalf("%d direct and %d ring reads: the readers never overlapped the pushes", len(seen), reads.Load()-int64(len(seen)))
	}
	for i, k := range seen {
		if want, ok := pushedAt[k]; !ok || want != got[i] {
			t.Fatalf("block %d at epoch %d held round %d's bytes, pushed at that epoch: round %d (%v)", k.block, k.epoch, got[i], want, ok)
		}
	}

	for _, p := range peers {
		p.kill()
	}
	waitFor(t, 5*time.Second, "the arena's live bytes to come back", func() bool {
		return arena.Stats().Live == start
	})
}

// blockOfRound is block b's bytes as pushed in round r: the round and the
// block number, then a fill derived from both.
func blockOfRound(r uint64, b, size int) []byte {
	data := make([]byte, size)
	binary.LittleEndian.PutUint64(data, r)
	binary.LittleEndian.PutUint64(data[8:], uint64(b))
	for i := 16; i < size; i++ {
		data[i] = byte(r*31 + uint64(b)*7 + uint64(i))
	}
	return data
}

// roundOf returns the round whose push of block b data is, or false when
// data is not exactly such a push.
func roundOf(data []byte, b, size int) (uint64, bool) {
	if len(data) != size {
		return 0, false
	}
	r := binary.LittleEndian.Uint64(data)
	return r, bytes.Equal(data, blockOfRound(r, b, size))
}

// copyStaged copies a staged matrix's node directories into a fresh root,
// so that every system starts from the same files.
func copyStaged(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}
