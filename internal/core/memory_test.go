package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// heapSlack bounds how far a system's Go heap may grow over a run: its own
// structures — stores' maps and freelists, DAG, lanes, metrics — and none
// of the block bytes, which live in the arena's mapped classes. The runs
// below grow it by 0.2–0.3 MB.
const heapSlack = 1 << 20

// memory is the process's Go heap in use, after a collection, and the
// shared arena's live bytes.
type memory struct{ heap, arena int64 }

func takeMemory() memory {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memory{heap: int64(ms.HeapInuse), arena: storage.SharedArena().Stats().Live}
}

// since is the growth from base. Where the arena has no mmap path (it has
// mapped nothing), block buffers are heap objects: the heap's growth is
// then counted as the arena's, against the arena's bound.
func (m memory) since(base memory) memory {
	d := memory{heap: m.heap - base.heap, arena: m.arena - base.arena}
	if storage.SharedArena().Stats().Mapped == 0 {
		d.heap, d.arena = 0, d.heap
	}
	return d
}

// TestNodeMemoryBounded: throughout an in-core run and an out-of-core one,
// the arena holds at most 1.25 × (every node's MemoryBudget + one block per
// I/O filter): resident blocks within the budget, each in a buffer at most
// a class step larger, plus the block each I/O filter may be reading in
// before the loop installs it and evicts to make room. After the run the Go
// heap has grown by at most heapSlack. The out-of-core budget holds two
// blocks, so the run evicts and reloads all the time.
func TestNodeMemoryBounded(t *testing.T) {
	const dim, k, nodes, ioWorkers = 2202, 3, 2, 2
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: nodes}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	info, err := DiscoverStagedMatrix(root)
	if err != nil {
		t.Fatal(err)
	}
	block := (info.Bytes + k*k - 1) / (k * k) // one block, at least
	x0 := randVec(rand.New(rand.NewSource(2)), dim)
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"in-core", info.Bytes},
		{"out-of-core", 2*block + 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := takeMemory()
			sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, MemoryBudget: tc.budget, IOWorkers: ioWorkers, PrefetchWindow: 2, Reorder: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var peak atomic.Int64
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					if live := storage.SharedArena().Stats().Live - base.arena; live > peak.Load() {
						peak.Store(live)
					}
					select {
					case <-stop:
						return
					case <-time.After(50 * time.Microsecond):
					}
				}
			}()
			for i := 0; i < 2; i++ {
				cfg.Tag = fmt.Sprintf("r%d", i)
				if _, err := RunIteratedSpMV(sys, cfg, x0); err != nil {
					t.Fatal(err)
				}
				DeleteSpMVArrays(sys, cfg)
			}
			close(stop)
			<-stopped
			limit := (nodes*tc.budget + nodes*ioWorkers*block) * 5 / 4
			t.Logf("arena peak %d bytes, limit %d", peak.Load(), limit)
			if peak.Load() > limit {
				t.Errorf("the arena held %d bytes at its peak, limit %d = 1.25 × (%d nodes × %d budget + %d I/O filters × %d-byte block)", peak.Load(), limit, nodes, tc.budget, nodes*ioWorkers, block)
			}
			if grew := takeMemory().since(base); grew.heap > heapSlack {
				t.Errorf("the Go heap grew %d bytes over the run (limit %d)", grew.heap, heapSlack)
			}
		})
	}
	runtime.KeepAlive(m)
}
