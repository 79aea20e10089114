package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/sparse"
	"dooc/internal/spmv"
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

// TestOverBudgetAllocsReadable: at a budget of two average blocks and no
// slack, at prefetch windows 0, 1, 2 and 4, RunStats.OverBudgetAllocs reports
// exactly what the stores counted, and no store grants an allocation above
// its budget — at 2000² and K = 4, the shape this test first read the
// breach at, and at 3000² and K = 4 and 8. The window is what used to break
// the bound there (2000², K = 4: 63 at window 2, 0 at window 0): a prefetch
// admitted before the picked task's lease, and admission that did not count
// written blocks no eviction may take.
//
// 2000² at K = 8 is a known failure (ROADMAP item 17, written blocks): one
// iteration's partials and vectors, the only copies of their bytes, do not
// fit beside two matrix blocks, so even window 0 grants above the budget
// (127–235 in ten iterations). The case checks that the breach is read and
// still there; once it reads 0, the budget bounds written blocks as well and
// the case belongs with the others.
func TestOverBudgetAllocsReadable(t *testing.T) {
	const nodes = 2
	for _, tc := range []struct {
		dim, k      int
		knownBreach bool
	}{
		{2000, 4, false},
		{3000, 4, false},
		{3000, 8, false},
		{2000, 8, true},
	} {
		m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: tc.dim, Cols: tc.dim, D: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		x0 := randVec(rand.New(rand.NewSource(3)), tc.dim)
		root := t.TempDir()
		cfg := SpMVConfig{Dim: tc.dim, K: tc.k, Iters: 10, Nodes: nodes}
		if err := StageMatrix(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		block := info.Bytes / int64(tc.k*tc.k)
		windows := []int{0, 1, 2, 4}
		if tc.knownBreach {
			windows = []int{0}
		}
		for _, window := range windows {
			t.Run(fmt.Sprintf("%d/K%d/window%d", tc.dim, tc.k, window), func(t *testing.T) {
				sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, MemoryBudget: 2 * block, PrefetchWindow: window, Reorder: true})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				granted := func() (n int64) {
					for i := 0; i < nodes; i++ {
						n += sys.Store(i).Stats().OverBudgetAllocs
					}
					return n
				}
				before := granted()
				res, err := RunIteratedSpMV(sys, cfg, x0)
				if err != nil {
					t.Fatal(err)
				}
				got, want := res.Stats.OverBudgetAllocs(), granted()-before
				if got != want {
					t.Fatalf("RunStats.OverBudgetAllocs = %d, the stores counted %d", got, want)
				}
				switch {
				case tc.knownBreach && got == 0:
					t.Fatalf("no allocation granted above a %d-byte budget: the written-blocks breach of ROADMAP item 17 is gone; assert 0 here as in the other cases", 2*block)
				case tc.knownBreach:
					t.Logf("known breach (ROADMAP item 17): %d allocations granted above a %d-byte budget", got, 2*block)
				case got != 0:
					t.Fatalf("%d allocations granted above a %d-byte budget, want 0", got, 2*block)
				}
			})
		}
	}
}

// TestPrefetchReadsNoMoreThanWindowZero: a prefetch window moves reads
// earlier, it does not add any. At the spmv-ooc workload's shape — 3000², d
// = 8, 2 nodes of one worker, a budget of two average blocks + 128 KiB — and
// at the same budget without the slack, a window of 2 reads from scratch at
// most prefetchReadBound × what window 0 reads, at K = 4 and K = 8, summed
// over 10 runs of 5 iterations. Before the window counted tasks and
// admission counted every byte no eviction may free, it read 1.33 × at K = 4
// and 1.12 × at K = 8 with the slack, and 1.73 × at both without; a window
// whose runners-up are admitted before the picked task's block is counted
// reads 1.78 × and 1.86 × without the slack.
//
// prefetchReadBound is a regression guard, not the goal: the goal is 1.10
// ×, and K = 4 does not meet it in every run (ROADMAP item 10). Eight runs
// of this test on a 2-vCPU host read 1.04–1.13 × (K = 4) and 1.01–1.03 ×
// (K = 8) with the slack, 1.02–1.10 × and 0.99–1.03 × without; at
// GOMAXPROCS 1, 1.07 ×, 1.07 ×, 1.03 × and 1.01 ×. The order in which tasks
// become ready moves from run to run, and the guard keeps a margin over the
// worst reading.
func TestPrefetchReadsNoMoreThanWindowZero(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's slowdown reorders when tasks become ready, which is what the bound measures")
	}
	const dim, nodes, runs, iters, prefetchReadBound = 3000, 2, 10, 5, 1.20
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rand.New(rand.NewSource(3)), dim)
	for _, k := range []int{4, 8} {
		root := t.TempDir()
		cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
		if err := StageMatrix(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, slack := range []int64{128 << 10, 0} {
			budget := 2*info.Bytes/int64(k*k) + slack
			read := map[int]float64{}
			for _, window := range []int{0, 2} {
				sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, MemoryBudget: budget, PrefetchWindow: window, Reorder: true})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < runs; r++ {
					cfg.Tag = fmt.Sprintf("w%d-r%d", window, r)
					res, err := RunIteratedSpMV(sys, cfg, x0)
					if err != nil {
						sys.Close()
						t.Fatal(err)
					}
					read[window] += float64(res.Stats.BytesReadDisk()) / (runs * iters * nodes)
				}
				sys.Close()
			}
			t.Logf("K = %d, slack %d: %.0f bytes read per node and iteration at window 0, %.0f at window 2 (%.3f ×)", k, slack, read[0], read[2], read[2]/read[0])
			if read[2] > prefetchReadBound*read[0] {
				t.Errorf("K = %d, slack %d: window 2 read %.0f bytes per node and iteration, window 0 %.0f: %.3f ×, bound %.2f", k, slack, read[2], read[0], read[2]/read[0], prefetchReadBound)
			}
		}
	}
}

// TestFirstMultiplyIndependentOfIters: a run holds one segment of its
// iterations, so the tasks it builds before its first multiply — the first
// segment's, which are the run's Stats.Events — number the same at 10² and
// 10⁴ iterations, and the Go heap in use at its first reduction, right after
// the first multiplies, is the same within 1.5×; so is the heap at its last
// reduction, which would hold whatever the run kept of its finished
// segments. Each heap is the least of five runs, against scheduling noise.
func TestFirstMultiplyIndependentOfIters(t *testing.T) {
	const dim, k, nodes = 64, 2, 1
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := LoadMatrixInMemory(sys, m, SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rand.New(rand.NewSource(6)), dim)
	// Runs alternate between the two lengths, so load on the machine falls
	// on both alike.
	built := map[int]int{}
	heap := map[int]int64{100: 1 << 62, 10000: 1 << 62}
	heapLast := map[int]int64{100: 1 << 62, 10000: 1 << 62}
	for rep := 0; rep < 5; rep++ {
		for _, iters := range []int{100, 10000} {
			cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes, Tag: fmt.Sprintf("i%d-%d", iters, rep)}
			var once, lastOnce sync.Once
			var inUse, inUseLast int64
			probe := func(ctx *ExecContext) error {
				once.Do(func() { inUse = takeMemory().heap })
				if t, _ := spmv.TaskIter(ctx.Task.ID); t == iters {
					lastOnce.Do(func() { inUseLast = takeMemory().heap })
				}
				return execSum(ctx)
			}
			// Collect and return the last run's garbage now, not while this
			// run sets up.
			debug.FreeOSMemory()
			res, err := runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{sum: probe})
			if err != nil {
				t.Fatal(err)
			}
			built[iters], heap[iters] = len(res.Stats.Events), min(heap[iters], inUse)
			heapLast[iters] = min(heapLast[iters], inUseLast)
		}
	}
	built2, heap2, built4, heap4 := built[100], heap[100], built[10000], heap[10000]
	t.Logf("%d tasks before the first multiply at 10² iterations, %d at 10⁴; heap in use %d and %d bytes, at the last reduction %d and %d", built2, built4, heap2, heap4, heapLast[100], heapLast[10000])
	within := func(a, b float64) bool { return a <= 1.5*b && b <= 1.5*a }
	if built2 == 0 || built2 != built4 {
		t.Errorf("%d tasks built before the first multiply at 10² iterations, %d at 10⁴: want the same", built2, built4)
	}
	if !within(float64(heap2), float64(heap4)) {
		t.Errorf("heap in use at the first reduction %d bytes at 10² iterations, %d at 10⁴: want within 1.5×", heap2, heap4)
	}
	if !within(float64(heapLast[100]), float64(heapLast[10000])) {
		t.Errorf("heap in use at the last reduction %d bytes at 10² iterations, %d at 10⁴: want within 1.5×", heapLast[100], heapLast[10000])
	}
}
