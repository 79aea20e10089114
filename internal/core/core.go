// Package core is the DOoC engine: it couples the distributed storage layer
// (internal/storage), the derived task DAG (internal/dag), and the
// hierarchical data-aware scheduler (internal/scheduler) into a runtime that
// executes task programs out-of-core across an in-process cluster.
//
// The division of labor mirrors the paper's Fig. 2:
//
//   - a storage filter and its asynchronous I/O filters run on every node
//     (internal/storage),
//   - the global scheduler assigns tasks to nodes by data affinity,
//   - a local scheduler per node picks the next task among its ready set by
//     residency and recency (discovering the back-and-forth traversal),
//     issues prefetches to keep the I/O filters busy, and dispatches to the
//     node's computing filters (worker goroutines).
package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// Options configures a System.
type Options struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// WorkersPerNode is the number of computing filters per node
	// (default 1).
	WorkersPerNode int
	// MemoryBudget is each node's storage budget in bytes (default 1 GiB).
	// It counts a resident block's bytes; the storage arena holds a block
	// of 512 B or more in a buffer at most 1.25 × that (its size classes),
	// and a smaller block in a 512-byte one.
	MemoryBudget int64
	// ScratchRoot, when non-empty, gives every node an out-of-core scratch
	// directory ScratchRoot/node<i>.
	ScratchRoot string
	// PrefetchWindow is how many ready tasks a node's local scheduler keeps
	// with their heavy data in memory, the one it picks included: at each
	// pick it asks the store, after the picked task's first lease request,
	// to fetch the runners-up's missing heavy blocks, within the budget
	// (storage admission). 0, the zero value, and 1 prefetch nothing.
	PrefetchWindow int
	// Reorder enables the local scheduler's data-aware reordering; false,
	// the zero value, runs ready tasks in program order.
	Reorder bool
	// IOWorkers per node (default 2).
	IOWorkers int
	// Seed makes random-peer probing deterministic.
	Seed int64
	// DecodeCacheBytes is ignored: a multiply runs out of the resident
	// block's own bytes (ExecContext.Matrix) and there is no decoded copy to
	// size. The field stays only because bench/, which a change that claims
	// a gain may not edit, sets it; ROADMAP item 0's benchmark refresh
	// deletes it.
	DecodeCacheBytes int64
	// Eviction selects the storage reclamation policy (default LRU, the
	// paper's; the eviction ablation sweeps FIFO and MRU).
	Eviction storage.EvictionPolicy
	// TaskRetries is how many times a failed task is re-executed before its
	// error aborts the run (default 2, i.e. up to 3 executions). Negative
	// disables re-execution. Re-executions forced by node failure do not
	// count against this budget.
	TaskRetries int
	// Faults, when non-nil, injects I/O errors and stalls into every node's
	// storage filter (fault-injection harness; see internal/faults).
	Faults *faults.Injector
	// Codec, when non-nil, compresses every node's scratch spills into
	// adaptive frames (see internal/compress). Blocks that do not shrink
	// are stored raw automatically.
	Codec compress.Codec
	// Obs, when non-nil, collects metrics from every layer (storage,
	// scheduler, engine) into one registry for Prometheus-style export.
	Obs *obs.Registry
	// Trace, when non-nil, records task lifecycle spans and engine events
	// in Chrome trace-event form (pid = node, tid = worker lane).
	Trace *obs.Tracer
	// Shard, when non-nil, connects every node's storage filter to the
	// cross-process cluster tier (internal/cluster.Node): written blocks
	// are pushed to their consistent-hash owners, durably pushed blocks
	// evict without a disk spill, and misses refetch over the ring.
	Shard storage.ShardBackend
}

func (o *Options) fill() {
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.WorkersPerNode <= 0 {
		o.WorkersPerNode = 1
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 1 << 30
	}
	if o.IOWorkers <= 0 {
		o.IOWorkers = 2
	}
	if o.TaskRetries == 0 {
		o.TaskRetries = 2
	} else if o.TaskRetries < 0 {
		o.TaskRetries = 0
	}
}

// System is a running DOoC instance: an in-process cluster of nodes, each
// with a storage filter, I/O filters, and computing filters.
type System struct {
	opts   Options
	stores []*storage.Store

	// View scratches between runs. ExecContext is built per Run, and a
	// scratch regrown from nothing on every Operator.Apply would allocate a
	// block's decoded sections per solver step; a worker takes one when it
	// starts and returns it when it exits, so it is never shared by two
	// concurrent runs and the list is as long as the most workers that ever
	// ran at once.
	scratchMu  sync.Mutex
	scratches  []*sparse.ViewScratch
	viewCopied *obs.Counter

	// Failure registry. FailNode marks a node dead: active runs stop its
	// workers and reassign its incomplete tasks; runs started afterwards
	// never schedule onto it.
	runMu       sync.Mutex
	runs        map[*engineRun]struct{}
	failedNodes map[int]bool
	nodeDeaths  *obs.Counter
}

// NewSystem builds and starts a system.
func NewSystem(opts Options) (*System, error) {
	opts.fill()
	stores, err := storage.NewNetwork(opts.Nodes, func(node int, cfg *storage.Config) {
		cfg.MemoryBudget = opts.MemoryBudget
		cfg.IOWorkers = opts.IOWorkers
		cfg.Seed = opts.Seed + int64(node)
		cfg.Eviction = opts.Eviction
		cfg.Faults = opts.Faults
		cfg.Obs = opts.Obs
		cfg.Codec = opts.Codec
		cfg.Trace = opts.Trace
		cfg.Shard = opts.Shard
		if verifyInIOFilter(opts) {
			cfg.VerifyBlock = verifyStagedBlock
		}
		if opts.ScratchRoot != "" {
			cfg.ScratchDir = filepath.Join(opts.ScratchRoot, fmt.Sprintf("node%d", node))
		}
	})
	if err != nil {
		return nil, err
	}
	sys := &System{
		opts:        opts,
		stores:      stores,
		runs:        make(map[*engineRun]struct{}),
		failedNodes: make(map[int]bool),
	}
	sys.viewCopied = opts.Obs.Counter("dooc_kernel_view_copied_bytes_total", "matrix-section bytes a block view materialised (codec decode or realign copy) instead of aliasing the lease")
	sys.nodeDeaths = opts.Obs.Counter("dooc_engine_node_deaths_total", "compute nodes marked dead (FailNode), each once")
	return sys, nil
}

// verifyInIOFilter decides where the CRC of a block loaded from scratch runs.
// It runs in the I/O filter that read the block when the process has a
// processor its computing filters do not occupy, so that the check overlaps
// the multiply. Otherwise the computing filter runs it (ExecContext.Matrix),
// just before the kernel: on one processor the I/O filter's check would cost
// the same CPU, and the kernel would then find the block cold in cache
// instead of pulled in by the check. A variable so that tests can force
// either site.
var verifyInIOFilter = func(opts Options) bool {
	return runtime.GOMAXPROCS(0) > opts.Nodes*opts.WorkersPerNode
}

// verifyStagedBlock is the I/O filter's check of a block it installs: a block
// that carries the CRS magic is held to its trailer CRC, any other block (a
// vector, a basis chunk) is left alone.
func verifyStagedBlock(block []byte) (uint32, bool, error) {
	if !sparse.HasCRSMagic(block) {
		return 0, false, nil
	}
	crc, err := sparse.CheckCRSTrailer(block)
	return crc, err == nil, err
}

// takeScratch hands a starting worker a view scratch: one a finished worker
// left, grown to the blocks it viewed, or a new one.
func (s *System) takeScratch() *sparse.ViewScratch {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if n := len(s.scratches); n > 0 {
		v := s.scratches[n-1]
		s.scratches = s.scratches[:n-1]
		return v
	}
	return new(sparse.ViewScratch)
}

// putScratch takes an exiting worker's scratch back.
func (s *System) putScratch(v *sparse.ViewScratch) {
	s.scratchMu.Lock()
	s.scratches = append(s.scratches, v)
	s.scratchMu.Unlock()
}

// Nodes returns the cluster size.
func (s *System) Nodes() int { return s.opts.Nodes }

// ScratchRoot returns the system's scratch root directory ("" when
// out-of-core spill is disabled). Checkpoint-resumed jobs need one.
func (s *System) ScratchRoot() string { return s.opts.ScratchRoot }

// Store returns node i's storage filter.
func (s *System) Store(i int) *storage.Store { return s.stores[i] }

// FailNode simulates the death of a compute node: its workers stop picking
// tasks, its running tasks are re-executed on surviving nodes, and future
// runs never schedule onto it. The node's storage filter stays reachable —
// this models a crashed computing filter, not lost disks (the paper's
// storage filters are backed by the shared file system). Returns an error
// if node is out of range.
func (s *System) FailNode(node int) error {
	if node < 0 || node >= s.opts.Nodes {
		return fmt.Errorf("core: fail of invalid node %d", node)
	}
	s.runMu.Lock()
	if !s.failedNodes[node] {
		s.nodeDeaths.Inc()
	}
	s.failedNodes[node] = true
	active := make([]*engineRun, 0, len(s.runs))
	for r := range s.runs {
		active = append(active, r)
	}
	s.runMu.Unlock()
	for _, r := range active {
		r.mu.Lock()
		r.failNode(node)
		r.mu.Unlock()
		r.cond.Broadcast()
	}
	return nil
}

// Close shuts every node's storage filter down.
func (s *System) Close() {
	for _, st := range s.stores {
		st.Close()
	}
}

// Event is one entry of a run's execution log (real time, for Gantt-style
// inspection of actual runs).
type Event struct {
	Node  int
	Task  string
	Kind  string
	Start time.Time
	End   time.Time
}

// RunStats summarizes a Run. Events has one entry per task, but the stats
// of a run of several segments (RunIteratedSpMV) keep the first segment's
// only, so the log stays bounded whatever the run's length.
type RunStats struct {
	Wall          time.Duration
	TasksPerNode  []int
	Events        []Event
	StorageBefore []storage.Stats
	StorageAfter  []storage.Stats
	// TaskRetries counts task re-executions after executor failures.
	TaskRetries int
	// NodesFailed counts nodes that died (FailNode) during the run.
	NodesFailed int
}

// then returns r followed by next, the stats of the run's next segment:
// counts summed, events r's, and StorageAfter next's. NodesFailed is next's
// too: a segment counts again every node dead before it started.
func (r *RunStats) then(next *RunStats) *RunStats {
	if r == nil {
		return next
	}
	r.Wall += next.Wall
	for i, n := range next.TasksPerNode {
		r.TasksPerNode[i] += n
	}
	r.StorageAfter = next.StorageAfter
	r.TaskRetries += next.TaskRetries
	r.NodesFailed = next.NodesFailed
	return r
}

// storageDelta sums one storage counter's growth across nodes during the run.
func (r *RunStats) storageDelta(field func(*storage.Stats) int64) int64 {
	var n int64
	for i := range r.StorageAfter {
		n += field(&r.StorageAfter[i]) - field(&r.StorageBefore[i])
	}
	return n
}

// BytesReadDisk sums disk reads across nodes during the run.
func (r *RunStats) BytesReadDisk() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.BytesReadDisk })
}

// OverBudgetAllocs sums block allocations granted above a store's memory
// budget during the run: how often the budget did not bound.
func (r *RunStats) OverBudgetAllocs() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.OverBudgetAllocs })
}

// PeerBytes sums cross-node block fetches during the run.
func (r *RunStats) PeerBytes() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.BytesFetchedPeer })
}

// CacheHits sums read requests served from resident memory during the run.
func (r *RunStats) CacheHits() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.Hits })
}

// CacheMisses sums read requests that had to fetch during the run.
func (r *RunStats) CacheMisses() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.Misses })
}

// Evictions sums blocks reclaimed from memory during the run.
func (r *RunStats) Evictions() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.Evictions })
}

// PrefetchHits sums cache hits on prefetched blocks during the run.
func (r *RunStats) PrefetchHits() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.PrefetchHits })
}

// PrefetchLoads sums block fetches initiated by prefetch during the run.
func (r *RunStats) PrefetchLoads() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.PrefetchLoads })
}

// BlockLoads sums complete block installs (disk or peer) during the run.
func (r *RunStats) BlockLoads() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.BlockLoads })
}

// IORetries sums transient disk errors survived during the run.
func (r *RunStats) IORetries() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.IORetries })
}

// BytesWrittenDisk sums physical disk writes across nodes during the run
// (frame bytes when spills are compressed).
func (r *RunStats) BytesWrittenDisk() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.BytesWrittenDisk })
}

// CompressRawBytes sums logical block bytes fed to spill encoders during
// the run.
func (r *RunStats) CompressRawBytes() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.CompressRawBytes })
}

// CompressStoredBytes sums frame bytes written to scratch during the run.
func (r *RunStats) CompressStoredBytes() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.CompressStoredBytes })
}

// CompressBailouts sums blocks stored raw by the adaptive bail-out during
// the run.
func (r *RunStats) CompressBailouts() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.CompressBailouts })
}

// ShardPushes sums blocks pushed toward their cluster ring owners during
// the run.
func (r *RunStats) ShardPushes() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.ShardPushes })
}

// ShardFetches sums blocks installed from the cluster shard tier during
// the run.
func (r *RunStats) ShardFetches() int64 {
	return r.storageDelta(func(s *storage.Stats) int64 { return s.ShardFetches })
}
