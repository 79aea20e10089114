// Package storage implements DOoC's distributed data storage layer
// (Section III-B of the paper): immutable, block-structured one-dimensional
// arrays exposed to filters through block leases with read or write
// permission, with prefetching, reference-counted LRU memory reclamation,
// an out-of-core scratch directory serviced by asynchronous I/O filters,
// and a partitioned (non-replicated) global map with random-peer lookup.
//
// A block is the unit of every lease. It is unwritten, being written (one
// writer holds its write lease) or written; a read waits until the block is
// written and resident, and a second write is refused (ErrImmutable).
package storage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
	"dooc/internal/obs"
)

// Perm is the access permission of a lease.
type Perm int

const (
	// PermRead grants read access; the data is guaranteed resident until the
	// lease is released.
	PermRead Perm = iota + 1
	// PermWrite grants write access to a not-yet-written block; the data
	// becomes readable by others only after the lease is released.
	PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "read"
	case PermWrite:
		return "write"
	default:
		return fmt.Sprintf("Perm(%d)", int(p))
	}
}

// EvictionPolicy selects the reclamation victim order.
type EvictionPolicy int

const (
	// EvictLRU drops the least recently used safe block (the paper's
	// policy, and the default).
	EvictLRU EvictionPolicy = iota
	// EvictFIFO drops the earliest-loaded safe block.
	EvictFIFO
	// EvictMRU drops the most recently used safe block — the theoretical
	// optimum for cyclic scans larger than memory, used by the eviction
	// ablation to quantify how far back-and-forth reordering closes the
	// gap for plain LRU.
	EvictMRU
)

func (p EvictionPolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictFIFO:
		return "fifo"
	case EvictMRU:
		return "mru"
	default:
		return fmt.Sprintf("EvictionPolicy(%d)", int(p))
	}
}

// Config configures one node's local storage filter.
type Config struct {
	// NodeID is this store's index within its network.
	NodeID int
	// MemoryBudget is the soft cap on resident block bytes. Exceeding it
	// triggers reclamation of unpinned, disk- or remote-backed blocks.
	MemoryBudget int64
	// Eviction selects the reclamation victim order (default EvictLRU).
	Eviction EvictionPolicy
	// ScratchDir enables out-of-core operation: existing files are scanned
	// as arrays at startup and explicit flushes write arrays back.
	// Empty disables the out-of-core mode.
	ScratchDir string
	// IOWorkers is the number of asynchronous I/O filters (default 2;
	// the paper sizes this to the machine's I/O parallelism).
	IOWorkers int
	// Seed drives random peer probing deterministically in tests.
	Seed int64
	// IORetries is how many times a transient disk read/write failure is
	// retried before the error becomes terminal (default 2, so 3 attempts).
	IORetries int
	// IORetryBackoff is the first retry's delay; it doubles per attempt
	// (default 1ms).
	IORetryBackoff time.Duration
	// Faults, when non-nil, injects disk errors and stalls into the I/O
	// filters for recovery testing.
	Faults *faults.Injector
	// Codec, when non-nil, compresses blocks on scratch spill: flushed
	// arrays are written as self-describing frames, one slot of a `.seg`
	// file per block (with an adaptive raw bail-out for incompressible
	// blocks), and decompressed on load. Reading a slotted array does not
	// require Codec —
	// frames carry their own codec ID — so a store restarted without one
	// still recovers compressed arrays.
	Codec compress.Codec
	// Obs, when non-nil, receives this store's metric series (cache
	// hits/misses, eviction and load counters, lease-wait and I/O latency
	// histograms) under dooc_storage_* names with a node label.
	Obs *obs.Registry
	// Trace, when non-nil, records storage events into the shared Chrome
	// trace: load/spill spans on per-worker I/O lanes, lease-grant spans,
	// and eviction instants. Plain (non-causal) events on the node's pid.
	Trace *obs.Tracer
	// Shard, when non-nil, connects this store to the cross-process
	// cluster tier: fully written blocks are pushed toward their
	// consistent-hash owners in the background, durably pushed blocks
	// become evictable without a local disk spill, and a miss on a
	// shard-backed block is refetched over the ring before falling back
	// to the normal load path.
	Shard ShardBackend
	// VerifyBlock, when non-nil, runs in the I/O filter on every block it
	// reads from scratch to install, flat or slotted, right after the read
	// (and the frame's decode and CRC). checked reports that it recognised
	// the block and vouches for its bytes, crc the checksum that passed:
	// the residency remembers both until the block leaves memory, and its
	// leases report them (Lease.Verified, Lease.CRC). An error fails the read like a corrupt
	// frame — attributed, wrapping compress.ErrCorrupt, not retried.
	VerifyBlock func(block []byte) (crc uint32, checked bool, err error)
}

// ArrayInfo describes an array known to the storage layer.
type ArrayInfo struct {
	Name      string
	Size      int64
	BlockSize int64
}

// NumBlocks returns the number of blocks in the array.
func (a ArrayInfo) NumBlocks() int {
	if a.Size == 0 {
		return 0
	}
	return int((a.Size + a.BlockSize - 1) / a.BlockSize)
}

// span is a half-open byte range [Lo, Hi).
type span struct {
	Lo, Hi int64
}

// BlockSpan returns the global byte range of block idx.
func (a ArrayInfo) BlockSpan(idx int) span {
	lo := int64(idx) * a.BlockSize
	hi := lo + a.BlockSize
	if hi > a.Size {
		hi = a.Size
	}
	return span{lo, hi}
}

// hasBlock reports whether idx names a block of the array.
func (a ArrayInfo) hasBlock(idx int) bool { return idx >= 0 && idx < a.NumBlocks() }

// Lease is a granted access to one whole block. Release it exactly once.
// The Data slice aliases the block buffer and must not be used after
// release.
type Lease struct {
	store *Store
	Array string
	Block int
	Perm  Perm
	// Data is the block's bytes.
	Data []byte
	// Verified reports that this residency's bytes were checked, CRC the
	// checksum that passed: by the I/O filter that read the block from
	// scratch (Config.VerifyBlock) or by an earlier holder's Vouch. A
	// residency installed any other way — by a writer, from a peer or the
	// shard tier — and not vouched for since is not verified.
	// Vouched reports that a holder vouched for this array block's content
	// under checksum CRC, in this residency or an earlier one: it survives
	// eviction and dies with the array. When the residency is not verified,
	// CRC is the checksum the content was vouched for under.
	CRC      uint32
	Verified bool
	Vouched  bool

	released bool // shares CRC's word: a Lease stays in the 80-byte size class
	vouch    blockCheck
}

// Vouch records that the lease's bytes have checksum crc and valid content,
// for the store to remember when the lease is released (Lease.Verified,
// Lease.Vouched on later leases); until then the lease pins the residency
// it vouches for. A vouch on a write lease or on an abandoned lease changes
// nothing.
func (l *Lease) Vouch(crc uint32) { l.vouch = blockCheck{ok: true, crc: crc} }

// Release returns the lease to the store. For write leases this publishes
// the block: it becomes readable by other filters. Releasing twice panics,
// as it would corrupt reference counts.
func (l *Lease) Release() {
	if l.released {
		panic(fmt.Sprintf("storage: double release of %s lease on %s block %d", l.Perm, l.Array, l.Block))
	}
	l.released = true
	invalidateViews(l)
	c := relPool.Get().(*cmdRelease)
	c.lease = l
	l.store.post(c)
}

// Abandon returns the lease without publishing. For a write lease the
// block goes back to unwritten, holding no memory, and may be leased again —
// the recovery path for an executor that failed mid-write, since publishing
// a half-filled buffer would poison every downstream reader. For a read lease Abandon equals
// Release. Abandoning an already-released lease is a no-op, so cleanup code
// can abandon unconditionally.
func (l *Lease) Abandon() {
	if l.released {
		return
	}
	l.released = true
	invalidateViews(l)
	c := relPool.Get().(*cmdRelease)
	c.lease, c.abandon = l, true
	l.store.post(c)
}

// Released reports whether the lease has been released or abandoned.
func (l *Lease) Released() bool { return l.released }

// Stats are cumulative counters for one store.
type Stats struct {
	MemUsed           int64
	ReadRequests      int64 // read lease requests received
	WriteRequests     int64 // write lease requests received
	Hits              int64 // read requests served from resident memory
	Misses            int64 // read requests that had to fetch
	Evictions         int64
	QuotaEvictions    int64 // subset of Evictions forced by per-group quotas
	BlockLoads        int64 // complete blocks installed from disk or a peer
	BytesReadDisk     int64
	BytesWrittenDisk  int64
	BytesFetchedPeer  int64
	PeerProbes        int64 // random-peer probe messages sent
	PeerProbeMisses   int64 // probes answered "not here"
	OverBudgetAllocs  int64 // write grants and installs that left the store over its memory budget
	PrefetchIssued    int64
	PrefetchLoads     int64 // block fetches initiated by prefetch
	PrefetchHits      int64 // cache hits on blocks a prefetch brought in
	PrefetchDeferred  int64 // prefetched blocks not admitted: no room beside leased, in-flight, prefetched-unread and only-copy bytes
	ImplicitDiskReads int64
	IORetries         int64 // transient disk errors survived by the retry policy

	// Cluster shard-tier accounting (zero without Config.Shard).
	ShardPushes        int64 // blocks pushed toward their ring owners
	ShardDurablePushes int64 // pushes acked by enough remote peers to be durable
	ShardFetches       int64 // blocks installed from the shard tier
	ShardFallbacks     int64 // shard fetches that missed and fell back
	BytesPushedShard   int64
	BytesFetchedShard  int64

	// Compression accounting. BytesWrittenDisk/BytesReadDisk count physical
	// scratch traffic, so with a codec they shrink; the pairs below relate
	// physical frames to the logical block bytes they carry.
	CompressRawBytes      int64 // logical bytes fed to the encoder on spill
	CompressStoredBytes   int64 // frame bytes written to scratch
	CompressBailouts      int64 // blocks stored raw by the adaptive bail-out
	DecompressStoredBytes int64 // frame bytes read from scratch
	DecompressRawBytes    int64 // logical bytes produced by the decoder
}

// BlockRef names one block of an array: a candidate a scheduling pick asks
// Store.Resident about.
type BlockRef struct {
	Array string
	Block int
}

// Store is one node's storage filter: an actor goroutine owning all local
// state, a pool of asynchronous I/O filter goroutines, and links to peers.
type Store struct {
	cfg     Config
	inbox   *mailbox
	io      *ioPool
	rng     *rand.Rand
	metrics storeMetrics

	peers  []*Store    // includes self at cfg.NodeID
	drains *pushDrains // shard pushes in flight, shared with peers

	// Freelists owned by the loop goroutine (never touched elsewhere).
	// Unlike sync.Pool these survive GC, which matters because an iterative
	// solver cycles array generations at a steady rate: the structs retired
	// by iteration t are exactly what iteration t+1 needs.
	astFree   []*arrayState
	blockFree []*blockState
	dirFree   []*dirEntry
	victimBuf []victim

	// files are the scratch files this store's I/O filters hold open.
	files fileTable

	// left is what the closed loop left behind: the block buffers Close
	// returns to the arena, and those still leased. teardown writes it
	// before done closes.
	left struct {
		unleased [][]byte
		leased   map[blockKey]*leasedBuf
		mu       sync.Mutex // guards leased once done has closed
		once     sync.Once  // returns unleased, then closes stopped
		stopped  chan struct{}
	}

	done chan struct{}
}

// leasedBuf is a block's buffer still leased when its store closed, and how
// many leases are still out.
type leasedBuf struct {
	buf  []byte
	refs int
}

// sidecar is the JSON sidecar describing a flushed array's block structure.
// A non-empty Codec marks the slotted `.seg` layout; the value records the
// codec the flush was configured with (individual frames are
// self-describing and may differ via the adaptive bail-out).
type sidecar struct {
	Size      int64  `json:"size"`
	BlockSize int64  `json:"block_size"`
	Codec     string `json:"codec,omitempty"`
}

// NewNetwork creates n interconnected stores. The configure callback can
// customize each node's Config (its NodeID field is pre-set).
func NewNetwork(n int, configure func(node int, cfg *Config)) ([]*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("storage: need at least one store, got %d", n)
	}
	stores := make([]*Store, n)
	for i := range stores {
		cfg := Config{NodeID: i, MemoryBudget: 1 << 30, IOWorkers: 2, Seed: int64(i + 1)}
		if configure != nil {
			configure(i, &cfg)
		}
		cfg.NodeID = i
		s, err := newStore(cfg)
		if err != nil {
			for j := 0; j < i; j++ {
				stores[j].Close()
			}
			return nil, err
		}
		stores[i] = s
	}
	drains := newPushDrains()
	for _, s := range stores {
		s.peers = stores
		s.drains = drains
	}
	for _, s := range stores {
		s.start()
	}
	// Announce scanned on-disk arrays across the network so any node can
	// resolve them (the paper's startup scan records names and sizes).
	for _, s := range stores {
		s.announceScanned()
	}
	return stores, nil
}

// NewLocal creates a single-node store (the common library entry point).
func NewLocal(cfg Config) (*Store, error) {
	cfg.NodeID = 0
	s, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	s.peers = []*Store{s}
	s.drains = newPushDrains()
	s.start()
	s.announceScanned()
	return s, nil
}

func newStore(cfg Config) (*Store, error) {
	if cfg.MemoryBudget <= 0 {
		return nil, fmt.Errorf("storage: memory budget must be positive, got %d", cfg.MemoryBudget)
	}
	if cfg.IOWorkers <= 0 {
		cfg.IOWorkers = 2
	}
	if cfg.IORetries < 0 {
		cfg.IORetries = 0
	} else if cfg.IORetries == 0 {
		cfg.IORetries = 2
	}
	if cfg.IORetryBackoff <= 0 {
		cfg.IORetryBackoff = time.Millisecond
	}
	if cfg.ScratchDir != "" {
		if err := os.MkdirAll(cfg.ScratchDir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: scratch dir: %w", err)
		}
	}
	s := &Store{
		cfg:     cfg,
		inbox:   newMailbox(),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		metrics: newStoreMetrics(&cfg),
		done:    make(chan struct{}),
	}
	s.left.stopped = make(chan struct{})
	s.io = newIOPool(cfg.IOWorkers, s)
	return s, nil
}

// start launches the actor loop and I/O workers.
func (s *Store) start() {
	s.traceLanes()
	s.io.start()
	go s.loop()
}

// NodeID returns the store's node index.
func (s *Store) NodeID() int { return s.cfg.NodeID }

// scannedArray is one startup-scan discovery: the array shape plus whether
// its local layout is the slotted `.seg` file of frames.
type scannedArray struct {
	info       ArrayInfo
	compressed bool
}

// scanScratch enumerates pre-existing arrays in the scratch directory:
// plain `.arr` payload files, and `.seg` files of framed block slots (which
// require a sidecar, since the slot stride and the array's size are not in
// the file). Directories are not arrays: the `.blk` directories of
// per-block frame files older builds spilled are not read.
func (s *Store) scanScratch() ([]scannedArray, error) {
	if s.cfg.ScratchDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.cfg.ScratchDir)
	if err != nil {
		return nil, err
	}
	var found []scannedArray
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), segFileSuffix) {
			name := strings.TrimSuffix(e.Name(), segFileSuffix)
			sc, ok := s.readSidecar(name)
			if !ok || sc.Codec == "" {
				continue
			}
			found = append(found, scannedArray{
				info:       ArrayInfo{Name: name, Size: sc.Size, BlockSize: sc.BlockSize},
				compressed: true,
			})
			continue
		}
		if !strings.HasSuffix(e.Name(), arrayFileSuffix) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), arrayFileSuffix)
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		info := ArrayInfo{Name: name, Size: fi.Size(), BlockSize: fi.Size()}
		if info.Size == 0 {
			continue
		}
		// A sidecar refines the block structure.
		if sc, ok := s.readSidecar(name); ok {
			info.Size = sc.Size
			info.BlockSize = sc.BlockSize
		}
		found = append(found, scannedArray{info: info})
	}
	return found, nil
}

// readSidecar loads an array's sidecar if present and plausible.
func (s *Store) readSidecar(name string) (sidecar, bool) {
	raw, err := os.ReadFile(filepath.Join(s.cfg.ScratchDir, name+metaFileSuffix))
	if err != nil {
		return sidecar{}, false
	}
	var sc sidecar
	if err := json.Unmarshal(raw, &sc); err != nil || sc.Size <= 0 || sc.BlockSize <= 0 {
		return sidecar{}, false
	}
	return sc, true
}

// announceScanned registers this node's on-disk arrays with every store.
func (s *Store) announceScanned() {
	scanned, err := s.scanScratch()
	if err != nil {
		// Scan failures surface on first access attempt; the scratch dir was
		// already validated at construction.
		return
	}
	for _, sa := range scanned {
		for _, p := range s.peers {
			p.post(msgAnnounce{info: sa.info, diskNode: s.cfg.NodeID, compressed: sa.compressed})
		}
	}
}

// homeOf returns the node owning the directory entry for (array, block):
// the partitioned global map of the paper. The hash is FNV-1a over
// "<array>/<block>", computed inline — this runs for every lease request
// and directory update, where hash.Hash's allocation is measurable.
func (s *Store) homeOf(array string, block int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(array); i++ {
		h = (h ^ uint32(array[i])) * prime32
	}
	h = (h ^ uint32('/')) * prime32
	var digits [20]byte
	ds := strconv.AppendInt(digits[:0], int64(block), 10)
	for _, c := range ds {
		h = (h ^ uint32(c)) * prime32
	}
	return int(h % uint32(len(s.peers)))
}

// post delivers m to the store's loop. A message the loop will never see,
// because the store has closed, gives back the arena buffers it owns and
// answers whoever waits on it, so no call on a closed store blocks.
func (s *Store) post(m any) {
	if !s.inbox.put(m) {
		s.dropped(m)
	}
}

// dropped disposes of a message posted after the store closed.
func (s *Store) dropped(m any) {
	switch m := m.(type) {
	case *msgQueryReply:
		sharedArena.Put(m.data)
	case shardDone:
		sharedArena.Put(m.data)
	case *ioJob:
		switch m.kind {
		case ioInstall:
			sharedArena.Put(m.data)
		case ioCopyOut:
			// Nobody else will answer the reader.
			m.reply <- leaseResult{err: ErrClosed}
		}
	case *cmdRelease:
		s.releaseClosed(m.lease)
	case *cmdResident:
		clear(m.out) // a closed store holds nothing
		m.done <- struct{}{}
	case *cmdRequest:
		m.reply <- leaseResult{err: ErrClosed}
	case *msgCreateArr:
		m.ack <- ErrClosed
	case *msgDeleteArr:
		m.ack <- ErrClosed
	case cmdFlush:
		m.reply <- ErrClosed
	case cmdEvict:
		m.reply <- ErrClosed
	case cmdInfo:
		m.reply <- infoResult{err: ErrClosed}
	case cmdStats:
		m.reply <- Stats{}
	case cmdSetQuota:
		m.ack <- struct{}{}
	case cmdClearQuota:
		m.ack <- struct{}{}
	case cmdQuotaStats:
		m.reply <- quotaResult{}
	}
}

// releaseClosed is the release of a lease the loop did not see before it
// closed: the last one out gives the block's buffer back, once Close has
// returned the rest.
func (s *Store) releaseClosed(l *Lease) {
	<-s.left.stopped
	k := blockKey{l.Array, l.Block}
	s.left.mu.Lock()
	defer s.left.mu.Unlock()
	h := s.left.leased[k]
	if h == nil {
		return
	}
	if h.refs--; h.refs == 0 {
		sharedArena.Put(h.buf)
		delete(s.left.leased, k)
	}
}
