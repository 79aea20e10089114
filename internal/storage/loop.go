package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"dooc/internal/compress"
)

// ErrClosed is returned for requests outstanding when the store shuts down.
var ErrClosed = errors.New("storage: store closed")

// ---- message types ----

type leaseResult struct {
	lease *Lease
	err   error
}

type cmdRequest struct {
	array  string
	lo, hi int64
	// byBlock requests the whole block by index instead of a byte interval;
	// the loop resolves the span from the array's metadata, saving the
	// client an Info round-trip per block request.
	block   int
	byBlock bool
	perm    Perm
	reply   chan leaseResult
	// dst, on a whole-block read, asks for a copy-out instead of a lease:
	// the block's bytes land in dst and the reply carries no lease — unless
	// the loop can only get them through one, which the client then copies
	// out of and releases.
	dst []byte
}

type cmdRelease struct {
	lease *Lease
	// abandon skips publication of a write lease: the interval reverts to
	// unwritten instead of becoming readable.
	abandon bool
}

// Request and release dominate steady-state message traffic; pooling the
// command structs (posted as pointers) and the one-shot reply channels keeps
// the hot path free of per-call allocation. A command struct returns to its
// pool as soon as its handler finishes (the handler retains at most the
// reply channel, never the struct); a reply channel returns once its single
// reply has been received.
var (
	reqPool        = sync.Pool{New: func() any { return new(cmdRequest) }}
	relPool        = sync.Pool{New: func() any { return new(cmdRelease) }}
	leaseReplyPool = sync.Pool{New: func() any { return make(chan leaseResult, 1) }}
	createPool     = sync.Pool{New: func() any { return new(msgCreateArr) }}
	deletePool     = sync.Pool{New: func() any { return new(msgDeleteArr) }}
	prefetchPool   = sync.Pool{New: func() any { return new(cmdPrefetch) }}
)

type cmdPrefetch struct {
	array   string
	lo, hi  int64
	block   int
	byBlock bool
}

type cmdFlush struct {
	array string
	reply chan error
}

type cmdMap struct{ reply chan ResidencyMap }

type cmdStats struct{ reply chan Stats }

type infoResult struct {
	info ArrayInfo
	err  error
}

type cmdInfo struct {
	array string
	reply chan infoResult
}

type cmdEvict struct {
	array string
	block int
	reply chan error
}

// msgCreateArr registers array metadata (broadcast by Create).
type msgCreateArr struct {
	info ArrayInfo
	ack  chan error
}

// msgDeleteArr removes an array everywhere (broadcast by Delete).
type msgDeleteArr struct {
	name string
	ack  chan error
}

// msgAnnounce registers a pre-existing on-disk array found by the startup
// scan of diskNode's scratch directory. compressed marks the per-block
// frame layout (meaningful only on diskNode itself, which is the node that
// reads those files).
type msgAnnounce struct {
	info       ArrayInfo
	diskNode   int
	compressed bool
}

type queryKind int

const (
	// queryProbe is the random-peer probe: "do you happen to hold this?"
	queryProbe queryKind = iota
	// queryHome asks the block's directory owner where the block lives.
	queryHome
	// queryFetch asks a specific node believed to hold the block.
	queryFetch
)

// msgQuery travels between stores to locate and fetch blocks.
type msgQuery struct {
	array string
	block int
	from  int
	kind  queryKind
}

type replyOutcome int

const (
	replyData replyOutcome = iota
	replyMiss
	replyRedirect
)

// msgQueryReply answers a msgQuery.
type msgQueryReply struct {
	array   string
	block   int
	from    int
	kind    queryKind // the kind of the query being answered
	outcome replyOutcome
	data    []byte
	holder  int // for replyRedirect
}

// msgNotify updates the block's home directory: node now holds (or no
// longer holds) the block; onDisk distinguishes a durable copy — on the
// node's scratch, or one it pushed durably to the shard tier and will fetch
// back for whoever asks.
type msgNotify struct {
	array  string
	block  int
	node   int
	onDisk bool
	gone   bool
}

// codecStats carries one I/O filter's compression accounting back to the
// actor loop: the logical (raw) and physical (frame) byte counts and the
// codec the frame actually used (which differs from the configured codec
// when the adaptive encoder bailed out to raw).
type codecStats struct {
	framed      bool
	codecID     uint8
	rawBytes    int64
	storedBytes int64
	bailout     bool
}

// ---- in-loop state ----

type readWaiter struct {
	lo, hi int64
	reply  chan leaseResult
}

type blockState struct {
	buf []byte
	// written is the immutability record: every byte range ever written.
	// It never shrinks while the array exists — in particular it survives
	// eviction, so a rewrite of evicted-but-durable data is still rejected.
	written intervalSet
	// resident is the coverage of buf: which ranges currently hold valid
	// data in memory. Equal to written until an eviction clears it; a
	// refetch restores it to full.
	resident       intervalSet
	writing        []span
	refcnt         int
	persistedLocal bool
	remoteBacked   bool
	fetching       bool // disk read or directed fetch in flight
	copying        int  // copy-out reads of the block's scratch copy in flight
	probing        bool // random-peer probe in flight
	flushing       bool
	// prefetched marks a block a prefetch is bringing in or has brought in
	// and nobody has read yet. The first lease granted on the block clears
	// it, whichever path grants it; it is a prefetch hit only when the block
	// was already resident when that request arrived.
	prefetched bool
	// reserved caches whether the block's bytes are counted in
	// loopState.reserved (see reserve).
	reserved bool
	// Shard-tier state: shardBacked+shardDurable mark a block whose bytes
	// enough remote cluster peers acknowledged to survive any single peer
	// death — such a block is evictable without a local disk spill and is
	// refetched over the ring first. shardPushing guards one background
	// push at a time.
	shardBacked  bool
	shardDurable bool
	shardPushing bool
	waiters      []readWaiter
	lastUse      int64
	loadTick     int64 // when buf was (re)allocated, for FIFO eviction
}

type arrayState struct {
	info      ArrayInfo
	blocks    map[int]*blockState
	diskNodes map[int]bool // nodes holding the full array on disk
	// readable lists, ascending, the blocks a residency snapshot reports:
	// those whose buffer holds the whole block; it starts out in first, which
	// is all a one-block array ever needs. slot is the array's place in
	// loopState.readable while the list is not empty.
	readable []int
	first    [1]int
	slot     int
	// localCompressed marks this node's durable copy as the slotted frame
	// layout (set by a codec flush or the startup scan); it selects the
	// framed read path and keeps an array's layout consistent across
	// flushes.
	localCompressed bool
	// file is the array's scratch file on this node, from its first scratch
	// I/O on (fileOf).
	file *arrayFile
	// quota is the resource group this array belongs to (longest matching
	// name prefix), nil when unquota'd. scratchBytes is the durable scratch
	// attribution carried to the group's ScratchUsed.
	quota        *quotaState
	scratchBytes int64
	// sidecar is what this store last wrote to the array's sidecar file; a
	// flush that would write the same again (every flush of an array but
	// its first) writes nothing.
	sidecar sidecar
}

type blockKey struct {
	array string
	block int
}

// dirEntry is the home node's directory record for one block.
type dirEntry struct {
	mem     map[int]bool
	disk    map[int]bool
	pending []int // requester nodes awaiting any holder
}

type flushState struct {
	pending int
	err     error
	reply   chan error
}

type loopState struct {
	arrays  map[string]*arrayState
	dir     map[blockKey]*dirEntry
	flushes map[string]*flushState
	quotas  map[string]*quotaState // keyed by array-name prefix
	stats   Stats
	tick    int64
	// resident is the sum of len(buf) over every block, kept by setBuf.
	resident int64
	// reserved is the sum of the full sizes of the blocks whose bytes a
	// prefetch may not claim, kept by reserve.
	reserved int64
	// readable holds, in no order, the arrays whose readable list is not empty.
	readable []*arrayState
}

// setBuf is the one place a block's buffer changes hands, so that
// st.resident — and the gauge that publishes it — always equals the bytes
// held.
func (s *Store) setBuf(st *loopState, ast *arrayState, bi int, b *blockState, buf []byte) {
	st.resident += int64(len(buf)) - int64(len(b.buf))
	b.buf = buf
	s.metrics.memUsed.Set(st.resident)
	st.markReadable(ast, bi, b)
}

// markReadable re-derives whether block bi belongs on its array's readable
// list — it has a buffer and the buffer holds all of it — and keeps the list,
// and the array's place in st.readable, in step: a residency snapshot then
// visits the resident blocks and nothing else. Call after any change to buf
// or resident.
func (st *loopState) markReadable(ast *arrayState, bi int, b *blockState) {
	bs := ast.info.BlockSpan(bi)
	want := b.buf != nil && b.resident.full(bs.Hi-bs.Lo)
	at, listed := slices.BinarySearch(ast.readable, bi)
	switch {
	case want == listed:
	case want:
		if ast.readable == nil {
			ast.readable = ast.first[:0]
		}
		if len(ast.readable) == 0 {
			ast.slot = len(st.readable)
			st.readable = append(st.readable, ast)
		}
		ast.readable = slices.Insert(ast.readable, at, bi)
	default:
		ast.readable = slices.Delete(ast.readable, at, at+1)
		if len(ast.readable) == 0 {
			last := st.readable[len(st.readable)-1]
			st.readable[ast.slot], last.slot = last, ast.slot
			st.readable = st.readable[:len(st.readable)-1]
		}
	}
}

// reserve re-derives whether block bi's bytes are spoken for: under a lease
// (a writer holds one too), on their way in a fetch, or prefetched and not
// yet read. st.reserved sums the full size of every such block; a prefetch
// is admitted only if its block fits in the memory budget beside that sum,
// because reclamation could make room for it only by evicting one of them or
// not at all. Call after any change to refcnt, fetching, probing or
// prefetched.
func (st *loopState) reserve(info ArrayInfo, bi int, b *blockState) {
	want := b.refcnt > 0 || b.fetching || b.probing || b.prefetched
	if want == b.reserved {
		return
	}
	b.reserved = want
	if bs := info.BlockSpan(bi); want {
		st.reserved += bs.Hi - bs.Lo
	} else {
		st.reserved -= bs.Hi - bs.Lo
	}
}

func newLoopState() *loopState {
	return &loopState{
		arrays:  make(map[string]*arrayState),
		dir:     make(map[blockKey]*dirEntry),
		flushes: make(map[string]*flushState),
		quotas:  make(map[string]*quotaState),
	}
}

// loop is the store's actor: it owns all state and processes messages one
// at a time. No other goroutine touches loopState.
func (s *Store) loop() {
	st := newLoopState()
	defer close(s.done)
	for {
		m, ok := s.inbox.get()
		if !ok {
			s.teardown(st)
			return
		}
		s.dispatch(st, m)
	}
}

// dispatch handles one message.
func (s *Store) dispatch(st *loopState, m any) {
	switch m := m.(type) {
	case *cmdRequest:
		s.handleRequest(st, m)
		*m = cmdRequest{}
		reqPool.Put(m)
	case *cmdRelease:
		s.handleRelease(st, m)
		*m = cmdRelease{}
		relPool.Put(m)
	case *cmdPrefetch:
		s.handlePrefetch(st, m)
		*m = cmdPrefetch{}
		prefetchPool.Put(m)
	case cmdFlush:
		s.handleFlush(st, m)
	case cmdMap:
		m.reply <- s.buildMap(st)
	case cmdInfo:
		if ast, ok := st.arrays[m.array]; ok {
			m.reply <- infoResult{info: ast.info}
		} else {
			m.reply <- infoResult{err: fmt.Errorf("storage: unknown array %q", m.array)}
		}
	case cmdEvict:
		m.reply <- s.handleEvict(st, m)
	case cmdStats:
		st.stats.MemUsed = st.resident
		m.reply <- st.stats
	case *msgCreateArr:
		m.ack <- s.handleCreate(st, m.info)
		*m = msgCreateArr{}
		createPool.Put(m)
	case *msgDeleteArr:
		m.ack <- s.handleDelete(st, m.name)
		*m = msgDeleteArr{}
		deletePool.Put(m)
	case msgAnnounce:
		s.handleAnnounce(st, m)
	case *msgQuery:
		s.handleQuery(st, *m)
		*m = msgQuery{}
		queryPool.Put(m)
	case *msgQueryReply:
		s.handleQueryReply(st, *m)
		*m = msgQueryReply{}
		queryReplyPool.Put(m)
	case msgNotify:
		s.handleNotify(st, m)
	case *ioJob:
		switch m.kind {
		case ioInstall:
			s.handleIODone(st, m)
		case ioCopyOut:
			s.handleCopied(st, m)
		case ioSpill:
			s.handleIOWrote(st, m)
		}
		*m = ioJob{}
		ioJobPool.Put(m)
	case shardDone:
		s.handleShardDone(st, m)
	case shardPushed:
		s.handleShardPushed(st, m)
	case cmdSetQuota:
		s.handleSetQuota(st, m)
	case cmdClearQuota:
		s.handleClearQuota(st, m)
	case cmdQuotaStats:
		s.handleQuotaStats(st, m)
	default:
		panic(fmt.Sprintf("storage: unknown message %T", m))
	}
}

// teardown fails outstanding waiters when the store closes, and hands the
// block buffers to Close: an unleased one goes back to the arena once the
// I/O filters have stopped, a leased one with its last lease.
func (s *Store) teardown(st *loopState) {
	for _, ast := range st.arrays {
		for bi, b := range ast.blocks {
			for _, w := range b.waiters {
				w.reply <- leaseResult{err: ErrClosed}
			}
			b.waiters = nil
			switch {
			case b.refcnt > 0:
				if s.left.leased == nil {
					s.left.leased = make(map[blockKey]*leasedBuf)
				}
				s.left.leased[blockKey{ast.info.Name, bi}] = &leasedBuf{buf: b.buf, refs: b.refcnt}
			case b.buf != nil:
				s.left.unleased = append(s.left.unleased, b.buf)
			}
		}
	}
	for _, f := range st.flushes {
		if f.reply != nil {
			f.reply <- ErrClosed
		}
	}
}

func (s *Store) getBlock(ast *arrayState, idx int) *blockState {
	b, ok := ast.blocks[idx]
	if !ok {
		b = s.newBlockState()
		ast.blocks[idx] = b
	}
	return b
}

// The freelist helpers below run only on the loop goroutine, which owns the
// lists exclusively.

func (s *Store) newBlockState() *blockState {
	if n := len(s.blockFree); n > 0 {
		b := s.blockFree[n-1]
		s.blockFree[n-1] = nil
		s.blockFree = s.blockFree[:n-1]
		return b
	}
	return &blockState{}
}

// recycleBlockState returns b to the freelist. Caller guarantees nothing
// aliases it any more: no leases, no in-flight I/O, no waiters, buf already
// recycled.
func (s *Store) recycleBlockState(b *blockState) {
	clear(b.waiters)
	*b = blockState{
		written:  intervalSet{spans: b.written.spans[:0]},
		resident: intervalSet{spans: b.resident.spans[:0]},
		writing:  b.writing[:0],
		waiters:  b.waiters[:0],
	}
	s.blockFree = append(s.blockFree, b)
}

func (s *Store) newArrayState(info ArrayInfo, q *quotaState) *arrayState {
	if n := len(s.astFree); n > 0 {
		ast := s.astFree[n-1]
		s.astFree[n-1] = nil
		s.astFree = s.astFree[:n-1]
		clear(ast.blocks)
		clear(ast.diskNodes)
		*ast = arrayState{info: info, blocks: ast.blocks, diskNodes: ast.diskNodes, quota: q, readable: ast.readable[:0]}
		return ast
	}
	return &arrayState{
		info:      info,
		blocks:    make(map[int]*blockState),
		diskNodes: make(map[int]bool),
		quota:     q,
	}
}

func (s *Store) newDirEntry() *dirEntry {
	if n := len(s.dirFree); n > 0 {
		de := s.dirFree[n-1]
		s.dirFree[n-1] = nil
		s.dirFree = s.dirFree[:n-1]
		clear(de.mem)
		clear(de.disk)
		de.pending = de.pending[:0]
		return de
	}
	return &dirEntry{mem: make(map[int]bool), disk: make(map[int]bool)}
}

// ---- array lifecycle ----

func (s *Store) handleCreate(st *loopState, info ArrayInfo) error {
	if info.Name == "" || info.Size <= 0 || info.BlockSize <= 0 {
		return fmt.Errorf("storage: invalid array %q size=%d blockSize=%d", info.Name, info.Size, info.BlockSize)
	}
	if _, dup := st.arrays[info.Name]; dup {
		return fmt.Errorf("storage: array %q already exists", info.Name)
	}
	st.arrays[info.Name] = s.newArrayState(info, quotaFor(st, info.Name))
	return nil
}

func (s *Store) handleDelete(st *loopState, name string) error {
	ast, ok := st.arrays[name]
	if !ok {
		return fmt.Errorf("storage: array %q does not exist", name)
	}
	for idx, b := range ast.blocks {
		if b.refcnt > 0 {
			return fmt.Errorf("storage: array %q block %d still leased", name, idx)
		}
		if b.fetching || b.flushing || b.copying > 0 {
			return fmt.Errorf("storage: array %q block %d has I/O in flight", name, idx)
		}
	}
	// Fail any read waiters (data will never arrive).
	for _, b := range ast.blocks {
		for _, w := range b.waiters {
			w.reply <- leaseResult{err: fmt.Errorf("storage: array %q deleted", name)}
		}
	}
	if ast.quota != nil {
		// The array's durable scratch goes away with it; return the bytes
		// to the group's scratch budget.
		ast.quota.scratchUsed -= ast.scratchBytes
	}
	// Recycle the blocks' buffers and state: the preconditions above
	// guarantee nothing aliases them.
	for idx, b := range ast.blocks {
		sharedArena.Put(b.buf)
		s.setBuf(st, ast, idx, b, nil)
		// No lease and no disk fetch, checked above; a probe's reply will
		// find no array and an unread prefetch has nothing left to read.
		b.probing, b.prefetched = false, false
		st.reserve(ast.info, idx, b)
		s.recycleBlockState(b)
	}
	delete(st.arrays, name)
	// Directory entries are keyed per block; delete by key instead of
	// scanning the whole directory.
	for idx := 0; idx < ast.info.NumBlocks(); idx++ {
		k := blockKey{name, idx}
		if de, ok := st.dir[k]; ok {
			delete(st.dir, k)
			s.dirFree = append(s.dirFree, de)
		}
	}
	// Only an array with durable local state has files to clean up. The
	// common ephemeral case (a transient vector generation that lived and
	// died in memory) skips the file system entirely — on the hot path the
	// stat/remove pair per deleted array costs more than the delete itself.
	// An open file is closed first; the checks above mean no I/O holds it.
	if ast.file != nil {
		s.files.close(ast.file)
	}
	if s.cfg.ScratchDir != "" &&
		(ast.scratchBytes > 0 || ast.localCompressed || ast.diskNodes[s.cfg.NodeID] || anyPersisted(ast)) {
		os.Remove(scratchPath(s.cfg.ScratchDir, name, ast.localCompressed))
		os.Remove(s.metaPath(name))
	}
	s.astFree = append(s.astFree, ast)
	return nil
}

func (s *Store) handleAnnounce(st *loopState, m msgAnnounce) {
	ast, ok := st.arrays[m.info.Name]
	if !ok {
		ast = &arrayState{
			info:      m.info,
			blocks:    make(map[int]*blockState),
			diskNodes: make(map[int]bool),
			quota:     quotaFor(st, m.info.Name),
		}
		st.arrays[m.info.Name] = ast
	}
	ast.diskNodes[m.diskNode] = true
	if m.compressed && m.diskNode == s.cfg.NodeID {
		ast.localCompressed = true
	}
	// Register the disk copy in the directory entries this node owns.
	for idx := 0; idx < m.info.NumBlocks(); idx++ {
		if s.homeOf(m.info.Name, idx) == s.cfg.NodeID {
			de := s.dirOf(st, blockKey{m.info.Name, idx})
			de.disk[m.diskNode] = true
			s.wakePending(st, blockKey{m.info.Name, idx}, de)
		}
	}
}

func (s *Store) dirOf(st *loopState, k blockKey) *dirEntry {
	de, ok := st.dir[k]
	if !ok {
		de = s.newDirEntry()
		st.dir[k] = de
	}
	return de
}

// ---- leases ----

func (s *Store) handleRequest(st *loopState, c *cmdRequest) {
	if c.perm == PermWrite {
		st.stats.WriteRequests++
		s.metrics.writeReqs.Inc()
	} else {
		st.stats.ReadRequests++
		s.metrics.readReqs.Inc()
	}
	ast, ok := st.arrays[c.array]
	if !ok {
		c.reply <- leaseResult{err: fmt.Errorf("storage: unknown array %q", c.array)}
		return
	}
	if c.byBlock {
		bs := ast.info.BlockSpan(c.block)
		if bs.empty() {
			c.reply <- leaseResult{err: fmt.Errorf("storage: block %d out of array %q", c.block, c.array)}
			return
		}
		c.lo, c.hi = bs.Lo, bs.Hi
	}
	if c.lo < 0 || c.hi > ast.info.Size || c.lo >= c.hi {
		c.reply <- leaseResult{err: fmt.Errorf("storage: interval [%d,%d) out of array %q size %d", c.lo, c.hi, c.array, ast.info.Size)}
		return
	}
	bi := ast.info.BlockOf(c.lo)
	if ast.info.BlockOf(c.hi-1) != bi {
		c.reply <- leaseResult{err: fmt.Errorf("storage: interval [%d,%d) spans blocks (block size %d); use one interval per block", c.lo, c.hi, ast.info.BlockSize)}
		return
	}
	b := s.getBlock(ast, bi)
	want := span{c.lo, c.hi}
	switch c.perm {
	case PermWrite:
		s.grantWrite(st, ast, bi, b, want, c.reply)
	case PermRead:
		if c.dst != nil && int64(len(c.dst)) != c.hi-c.lo {
			c.reply <- leaseResult{err: fmt.Errorf("storage: copy of %q block %d (%d bytes) into %d bytes", c.array, bi, c.hi-c.lo, len(c.dst))}
			return
		}
		if b.buf != nil && b.resident.covers(relSpan(ast.info, bi, want)) {
			st.stats.Hits++
			s.metrics.hits.Inc()
			if b.prefetched {
				st.stats.PrefetchHits++
				s.metrics.prefetchHits.Inc()
			}
			if c.dst != nil {
				s.copyResident(st, ast, bi, b, c.dst)
				c.reply <- leaseResult{}
				return
			}
			c.reply <- leaseResult{lease: s.makeLease(st, c.array, bi, ast, b, want, PermRead)}
			return
		}
		st.stats.Misses++
		s.metrics.misses.Inc()
		if c.dst != nil && s.copyOutDurable(st, ast, bi, b, c.dst, c.reply) {
			return
		}
		b.waiters = append(b.waiters, readWaiter{lo: c.lo, hi: c.hi, reply: c.reply})
		s.ensureBlockData(st, ast, bi, b)
	default:
		c.reply <- leaseResult{err: fmt.Errorf("storage: invalid permission %v", c.perm)}
	}
}

// copyResident is a copy-out of a resident block: the bytes are copied under
// the loop, and the read counts as a use of the block, as a lease would.
func (s *Store) copyResident(st *loopState, ast *arrayState, bi int, b *blockState, dst []byte) {
	copy(dst, b.buf)
	b.prefetched = false
	st.reserve(ast.info, bi, b)
	st.tick++
	b.lastUse = st.tick
}

// copyOutDurable starts a copy-out of block bi from this node's scratch, if
// that is where its bytes are and no fetch of them is under way (a reader
// then waits for that fetch like any other). An I/O filter reads the block
// straight into dst: no buffer, no install, no eviction, no directory
// update. The reply goes out when the loop sees the read land.
func (s *Store) copyOutDurable(st *loopState, ast *arrayState, bi int, b *blockState, dst []byte, reply chan leaseResult) bool {
	if s.cfg.ScratchDir == "" || b.fetching || b.probing || len(b.writing) > 0 ||
		!(b.persistedLocal || ast.diskNodes[s.cfg.NodeID]) {
		return false
	}
	b.copying++
	st.stats.ImplicitDiskReads++
	j := s.newIOJob(ioCopyOut, ast, bi)
	j.data, j.reply = dst, reply
	s.io.submit(j)
	return true
}

// fileOf returns array ast's scratch file on this node, creating the entry
// on first use. The layout is settled by then: a read needs a durable copy,
// and a flush decides the layout before its first write.
func (s *Store) fileOf(ast *arrayState) *arrayFile {
	if ast.file == nil {
		ast.file = newArrayFile(s.cfg.ScratchDir, ast.info.Name, ast.localCompressed, !ast.diskNodes[s.cfg.NodeID])
	}
	return ast.file
}

// newIOJob is a pooled job for block bi of ast's scratch file.
func (s *Store) newIOJob(kind ioKind, ast *arrayState, bi int) *ioJob {
	f := s.fileOf(ast)
	bs := ast.info.BlockSpan(bi)
	off := bs.Lo
	if f.slotted {
		off = slotOffset(ast.info, bi)
	}
	j := ioJobPool.Get().(*ioJob)
	*j = ioJob{kind: kind, array: ast.info.Name, block: bi, file: f, off: off, length: bs.Hi - bs.Lo}
	return j
}

// relSpan converts a global interval to block-relative coordinates.
func relSpan(info ArrayInfo, bi int, gs span) span {
	base := info.BlockSpan(bi).Lo
	return span{gs.Lo - base, gs.Hi - base}
}

func (s *Store) grantWrite(st *loopState, ast *arrayState, bi int, b *blockState, want span, reply chan leaseResult) {
	rs := relSpan(ast.info, bi, want)
	if b.written.covers(rs) || b.overlapsAny(rs) {
		reply <- leaseResult{err: fmt.Errorf("storage: immutable violation: %q[%d,%d) already written or being written", ast.info.Name, want.Lo, want.Hi)}
		return
	}
	// Also reject partial overlap with written spans.
	for _, w := range b.written.spans {
		if w.overlaps(rs) {
			reply <- leaseResult{err: fmt.Errorf("storage: immutable violation: %q[%d,%d) overlaps written data", ast.info.Name, want.Lo, want.Hi)}
			return
		}
	}
	if b.buf == nil {
		bs := ast.info.BlockSpan(bi)
		s.setBuf(st, ast, bi, b, sharedArena.Get(int(bs.Hi-bs.Lo)))
		// Recycled buffers carry stale bytes; a fresh write block must start
		// from zeroes (the abandon path and partial writers rely on it).
		clear(b.buf)
		st.tick++
		b.loadTick = st.tick
		s.reclaim(st, ast.info.Name, bi)
		s.reclaimQuota(st, ast.quota, ast.info.Name, bi)
	}
	b.writing = append(b.writing, rs)
	reply <- leaseResult{lease: s.makeLease(st, ast.info.Name, bi, ast, b, want, PermWrite)}
}

func (b *blockState) overlapsAny(rs span) bool {
	for _, w := range b.writing {
		if w.overlaps(rs) {
			return true
		}
	}
	return false
}

func (s *Store) makeLease(st *loopState, array string, bi int, ast *arrayState, b *blockState, want span, perm Perm) *Lease {
	rs := relSpan(ast.info, bi, want)
	b.refcnt++
	b.prefetched = false // the first lease on the block spends the prefetch
	st.reserve(ast.info, bi, b)
	st.tick++
	b.lastUse = st.tick
	return &Lease{
		store: s,
		Array: array,
		Perm:  perm,
		Lo:    want.Lo,
		Hi:    want.Hi,
		Data:  b.buf[rs.Lo:rs.Hi],
		Gen:   b.loadTick,
		block: bi,
	}
}

func (s *Store) handleRelease(st *loopState, c *cmdRelease) {
	l := c.lease
	ast, ok := st.arrays[l.Array]
	if !ok {
		return // array deleted with lease outstanding; nothing to update
	}
	b, ok := ast.blocks[l.block]
	if !ok {
		return
	}
	b.refcnt--
	st.reserve(ast.info, l.block, b)
	st.tick++
	b.lastUse = st.tick
	if l.Perm == PermWrite {
		rs := relSpan(ast.info, l.block, span{l.Lo, l.Hi})
		for i, w := range b.writing {
			if w == rs {
				b.writing = append(b.writing[:i], b.writing[i+1:]...)
				break
			}
		}
		if c.abandon {
			// The writer failed before filling the interval: leave it
			// unwritten so a re-executed task can lease it again. Clear the
			// buffer bytes — the next writer starts from zeroes, and waiters
			// keep blocking until a successful write publishes.
			for i := rs.Lo; i < rs.Hi; i++ {
				b.buf[i] = 0
			}
			s.reclaim(st, "", -1)
			return
		}
		if err := b.written.add(rs); err != nil {
			// Cannot happen: the span was validated at grant time.
			panic(fmt.Sprintf("storage: release bookkeeping: %v", err))
		}
		if err := b.resident.add(rs); err != nil {
			panic(fmt.Sprintf("storage: residency bookkeeping: %v", err))
		}
		st.markReadable(ast, l.block, b)
		s.wakeWaiters(st, ast, l.block, b)
		bs := ast.info.BlockSpan(l.block)
		if b.resident.full(bs.Hi-bs.Lo) && s.homeOf(l.Array, l.block) != s.cfg.NodeID {
			s.peers[s.homeOf(l.Array, l.block)].post(msgNotify{array: l.Array, block: l.block, node: s.cfg.NodeID})
		} else if b.resident.full(bs.Hi - bs.Lo) {
			de := s.dirOf(st, blockKey{l.Array, l.block})
			de.mem[s.cfg.NodeID] = true
			s.wakePending(st, blockKey{l.Array, l.block}, de)
		}
		s.maybeShardPush(st, ast, l.block, b)
	}
	s.reclaim(st, "", -1)
	s.reclaimQuota(st, ast.quota, "", -1)
}

// wakeWaiters grants read waiters whose intervals are now covered.
func (s *Store) wakeWaiters(st *loopState, ast *arrayState, bi int, b *blockState) {
	if b.buf == nil {
		return
	}
	var rest []readWaiter
	for _, w := range b.waiters {
		ws := span{w.lo, w.hi}
		if b.resident.covers(relSpan(ast.info, bi, ws)) {
			w.reply <- leaseResult{lease: s.makeLease(st, ast.info.Name, bi, ast, b, ws, PermRead)}
		} else {
			rest = append(rest, w)
		}
	}
	b.waiters = rest
}

// ---- data movement ----

// ensureBlockData starts whatever fetch gets block bi's data here, if one is
// not already in flight and no local writer will produce it.
func (s *Store) ensureBlockData(st *loopState, ast *arrayState, bi int, b *blockState) {
	if b.fetching || b.probing {
		return
	}
	// A local writer holds an unreleased lease covering part of this block;
	// the release will wake waiters. (If the writer never covers the waited
	// interval the request legitimately blocks forever — same semantics as
	// the paper's "can not be read before being written".)
	if len(b.writing) > 0 {
		return
	}
	s.startFetch(st, ast, bi, b)
	st.reserve(ast.info, bi, b)
}

// startFetch picks the source block bi comes from — local scratch, the shard
// tier, a holder the directory knows, a random peer — and sets the fetch
// going.
func (s *Store) startFetch(st *loopState, ast *arrayState, bi int, b *blockState) {
	name := ast.info.Name
	if b.persistedLocal || ast.diskNodes[s.cfg.NodeID] {
		b.fetching = true
		st.stats.ImplicitDiskReads++
		s.io.submit(s.newIOJob(ioInstall, ast, bi))
		return
	}
	// A shard-backed block was durably pushed onto the cluster ring; its
	// bytes live on remote peers, not local disk. Refetch over the ring —
	// a miss (owner died) falls back to the paths below via
	// handleShardDone.
	if s.cfg.Shard != nil && b.shardBacked {
		b.fetching = true
		go s.shardFetch(name, bi)
		return
	}
	home := s.homeOf(name, bi)
	if home == s.cfg.NodeID {
		de := s.dirOf(st, blockKey{name, bi})
		if holder, ok := pickHolder(de, s.cfg.NodeID); ok {
			b.fetching = true
			s.postQuery(holder, name, bi, queryFetch)
			return
		}
		de.pending = append(de.pending, s.cfg.NodeID)
		return
	}
	// Random-peer probe, the paper's lookup opener.
	b.probing = true
	st.stats.PeerProbes++
	s.metrics.peerProbes.Inc()
	peer := s.randomPeer()
	s.postQuery(peer, name, bi, queryProbe)
}

// randomPeer picks a peer other than self (requires >= 2 nodes).
func (s *Store) randomPeer() int {
	p := s.rng.Intn(len(s.peers) - 1)
	if p >= s.cfg.NodeID {
		p++
	}
	return p
}

// pickHolder chooses a node to fetch from: memory copies first, then disk.
func pickHolder(de *dirEntry, exclude int) (int, bool) {
	best := -1
	for n := range de.mem {
		if n != exclude && (best == -1 || n < best) {
			best = n
		}
	}
	if best >= 0 {
		return best, true
	}
	for n := range de.disk {
		if n != exclude && (best == -1 || n < best) {
			best = n
		}
	}
	return best, best >= 0
}

// Inter-store queries and replies travel as pooled pointers: the posting
// side fills a struct from the shared pool, the receiving loop recycles it
// after handling. Stores post directly into each other's mailboxes, so a
// message is handled exactly once and the recycle is safe.
var (
	queryPool      = sync.Pool{New: func() any { return new(msgQuery) }}
	queryReplyPool = sync.Pool{New: func() any { return new(msgQueryReply) }}
)

// postQuery sends a pooled query to peer `to`; the receiving loop recycles it.
func (s *Store) postQuery(to int, array string, block int, kind queryKind) {
	q := queryPool.Get().(*msgQuery)
	*q = msgQuery{array: array, block: block, from: s.cfg.NodeID, kind: kind}
	s.peers[to].post(q)
}

// newQueryReply builds a pooled reply skeleton; callers fill the outcome
// fields and post it.
func (s *Store) newQueryReply(array string, block int, kind queryKind) *msgQueryReply {
	r := queryReplyPool.Get().(*msgQueryReply)
	*r = msgQueryReply{array: array, block: block, from: s.cfg.NodeID, kind: kind}
	return r
}

func (s *Store) handleQuery(st *loopState, m msgQuery) {
	ast, ok := st.arrays[m.array]
	if ok {
		if b, has := ast.blocks[m.block]; has && b.buf != nil {
			bs := ast.info.BlockSpan(m.block)
			if b.resident.full(bs.Hi - bs.Lo) {
				reply := s.newQueryReply(m.array, m.block, m.kind)
				reply.outcome = replyData
				reply.data = sharedArena.Get(len(b.buf))
				copy(reply.data, b.buf)
				st.tick++
				b.lastUse = st.tick
				s.ledger(s.cfg.NodeID, m.from, int64(len(reply.data)))
				s.peers[m.from].post(reply)
				return
			}
		}
		// Not resident but durable here — on local scratch, or on the shard
		// tier, which only this node knows it pushed the block to: serve via
		// an implicit read, then forward (the paper's storage reads from its
		// file system implicitly when a non-resident interval is requested).
		if ast.diskNodes[s.cfg.NodeID] || blockDurable(ast, m.block) {
			b := s.getBlock(ast, m.block)
			b.waiters = append(b.waiters, readWaiter{lo: ast.info.BlockSpan(m.block).Lo, hi: ast.info.BlockSpan(m.block).Hi, reply: s.forwardOnLoad(m)})
			s.ensureBlockData(st, ast, m.block, b)
			return
		}
	}
	switch m.kind {
	case queryProbe, queryFetch:
		reply := s.newQueryReply(m.array, m.block, m.kind)
		reply.outcome = replyMiss
		s.peers[m.from].post(reply)
		if m.kind == queryFetch {
			// The directory believed we held it; tell home it is gone.
			s.peers[s.homeOf(m.array, m.block)].post(msgNotify{array: m.array, block: m.block, node: s.cfg.NodeID, gone: true})
		}
	case queryHome:
		de := s.dirOf(st, blockKey{m.array, m.block})
		if holder, ok := pickHolder(de, m.from); ok {
			reply := s.newQueryReply(m.array, m.block, m.kind)
			reply.outcome = replyRedirect
			reply.holder = holder
			s.peers[m.from].post(reply)
			return
		}
		de.pending = append(de.pending, m.from)
	}
}

// blockDurable reports whether block bi has a durable copy this node can
// read back: on its scratch, or pushed durably to the shard tier.
func blockDurable(ast *arrayState, bi int) bool {
	b, ok := ast.blocks[bi]
	return ok && (b.persistedLocal || b.shardBacked && b.shardDurable)
}

// forwardOnLoad builds a one-shot waiter reply channel that, when the local
// disk read completes and a read lease is granted, ships the block to the
// remote requester and releases the lease.
func (s *Store) forwardOnLoad(m msgQuery) chan leaseResult {
	ch := make(chan leaseResult, 1)
	go func() {
		res := <-ch
		reply := s.newQueryReply(m.array, m.block, m.kind)
		if res.err != nil || res.lease == nil {
			reply.outcome = replyMiss
		} else {
			reply.outcome = replyData
			reply.data = sharedArena.Get(len(res.lease.Data))
			copy(reply.data, res.lease.Data)
			res.lease.Release()
			s.ledger(s.cfg.NodeID, m.from, int64(len(reply.data)))
		}
		s.peers[m.from].post(reply)
	}()
	return ch
}

func (s *Store) handleQueryReply(st *loopState, m msgQueryReply) {
	ast, ok := st.arrays[m.array]
	if !ok {
		sharedArena.Put(m.data)
		return
	}
	b := s.getBlock(ast, m.block)
	switch m.outcome {
	case replyData:
		b.fetching = false
		b.probing = false
		s.installBlock(st, ast, m.block, b, m.data, true, false)
		st.stats.BytesFetchedPeer += int64(len(m.data))
		s.metrics.peerBytes.Add(int64(len(m.data)))
	case replyMiss:
		st.stats.PeerProbeMisses++
		s.metrics.peerProbeMisses.Inc()
		if !b.fetching && !b.probing {
			return
		}
		// Escalate to the directory owner.
		b.fetching = false
		b.probing = true
		s.postQuery(s.homeOf(m.array, m.block), m.array, m.block, queryHome)
	case replyRedirect:
		b.probing = false
		b.fetching = true
		s.postQuery(m.holder, m.array, m.block, queryFetch)
	}
	st.reserve(ast.info, m.block, b)
}

func (s *Store) handleNotify(st *loopState, m msgNotify) {
	k := blockKey{m.array, m.block}
	de := s.dirOf(st, k)
	if m.gone {
		delete(de.mem, m.node)
		if m.onDisk {
			delete(de.disk, m.node)
		}
		// A gone notice may strand pending requesters; re-resolve them.
		s.wakePending(st, k, de)
		return
	}
	if m.onDisk {
		de.disk[m.node] = true
	} else {
		de.mem[m.node] = true
	}
	s.wakePending(st, k, de)
}

// tellHome delivers a directory update to the block's home, which may be
// this node.
func (s *Store) tellHome(st *loopState, m msgNotify) {
	if home := s.homeOf(m.array, m.block); home != s.cfg.NodeID {
		s.peers[home].post(m)
		return
	}
	s.handleNotify(st, m)
}

// wakePending redirects requesters queued at the home directory once a
// holder exists.
func (s *Store) wakePending(st *loopState, k blockKey, de *dirEntry) {
	if len(de.pending) == 0 {
		return
	}
	var still []int
	for _, node := range de.pending {
		holder, ok := pickHolder(de, node)
		if !ok {
			still = append(still, node)
			continue
		}
		if node == s.cfg.NodeID {
			// We are both home and requester: fetch directly.
			if ast, ok := st.arrays[k.array]; ok {
				b := s.getBlock(ast, k.block)
				if b.buf == nil && !b.fetching {
					b.fetching = true
					st.reserve(ast.info, k.block, b)
					s.postQuery(holder, k.array, k.block, queryFetch)
				}
			}
			continue
		}
		reply := s.newQueryReply(k.array, k.block, queryHome)
		reply.outcome = replyRedirect
		reply.holder = holder
		s.peers[node].post(reply)
	}
	de.pending = still
}

// installBlock adopts a complete block buffer that arrived from disk or a
// peer, wakes waiters, and registers this node as a holder.
func (s *Store) installBlock(st *loopState, ast *arrayState, bi int, b *blockState, data []byte, remoteBacked, persisted bool) {
	bs := ast.info.BlockSpan(bi)
	if int64(len(data)) != bs.Hi-bs.Lo {
		for _, w := range b.waiters {
			w.reply <- leaseResult{err: fmt.Errorf("storage: block %s[%d] has %d bytes, want %d", ast.info.Name, bi, len(data), bs.Hi-bs.Lo)}
		}
		b.waiters = nil
		sharedArena.Put(data)
		return
	}
	if b.buf != nil {
		// A stale resident buffer (e.g. a partially-written block superseded
		// by a complete remote copy) is replaced; recycle it. refcnt must be
		// zero here — fetches are only started when no lease pins the block.
		if b.refcnt == 0 {
			sharedArena.Put(b.buf)
		}
	}
	s.setBuf(st, ast, bi, b, data)
	st.tick++
	b.loadTick = st.tick
	b.lastUse = st.tick // a load is a use: a prefetched block must not carry last iteration's stamp into the LRU order
	st.stats.BlockLoads++
	s.metrics.blockLoads.Inc()
	// A durable or remote copy is by definition fully written; restore both
	// the residency coverage and the immutability record to full (keeping
	// the span backing — this runs on every block load).
	b.resident.spans = b.resident.spans[:0]
	if err := b.resident.add(span{0, int64(len(data))}); err != nil {
		panic(err)
	}
	st.markReadable(ast, bi, b)
	b.written.spans = b.written.spans[:0]
	if err := b.written.add(span{0, int64(len(data))}); err != nil {
		panic(err)
	}
	b.remoteBacked = b.remoteBacked || remoteBacked
	b.persistedLocal = b.persistedLocal || persisted
	s.wakeWaiters(st, ast, bi, b)
	s.tellHome(st, msgNotify{array: ast.info.Name, block: bi, node: s.cfg.NodeID})
	s.reclaim(st, ast.info.Name, bi)
	s.reclaimQuota(st, ast.quota, ast.info.Name, bi)
}

// ---- memory reclamation ----

// reclaim enforces the memory budget with LRU eviction. Blocks are
// reclaimable only when unpinned and backed by a durable or remote copy —
// the paper's rule ("reclaims blocks that are stored on the disk of any node
// and which are not currently used"). protect identifies a block that must
// survive this pass (typically the one just installed).
func (s *Store) reclaim(st *loopState, protectArray string, protectBlock int) {
	if st.resident <= s.cfg.MemoryBudget {
		return
	}
	for _, v := range s.collectVictims(st, protectArray, protectBlock, nil) {
		if st.resident <= s.cfg.MemoryBudget {
			break
		}
		s.dropBlock(st, v.ast, v.idx, v.b)
		st.stats.Evictions++
		s.metrics.evictions.Inc()
		s.traceEvict(v.name, v.idx)
	}
	if st.resident > s.cfg.MemoryBudget {
		st.stats.OverBudgetAllocs++
	}
}

type victim struct {
	ast  *arrayState
	name string
	idx  int
	b    *blockState
	key  int64
}

// collectVictims returns the evictable blocks in eviction-policy order,
// skipping the protected block. A non-nil group restricts candidates to
// that quota group's arrays.
func (s *Store) collectVictims(st *loopState, protectArray string, protectBlock int, group *quotaState) []victim {
	victims := victimSlice(s.victimBuf[:0])
	for name, ast := range st.arrays {
		if group != nil && ast.quota != group {
			continue
		}
		for idx, b := range ast.blocks {
			if name == protectArray && idx == protectBlock {
				continue
			}
			if b.buf == nil || b.refcnt > 0 || b.fetching || b.flushing || len(b.waiters) > 0 || len(b.writing) > 0 {
				continue
			}
			if !(b.persistedLocal || b.remoteBacked || ast.diskNodes[s.cfg.NodeID] || (b.shardBacked && b.shardDurable)) {
				continue
			}
			var key int64
			switch s.cfg.Eviction {
			case EvictFIFO:
				key = b.loadTick
			case EvictMRU:
				key = -b.lastUse
			default: // EvictLRU
				key = b.lastUse
			}
			victims = append(victims, victim{ast, name, idx, b, key})
		}
	}
	sort.Sort(victims)
	s.victimBuf = victims[:0]
	return victims
}

// victimSlice sorts blocks a prefetch brought in and nobody has read yet
// behind all others — admission promised them their room, and only a demand
// load that finds nothing else to evict takes it back — then by policy key,
// then name, then index. A named type, so sorting needs no reflection-based
// swapper.
type victimSlice []victim

func (v victimSlice) Len() int      { return len(v) }
func (v victimSlice) Swap(i, j int) { v[i], v[j] = v[j], v[i] }
func (v victimSlice) Less(i, j int) bool {
	if v[i].b.prefetched != v[j].b.prefetched {
		return v[j].b.prefetched
	}
	if v[i].key != v[j].key {
		return v[i].key < v[j].key
	}
	if v[i].name != v[j].name {
		return v[i].name < v[j].name
	}
	return v[i].idx < v[j].idx
}

// dropBlock releases a block's buffer and retracts this node from the
// block's directory entry. Callers account the eviction.
func (s *Store) dropBlock(st *loopState, ast *arrayState, idx int, b *blockState) {
	// Eviction preconditions (no leases, waiters, writers, or I/O in flight)
	// mean nothing aliases buf; recycle it.
	sharedArena.Put(b.buf)
	s.setBuf(st, ast, idx, b, nil)
	b.resident.spans = b.resident.spans[:0]
	b.prefetched = false
	st.reserve(ast.info, idx, b)
	name := ast.info.Name
	home := s.homeOf(name, idx)
	if home == s.cfg.NodeID {
		delete(s.dirOf(st, blockKey{name, idx}).mem, s.cfg.NodeID)
	} else {
		s.peers[home].post(msgNotify{array: name, block: idx, node: s.cfg.NodeID, gone: true})
	}
}

// handleEvict implements the programmer-driven eviction (the paper:
// "explicit memory management can also be directly provided by the
// programmer"), under the same safety rules as automatic reclamation.
func (s *Store) handleEvict(st *loopState, m cmdEvict) error {
	ast, ok := st.arrays[m.array]
	if !ok {
		return fmt.Errorf("storage: unknown array %q", m.array)
	}
	b, ok := ast.blocks[m.block]
	if !ok || b.buf == nil {
		return nil // not resident: idempotent success
	}
	if b.refcnt > 0 {
		return fmt.Errorf("storage: %q block %d is leased", m.array, m.block)
	}
	if b.fetching || b.flushing || len(b.waiters) > 0 || len(b.writing) > 0 {
		return fmt.Errorf("storage: %q block %d has activity in flight", m.array, m.block)
	}
	if !(b.persistedLocal || b.remoteBacked || ast.diskNodes[s.cfg.NodeID] || (b.shardBacked && b.shardDurable)) {
		return fmt.Errorf("storage: %q block %d is the only copy (flush it first)", m.array, m.block)
	}
	s.dropBlock(st, ast, m.block, b)
	st.stats.Evictions++
	s.metrics.evictions.Inc()
	s.traceEvict(m.array, m.block)
	return nil
}

// ---- prefetch, flush, map ----

// handlePrefetch starts fetching the blocks a prefetch names, each only if
// it is admitted: the block must fit in the memory budget beside the bytes no
// eviction may make room with — st.reserved. A block that does not fit is
// dropped, not queued: whoever issued the prefetch (the engine, at its next
// pick) asks again, and a demand read needs no admission. Without this a
// window of prefetches over a budget of as many blocks evicts its own unread
// predecessors and every one of them is read from scratch twice.
func (s *Store) handlePrefetch(st *loopState, c *cmdPrefetch) {
	ast, ok := st.arrays[c.array]
	if !ok {
		return
	}
	if c.byBlock {
		bs := ast.info.BlockSpan(c.block)
		if bs.empty() {
			return
		}
		c.lo, c.hi = bs.Lo, bs.Hi
	}
	if c.lo < 0 || c.hi > ast.info.Size || c.lo >= c.hi {
		return
	}
	st.stats.PrefetchIssued++
	s.metrics.prefetchIssued.Inc()
	first := ast.info.BlockOf(c.lo)
	last := ast.info.BlockOf(c.hi - 1)
	for bi := first; bi <= last; bi++ {
		b := s.getBlock(ast, bi)
		bs := ast.info.BlockSpan(bi)
		// Already resident, or already on its way (a block in flight from a
		// demand miss stays a plain miss): nothing to start, nothing to credit.
		if (b.buf != nil && b.resident.full(bs.Hi-bs.Lo)) || b.fetching || b.probing {
			continue
		}
		if st.reserved+bs.Hi-bs.Lo > s.cfg.MemoryBudget {
			st.stats.PrefetchDeferred++
			s.metrics.prefetchDeferred.Inc()
			continue
		}
		s.ensureBlockData(st, ast, bi, b)
		if b.fetching || b.probing {
			b.prefetched = true // reserved already: it is in flight
			st.stats.PrefetchLoads++
			s.metrics.prefetchLoads.Inc()
		}
	}
}

func (s *Store) handleFlush(st *loopState, c cmdFlush) {
	ast, ok := st.arrays[c.array]
	if !ok {
		c.reply <- fmt.Errorf("storage: unknown array %q", c.array)
		return
	}
	if s.cfg.ScratchDir == "" {
		c.reply <- fmt.Errorf("storage: flush of %q: store has no scratch directory", c.array)
		return
	}
	if f, inFlight := st.flushes[c.array]; inFlight {
		prev := f.reply
		f.reply = mergeErrChans(prev, c.reply)
		return
	}
	// Spill compressed when a codec is configured, unless this node already
	// holds the array in the raw single-file layout — an array's local
	// layout never mixes. The reverse also holds: an array already in the
	// framed layout stays framed even if this store has no codec (Raw
	// frames keep the directory readable).
	codec := s.cfg.Codec
	if codec == nil && ast.localCompressed {
		codec = compress.Raw{}
	}
	useCodec := codec != nil && (ast.localCompressed || !(ast.diskNodes[s.cfg.NodeID] || anyPersisted(ast)))
	if q := ast.quota; q != nil && q.scratchBudget > 0 {
		// Hard ceiling: reject the whole flush up front rather than spill
		// half an array. Sized on logical bytes — conservative when a codec
		// shrinks the physical frames.
		var pending int64
		for idx, b := range ast.blocks {
			bs := ast.info.BlockSpan(idx)
			if b.buf == nil || b.persistedLocal || !b.resident.full(bs.Hi-bs.Lo) {
				continue
			}
			pending += bs.Hi - bs.Lo
		}
		if q.scratchUsed+pending > q.scratchBudget {
			c.reply <- fmt.Errorf("storage: flush of %q: group %q used %d + %d pending > budget %d: %w",
				c.array, q.prefix, q.scratchUsed, pending, q.scratchBudget, ErrScratchQuota)
			return
		}
	}
	if useCodec {
		ast.localCompressed = true
	} else {
		codec = nil
	}
	fs := &flushState{reply: c.reply}
	for idx, b := range ast.blocks {
		bs := ast.info.BlockSpan(idx)
		if b.buf == nil || b.persistedLocal || !b.resident.full(bs.Hi-bs.Lo) {
			continue
		}
		b.flushing = true
		fs.pending++
		j := s.newIOJob(ioSpill, ast, idx)
		j.data, j.codec = b.buf, codec
		s.io.submit(j)
	}
	if fs.pending == 0 {
		c.reply <- nil
		return
	}
	st.flushes[c.array] = fs
	s.writeSidecar(ast, useCodec)
}

// anyPersisted reports whether any block of the array has a durable local
// copy (which pins the array's existing on-disk layout).
func anyPersisted(ast *arrayState) bool {
	for _, b := range ast.blocks {
		if b.persistedLocal {
			return true
		}
	}
	return false
}

// mergeErrChans fans one error out to two waiters.
func mergeErrChans(a, b chan error) chan error {
	ch := make(chan error, 1)
	go func() {
		err := <-ch
		a <- err
		b <- err
	}()
	return ch
}

func (s *Store) writeSidecar(ast *arrayState, compressed bool) {
	sc := sidecar{Size: ast.info.Size, BlockSize: ast.info.BlockSize}
	if compressed {
		sc.Codec = codecName(s.cfg.Codec)
	}
	if sc == ast.sidecar {
		return
	}
	raw, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return
	}
	if os.WriteFile(s.metaPath(ast.info.Name), raw, 0o644) == nil {
		ast.sidecar = sc
	}
}

// codecName names the configured codec for the sidecar; a store flushing a
// compressed array without a codec records the raw frame codec.
func codecName(c compress.Codec) string {
	if c == nil {
		return compress.Raw{}.Name()
	}
	return c.Name()
}

func (s *Store) metaPath(name string) string {
	return filepath.Join(s.cfg.ScratchDir, name+metaFileSuffix)
}

func (s *Store) handleIODone(st *loopState, m *ioJob) {
	ast, ok := st.arrays[m.array]
	if !ok {
		sharedArena.Put(m.data)
		return
	}
	b := s.getBlock(ast, m.block)
	b.fetching = false
	if m.err != nil {
		b.prefetched = false // nothing arrived to be read
	}
	st.reserve(ast.info, m.block, b)
	st.stats.IORetries += int64(m.retries)
	s.metrics.ioRetries.Add(int64(m.retries))
	if m.err != nil {
		// The I/O filter already attributed the error (array, block, path,
		// offset, attempts); pass it through.
		for _, w := range b.waiters {
			w.reply <- leaseResult{err: m.err}
		}
		b.waiters = nil
		return
	}
	s.installBlock(st, ast, m.block, b, m.data, false, true)
	s.countDiskRead(st, m)
}

// countDiskRead accounts a read that landed: physical disk traffic is the
// frame; the decoder's output is the logical block.
func (s *Store) countDiskRead(st *loopState, m *ioJob) {
	if !m.stats.framed {
		st.stats.BytesReadDisk += m.length
		s.metrics.diskReadBytes.Add(m.length)
		return
	}
	st.stats.BytesReadDisk += m.stats.storedBytes
	s.metrics.diskReadBytes.Add(m.stats.storedBytes)
	st.stats.DecompressStoredBytes += m.stats.storedBytes
	st.stats.DecompressRawBytes += m.stats.rawBytes
	cm := s.metrics.codec(m.stats.codecID)
	cm.decStoredBytes.Add(m.stats.storedBytes)
	cm.decRawBytes.Add(m.stats.rawBytes)
}

// handleCopied answers a copy-out read from scratch. Its array still exists:
// Delete refuses an array with a copy-out in flight.
func (s *Store) handleCopied(st *loopState, m *ioJob) {
	if ast, ok := st.arrays[m.array]; ok {
		if b, ok := ast.blocks[m.block]; ok {
			b.copying--
		}
	}
	st.stats.IORetries += int64(m.retries)
	s.metrics.ioRetries.Add(int64(m.retries))
	if m.err == nil {
		s.countDiskRead(st, m)
	}
	m.reply <- leaseResult{err: m.err}
}

func (s *Store) handleIOWrote(st *loopState, m *ioJob) {
	ast, ok := st.arrays[m.array]
	st.stats.IORetries += int64(m.retries)
	s.metrics.ioRetries.Add(int64(m.retries))
	if ok {
		b := s.getBlock(ast, m.block)
		b.flushing = false
		if m.err == nil {
			b.persistedLocal = true
			n := ast.info.BlockSpan(m.block).Hi - ast.info.BlockSpan(m.block).Lo
			if m.stats.framed {
				n = m.stats.storedBytes
				st.stats.CompressRawBytes += m.stats.rawBytes
				st.stats.CompressStoredBytes += m.stats.storedBytes
				cm := s.metrics.codec(m.stats.codecID)
				cm.encRawBytes.Add(m.stats.rawBytes)
				cm.encStoredBytes.Add(m.stats.storedBytes)
				if m.stats.bailout {
					st.stats.CompressBailouts++
					s.metrics.compressBailouts.Inc()
				}
				if st.stats.CompressStoredBytes > 0 {
					s.metrics.compressRatioPercent.Set(100 * st.stats.CompressRawBytes / st.stats.CompressStoredBytes)
				}
			}
			st.stats.BytesWrittenDisk += n
			s.metrics.diskWriteBytes.Add(n)
			ast.scratchBytes += n
			if ast.quota != nil {
				ast.quota.scratchUsed += n
			}
			// The block just became durable, hence reclaimable: a group
			// over its budget can shed it now.
			s.reclaimQuota(st, ast.quota, "", -1)
			home := s.homeOf(m.array, m.block)
			if home == s.cfg.NodeID {
				s.dirOf(st, blockKey{m.array, m.block}).disk[s.cfg.NodeID] = true
			} else {
				s.peers[home].post(msgNotify{array: m.array, block: m.block, node: s.cfg.NodeID, onDisk: true})
			}
		}
	}
	f, inFlight := st.flushes[m.array]
	if !inFlight {
		return
	}
	f.pending--
	if m.err != nil && f.err == nil {
		f.err = m.err
	}
	if f.pending == 0 {
		delete(st.flushes, m.array)
		f.reply <- f.err
	}
}

func (s *Store) buildMap(st *loopState) ResidencyMap {
	var rm ResidencyMap
	if v, _ := rmPool.Get().(*ResidencyMap); v != nil {
		rm = *v
	} else {
		rm.Blocks = make(map[string][]int, len(st.arrays))
	}
	rm.Budget = s.cfg.MemoryBudget
	rm.MemUsed = st.resident
	// One backing slice serves every array's index list: the map is a
	// snapshot handed to the scheduler, sub-sliced here and never appended
	// to, so per-array allocations would be pure overhead. markReadable keeps
	// the lists: nothing is walked or sorted here.
	backing := rm.backing[:0]
	for _, ast := range st.readable {
		start := len(backing)
		backing = append(backing, ast.readable...)
		rm.Blocks[ast.info.Name] = backing[start:len(backing):len(backing)]
	}
	rm.backing = backing
	return rm
}
