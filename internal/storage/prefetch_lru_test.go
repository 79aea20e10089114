package storage

import "testing"

// byHand drives the actor's handlers by hand — no loop goroutine, no I/O
// filters; every completion is delivered by the test — so the order of events
// is exactly the one written in the test. Its arrays are one disk-backed
// block each. After every step the accounting invariants of the model test
// are checked.
type byHand struct {
	t  *testing.T
	s  *Store
	st *loopState
}

const handBlockBytes = 64

func newByHand(t *testing.T, budget int64, names ...string) *byHand {
	t.Helper()
	s, err := newStore(Config{MemoryBudget: budget, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.peers = []*Store{s}
	h := &byHand{t: t, s: s, st: newLoopState()}
	for _, n := range names {
		s.handleAnnounce(h.st, msgAnnounce{info: ArrayInfo{Name: n, Size: handBlockBytes, BlockSize: handBlockBytes}})
	}
	return h
}

func (h *byHand) check() {
	h.t.Helper()
	if err := accountingError(h.st); err != nil {
		h.t.Fatal(err)
	}
}

func (h *byHand) block(name string) *blockState { return h.st.arrays[name].blocks[0] }

// landed delivers the disk read the actor queued for the block.
func (h *byHand) landed(name string) {
	h.t.Helper()
	if !h.block(name).fetching {
		h.t.Fatalf("no disk read in flight for %s", name)
	}
	h.s.handleIODone(h.st, ioDone{array: name, data: make([]byte, handBlockBytes)})
	h.check()
}

// request asks for a read lease; the reply is there once the block is.
func (h *byHand) request(name string) chan leaseResult {
	h.t.Helper()
	reply := make(chan leaseResult, 1)
	h.s.handleRequest(h.st, &cmdRequest{array: name, byBlock: true, perm: PermRead, reply: reply})
	h.check()
	return reply
}

// lease leases the block, delivering the disk read on a miss.
func (h *byHand) lease(name string) *Lease {
	h.t.Helper()
	reply := h.request(name)
	if len(reply) == 0 {
		h.landed(name)
	}
	res := <-reply
	if res.err != nil {
		h.t.Fatal(res.err)
	}
	return res.lease
}

func (h *byHand) release(l *Lease) {
	h.t.Helper()
	h.s.handleRelease(h.st, &cmdRelease{lease: l})
	h.check()
}

func (h *byHand) read(name string) { h.t.Helper(); h.release(h.lease(name)) }

// prefetch reports whether the prefetch started a disk read.
func (h *byHand) prefetch(name string) bool {
	h.t.Helper()
	was := h.block(name) != nil && h.block(name).fetching
	h.s.handlePrefetch(h.st, &cmdPrefetch{array: name, byBlock: true})
	h.check()
	return !was && h.block(name).fetching
}

// TestPrefetchedBlockIsNotNextVictim: budget two blocks, three disk-backed
// blocks. A demand pass leaves stale use stamps on all three; the second pass
// prefetches A, then B, then reads both. A block that arrives by prefetch has
// no waiter and so receives no lease: unless the install itself counts as a
// use, A carries the first pass's stamp, sorts first in the LRU order and is
// evicted by B's install.
func TestPrefetchedBlockIsNotNextVictim(t *testing.T) {
	h := newByHand(t, 2*handBlockBytes, "A", "B", "C")
	for _, n := range []string{"A", "B", "C"} {
		h.read(n)
	}
	before := h.st.stats

	for _, n := range []string{"A", "B"} {
		if !h.prefetch(n) {
			t.Fatalf("prefetch of %s started no read", n)
		}
		h.landed(n)
	}
	h.read("A")
	h.read("B")

	st := h.st.stats
	if got := st.ImplicitDiskReads - before.ImplicitDiskReads; got != 2 {
		t.Errorf("disk reads in the prefetched pass = %d, want 2", got)
	}
	if got := st.PrefetchHits - before.PrefetchHits; got != 2 {
		t.Errorf("prefetch hits = %d, want 2", got)
	}
	if got := st.Misses - before.Misses; got != 0 {
		t.Errorf("misses = %d, want 0: a prefetched block was evicted before it was read", got)
	}
	// Two installs over a full budget evict two blocks, and both must be the
	// ones the demand pass left behind.
	if got := st.Evictions - before.Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if h.block("C").buf != nil {
		t.Error("C, the least recently used block, is still resident")
	}
}

// TestJoinedPrefetchIsNotAHit: a demand read that arrives while the prefetch
// is still in flight waits for the disk like any miss, so it is no prefetch
// hit — and it is the block's first lease, so the prefetch is spent: the next
// read of the still-resident block is a plain hit, and the block is no longer
// reserved as unread once released.
func TestJoinedPrefetchIsNotAHit(t *testing.T) {
	h := newByHand(t, 2*handBlockBytes, "A")
	if !h.prefetch("A") {
		t.Fatal("prefetch started no read")
	}
	reply := h.request("A")
	if len(reply) != 0 {
		t.Fatal("read of a block still in flight was granted")
	}
	h.landed("A")
	res := <-reply
	if res.err != nil {
		t.Fatal(res.err)
	}
	if h.block("A").prefetched {
		t.Error("the block is leased and still marked prefetched-unread")
	}
	h.release(res.lease)
	if h.st.reserved != 0 {
		t.Errorf("%d bytes reserved with nothing leased, in flight or unread", h.st.reserved)
	}
	h.read("A") // the next iteration's reuse
	st := h.st.stats
	if st.PrefetchLoads != 1 || st.PrefetchHits != 0 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("prefetch loads %d hits %d, misses %d hits %d; want 1 0, 1 1",
			st.PrefetchLoads, st.PrefetchHits, st.Misses, st.Hits)
	}
}

// TestPrefetchAdmission: a prefetch is admitted only if its block fits in the
// budget beside what no eviction may make room with. Budget two blocks and
// some slack; A is leased.
func TestPrefetchAdmission(t *testing.T) {
	h := newByHand(t, 2*handBlockBytes+handBlockBytes/2, "A", "B", "C")
	a := h.lease("A")

	if !h.prefetch("B") {
		t.Fatal("B fits beside the leased A and was not admitted")
	}
	if h.prefetch("C") {
		t.Fatal("C admitted beside a leased block and one in flight")
	}
	h.landed("B")
	if h.prefetch("C") {
		t.Fatal("C admitted beside a leased block and an unread prefetched one")
	}
	if got := h.st.stats.PrefetchDeferred; got != 2 {
		t.Errorf("deferred = %d, want 2", got)
	}
	if got := h.st.stats.Evictions; got != 0 {
		t.Errorf("%d evictions before anything was admitted over the budget", got)
	}

	h.release(a)
	b := h.lease("B")
	if got := h.st.stats.PrefetchHits; got != 1 {
		t.Errorf("prefetch hits = %d, want 1: B was resident when it was asked for", got)
	}
	if !h.prefetch("C") {
		t.Fatal("C fits beside the leased B and was not admitted")
	}
	h.landed("C")
	if h.block("A").buf != nil || h.block("B").buf == nil || h.block("C").buf == nil {
		t.Errorf("resident after C landed: A %v B %v C %v; want C to have evicted A, never B",
			h.block("A").buf != nil, h.block("B").buf != nil, h.block("C").buf != nil)
	}
	if want := int64(2 * handBlockBytes); h.st.reserved != want || h.st.resident != want {
		t.Errorf("reserved %d resident %d, want %d each: B leased, C unread", h.st.reserved, h.st.resident, want)
	}
	h.release(b)

	// A demand load needs no admission, and what it evicts is the idle B —
	// though B's release is the more recent use — not the unread C.
	h.read("A")
	if h.block("B").buf != nil || h.block("C").buf == nil {
		t.Error("a demand load evicted the unread prefetched C while the idle B was there to evict")
	}
	if got := h.st.stats.PrefetchLoads; got != 2 {
		t.Errorf("prefetch loads = %d, want 2", got)
	}
}
