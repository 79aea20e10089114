package storage

import "testing"

// TestPrefetchedBlockIsNotNextVictim drives the actor's handlers by hand —
// no loop goroutine, no I/O filters; every completion is delivered by the
// test — so the order of events is exactly the one written here. Budget two
// blocks, three disk-backed blocks. A demand pass leaves stale use stamps on
// all three; the second pass prefetches A, then B, then reads both. A block
// that arrives by prefetch has no waiter and so receives no lease: unless
// the install itself counts as a use, A carries the first pass's stamp,
// sorts first in the LRU order and is evicted by B's install.
func TestPrefetchedBlockIsNotNextVictim(t *testing.T) {
	const blockBytes = 64
	s, err := newStore(Config{MemoryBudget: 2 * blockBytes, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.peers = []*Store{s}
	st := &loopState{
		arrays:  make(map[string]*arrayState),
		dir:     make(map[blockKey]*dirEntry),
		flushes: make(map[string]*flushState),
		quotas:  make(map[string]*quotaState),
	}
	names := []string{"A", "B", "C"}
	for _, n := range names {
		s.handleAnnounce(st, msgAnnounce{info: ArrayInfo{Name: n, Size: blockBytes, BlockSize: blockBytes}})
	}
	// landed delivers the disk read the actor queued for the block.
	landed := func(name string) {
		t.Helper()
		if !st.arrays[name].blocks[0].fetching {
			t.Fatalf("no disk read in flight for %s", name)
		}
		s.handleIODone(st, ioDone{array: name, data: make([]byte, blockBytes)})
	}
	// read leases the block and releases it, delivering the disk read on a miss.
	read := func(name string) {
		t.Helper()
		reply := make(chan leaseResult, 1)
		s.handleRequest(st, &cmdRequest{array: name, byBlock: true, perm: PermRead, reply: reply})
		if len(reply) == 0 {
			landed(name)
		}
		res := <-reply
		if res.err != nil {
			t.Fatal(res.err)
		}
		s.handleRelease(st, &cmdRelease{lease: res.lease})
	}
	prefetch := func(name string) {
		t.Helper()
		s.handlePrefetch(st, &cmdPrefetch{array: name, byBlock: true})
		landed(name)
	}

	for _, n := range names {
		read(n)
	}
	before := st.stats

	prefetch("A")
	prefetch("B")
	read("A")
	read("B")

	if got := st.stats.ImplicitDiskReads - before.ImplicitDiskReads; got != 2 {
		t.Errorf("disk reads in the prefetched pass = %d, want 2", got)
	}
	if got := st.stats.PrefetchHits - before.PrefetchHits; got != 2 {
		t.Errorf("prefetch hits = %d, want 2", got)
	}
	if got := st.stats.Misses - before.Misses; got != 0 {
		t.Errorf("misses = %d, want 0: a prefetched block was evicted before it was read", got)
	}
	// Two installs over a full budget evict two blocks, and both must be the
	// ones the demand pass left behind.
	if got := st.stats.Evictions - before.Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if st.arrays["C"].blocks[0].buf != nil {
		t.Error("C, the least recently used block, is still resident")
	}
}
