package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func newTestStore(t *testing.T, budget int64, scratch bool) *Store {
	t.Helper()
	cfg := Config{MemoryBudget: budget, IOWorkers: 2, Seed: 1}
	if scratch {
		cfg.ScratchDir = t.TempDir()
	}
	s, err := NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestCreateValidation(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("", 10, 10); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Create("a", 0, 10); err == nil {
		t.Error("zero size accepted")
	}
	if err := s.Create("a", 10, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if err := s.Create("a", 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("a", 10, 4); err == nil {
		t.Error("duplicate create accepted")
	}
	info, err := s.Info("a")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumBlocks() != 3 {
		t.Errorf("NumBlocks = %d, want 3 (10 bytes / 4-byte blocks)", info.NumBlocks())
	}
}

func TestWriteThenRead(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 16, 16); err != nil {
		t.Fatal(err)
	}
	w, err := s.Request("v", 0, 16, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(w.Data, []byte("0123456789abcdef"))
	w.Release()
	r, err := s.Request("v", 4, 8, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "4567" {
		t.Errorf("read %q, want 4567", r.Data)
	}
	r.Release()
}

func TestReadBlocksUntilWriteReleased(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 8, 8); err != nil {
		t.Fatal(err)
	}
	w, err := s.Request("v", 0, 8, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		r, err := s.Request("v", 0, 8, PermRead)
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- string(r.Data)
		r.Release()
	}()
	select {
	case v := <-got:
		t.Fatalf("read returned %q before the write was released", v)
	case <-time.After(50 * time.Millisecond):
	}
	copy(w.Data, []byte("VISIBLE!"))
	w.Release()
	select {
	case v := <-got:
		if v != "VISIBLE!" {
			t.Fatalf("read %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock after write release")
	}
}

func TestImmutabilityViolations(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 16, 16); err != nil {
		t.Fatal(err)
	}
	w, err := s.Request("v", 0, 8, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping in-flight write.
	if _, err := s.Request("v", 4, 12, PermWrite); err == nil {
		t.Error("overlapping write lease granted")
	}
	// Disjoint in-flight write is fine.
	w2, err := s.Request("v", 8, 16, PermWrite)
	if err != nil {
		t.Fatalf("disjoint write rejected: %v", err)
	}
	w.Release()
	w2.Release()
	// Rewrite after release.
	if _, err := s.Request("v", 0, 4, PermWrite); err == nil {
		t.Error("rewrite of written interval granted")
	}
}

func TestIntervalSpanningBlocksRejected(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 16, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Request("v", 4, 12, PermRead); err == nil || !strings.Contains(err.Error(), "spans blocks") {
		t.Fatalf("err = %v, want spans-blocks error", err)
	}
	if _, err := s.Request("v", 0, 17, PermRead); err == nil {
		t.Error("out-of-range interval accepted")
	}
	if _, err := s.Request("v", 8, 8, PermRead); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := s.Request("ghost", 0, 1, PermRead); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 8, 8); err != nil {
		t.Fatal(err)
	}
	w, _ := s.Request("v", 0, 8, PermWrite)
	w.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	w.Release()
}

func TestFloat64Helpers(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("x", 8*4, 8*4); err != nil {
		t.Fatal(err)
	}
	w, _ := s.Request("x", 0, 32, PermWrite)
	PutFloat64s(w, []float64{1, -2.5, 3e100, 0})
	w.Release()
	r, _ := s.Request("x", 0, 32, PermRead)
	vals := GetFloat64s(r)
	r.Release()
	if vals[0] != 1 || vals[1] != -2.5 || vals[2] != 3e100 || vals[3] != 0 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestWriteArrayReadAll(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.WriteArray("text", data, 7); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll("text")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadAll = %q", got)
	}
}

func TestResidencyMap(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.Create("v", 24, 8); err != nil {
		t.Fatal(err)
	}
	// Write blocks 0 and 2, leave 1 unwritten.
	for _, b := range []int{0, 2} {
		w, err := s.RequestBlock("v", b, PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	refs := []BlockRef{{"v", 0}, {"v", 1}, {"v", 2}, {"v", 3}, {"v", -1}, {"w", 0}}
	got := s.Resident(refs, nil)
	if want := []bool{true, false, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("Resident(%v) = %v, want %v", refs, got, want)
	}
	if used := s.Stats().MemUsed; used != 16 {
		t.Errorf("MemUsed = %d, want 16", used)
	}
	// A closed store still answers, and holds nothing.
	s.Close()
	if got := s.Resident(refs, got); slices.Contains(got, true) {
		t.Fatalf("a closed store answers %v", got)
	}
}

// residentBlock asks s whether one block is resident.
func residentBlock(s *Store, array string, block int) bool {
	return s.Resident([]BlockRef{{array, block}}, nil)[0]
}

func TestStatsHitsAndMisses(t *testing.T) {
	s := newTestStore(t, 1<<20, true)
	data := bytes.Repeat([]byte("z"), 64)
	if err := s.WriteArray("a", data, 64); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Request("a", 0, 8, PermRead)
	r.Release()
	st := s.Stats()
	if st.Hits < 1 {
		t.Errorf("hits = %d, want >= 1", st.Hits)
	}
}

func TestScratchScanAndImplicitRead(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("hello out-of-core world, this file was here first")
	if err := os.WriteFile(filepath.Join(dir, "pre"+arrayFileSuffix), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReadAll("pre")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadAll = %q", got)
	}
	st := s.Stats()
	if st.ImplicitDiskReads != 1 {
		t.Errorf("implicit disk reads = %d, want 1", st.ImplicitDiskReads)
	}
	if st.BytesReadDisk != int64(len(payload)) {
		t.Errorf("bytes read = %d, want %d", st.BytesReadDisk, len(payload))
	}
}

func TestFlushPersistsAndSidecarRestoresBlocks(t *testing.T) {
	dir := t.TempDir()
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789"), 10) // 100 bytes
	if err := s.WriteArray("arr", data, 32); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("arr"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().BytesWrittenDisk < 100 {
		t.Errorf("bytes written = %d", s.Stats().BytesWrittenDisk)
	}
	s.Close()

	// A fresh store scans the scratch dir and restores the block structure.
	s2, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info, err := s2.Info("arr")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 100 || info.BlockSize != 32 {
		t.Fatalf("restored info = %+v", info)
	}
	got, err := s2.ReadAll("arr")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored data mismatch")
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	dir := t.TempDir()
	// Budget fits two 64-byte blocks.
	s, err := NewLocal(Config{MemoryBudget: 128, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mk := func(name string) {
		if err := s.WriteArray(name, bytes.Repeat([]byte(name[:1]), 64), 64); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	mk("c") // allocating c pushes memory to 192 > 128: a (LRU) must go
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.MemUsed > 128 {
		t.Errorf("MemUsed = %d > budget 128", st.MemUsed)
	}
	// Evicted data is transparently re-read from scratch.
	got, err := s.ReadAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("a"), 64)) {
		t.Fatal("re-read after eviction mismatch")
	}
}

func TestUnpersistedBlocksAreNeverEvicted(t *testing.T) {
	// No scratch dir: nothing is ever durable, so nothing may be evicted
	// even over budget (the paper's rule), and the over-budget counter ticks.
	s := newTestStore(t, 64, false)
	for _, name := range []string{"a", "b", "c"} {
		if err := s.WriteArray(name, bytes.Repeat([]byte(name[:1]), 64), 64); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 0 {
		t.Fatalf("evicted %d unpersisted blocks", st.Evictions)
	}
	if st.OverBudgetAllocs == 0 {
		t.Error("over-budget allocations not recorded")
	}
	// All data still readable.
	for _, name := range []string{"a", "b", "c"} {
		got, err := s.ReadAll(name)
		if err != nil || len(got) != 64 {
			t.Fatalf("%s: %v len=%d", name, err, len(got))
		}
	}
}

func TestPinnedBlocksSurviveEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewLocal(Config{MemoryBudget: 64, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteArray("pinned", bytes.Repeat([]byte("p"), 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("pinned"); err != nil {
		t.Fatal(err)
	}
	r, err := s.Request("pinned", 0, 64, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate more arrays to force pressure; "pinned" must not be evicted
	// while the read lease is held.
	for _, name := range []string{"x", "y"} {
		if err := s.WriteArray(name, bytes.Repeat([]byte(name[:1]), 64), 64); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r.Data, bytes.Repeat([]byte("p"), 64)) {
		t.Fatal("pinned data corrupted under pressure")
	}
	if !residentBlock(s, "pinned", 0) {
		t.Fatal("pinned block evicted while leased")
	}
	r.Release()
}

func TestDeleteSemantics(t *testing.T) {
	s := newTestStore(t, 1<<20, false)
	if err := s.WriteArray("d", []byte("data"), 4); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Request("d", 0, 4, PermRead)
	if err := s.Delete("d"); err == nil {
		t.Fatal("delete succeeded with outstanding lease")
	}
	r.Release()
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Request("d", 0, 4, PermRead); err == nil {
		t.Fatal("deleted array still readable")
	}
	if err := s.Delete("d"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("w"), 256)
	if err := os.WriteFile(filepath.Join(dir, "warm"+arrayFileSuffix), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Prefetch("warm", 0, 256)
	// Wait for the prefetch to land.
	deadline := time.Now().Add(2 * time.Second)
	for !residentBlock(s, "warm", 0) {
		if time.Now().After(deadline) {
			t.Fatal("prefetch never landed")
		}
		time.Sleep(time.Millisecond)
	}
	r, err := s.Request("warm", 0, 8, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	st := s.Stats()
	if st.Hits == 0 {
		t.Error("request after prefetch was not a hit")
	}
	if st.PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d", st.PrefetchIssued)
	}
}

func TestCorruptScratchReadFails(t *testing.T) {
	dir := t.TempDir()
	// Sidecar claims 100 bytes, payload has 10: the read must error, not hang.
	if err := os.WriteFile(filepath.Join(dir, "bad"+arrayFileSuffix), []byte("short file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+metaFileSuffix), []byte(`{"size":100,"block_size":100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Request("bad", 0, 100, PermRead); err == nil {
		t.Fatal("truncated file read succeeded")
	}
}

func TestCloseFailsPendingRequests(t *testing.T) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create("never", 8, 8); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Request("never", 0, 8, PermRead)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request not failed on close")
	}
}

// TestClosedStoreAnswers: every blocking call on a store that has already
// closed returns instead of waiting for a loop that has gone (a server
// whose store closes under it must still answer its clients).
func TestClosedStoreAnswers(t *testing.T) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	done := make(chan []error, 1)
	go func() {
		_, reqErr := s.Request("a", 0, 8, PermRead)
		_, blkErr := s.RequestBlock("a", 0, PermWrite)
		_, infoErr := s.Info("a")
		s.Stats()
		s.SetQuota("a", 1, 1)
		s.Quota("a")
		s.ClearQuota("a")
		s.Prefetch("a", 0, 8)
		done <- []error{reqErr, blkErr, infoErr, s.Create("a", 8, 8), s.Delete("a"), s.Flush("a"), s.Evict("a", 0)}
	}()
	select {
	case errs := <-done:
		for i, err := range errs {
			if err != ErrClosed {
				t.Errorf("call %d on a closed store: %v, want ErrClosed", i, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call on a closed store blocked")
	}
}

func TestExplicitEvict(t *testing.T) {
	dir := t.TempDir()
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte("e"), 128)
	if err := s.WriteArray("ev", data, 128); err != nil {
		t.Fatal(err)
	}
	// Unpersisted sole copy: eviction must refuse.
	if err := s.Evict("ev", 0); err == nil {
		t.Fatal("evicted the only copy of unpersisted data")
	}
	if err := s.Flush("ev"); err != nil {
		t.Fatal(err)
	}
	// Leased: refuse.
	l, err := s.Request("ev", 0, 8, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("ev", 0); err == nil {
		t.Fatal("evicted a leased block")
	}
	l.Release()
	// Now legal.
	if err := s.Evict("ev", 0); err != nil {
		t.Fatal(err)
	}
	if residentBlock(s, "ev", 0) {
		t.Fatal("block still resident after explicit evict")
	}
	// Idempotent.
	if err := s.Evict("ev", 0); err != nil {
		t.Fatalf("second evict: %v", err)
	}
	// Data transparently reloads from scratch.
	got, err := s.ReadAll("ev")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reload after explicit evict mismatch")
	}
	// Unknown array errors.
	if err := s.Evict("ghost", 0); err == nil {
		t.Fatal("evict of unknown array succeeded")
	}
}

// TestEvictionPolicies: on a cyclic scan larger than memory, LRU thrashes
// (every access misses) while MRU retains a stable subset — the classic
// result the paper's back-and-forth reordering works around.
func TestEvictionPolicies(t *testing.T) {
	const blocks, rounds = 4, 6
	run := func(policy EvictionPolicy) (hits int64) {
		dir := t.TempDir()
		s, err := NewLocal(Config{
			MemoryBudget: 2 * 64, // two 64-byte blocks
			ScratchDir:   dir,
			Eviction:     policy,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < blocks; i++ {
			name := fmt.Sprintf("b%d", i)
			if err := s.WriteArray(name, bytes.Repeat([]byte{byte(i)}, 64), 64); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(name); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Stats().Hits
		for r := 0; r < rounds; r++ {
			for i := 0; i < blocks; i++ {
				l, err := s.Request(fmt.Sprintf("b%d", i), 0, 64, PermRead)
				if err != nil {
					t.Fatal(err)
				}
				l.Release()
			}
		}
		return s.Stats().Hits - before
	}
	lru := run(EvictLRU)
	mru := run(EvictMRU)
	fifo := run(EvictFIFO)
	if mru <= lru {
		t.Fatalf("MRU hits (%d) not better than LRU (%d) on cyclic scan", mru, lru)
	}
	// FIFO equals LRU on a pure cyclic scan.
	if fifo != lru {
		t.Fatalf("FIFO hits (%d) != LRU hits (%d) on cyclic scan", fifo, lru)
	}
}
