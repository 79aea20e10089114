package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeShard is an in-memory ShardBackend: a map standing in for the
// cluster ring, with switchable durability verdicts and a total-miss mode
// to exercise the fallback path.
type fakeShard struct {
	mu          sync.Mutex
	durable     bool
	lost        bool          // FetchBlock misses everything (owners died)
	gate        chan struct{} // when non-nil, PushBlock waits for it to close
	blocks      map[string][]byte
	invalidated []string
}

func newFakeShard(durable bool) *fakeShard {
	return &fakeShard{durable: durable, blocks: make(map[string][]byte)}
}

func shardKey(array string, block int) string { return fmt.Sprintf("%s/%d", array, block) }

func (f *fakeShard) FetchBlock(array string, block int) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lost {
		return nil, false
	}
	data, ok := f.blocks[shardKey(array, block)]
	return data, ok
}

func (f *fakeShard) PushBlock(array string, block int, data []byte, _ *atomic.Bool) bool {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocks[shardKey(array, block)] = append([]byte(nil), data...)
	return f.durable
}

func (f *fakeShard) InvalidateArray(array string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := range f.blocks {
		if len(k) > len(array) && k[:len(array)] == array && k[len(array)] == '/' {
			delete(f.blocks, k)
		}
	}
	f.invalidated = append(f.invalidated, array)
}

func (f *fakeShard) setLost(v bool) {
	f.mu.Lock()
	f.lost = v
	f.mu.Unlock()
}

func (f *fakeShard) held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.blocks)
}

// waitShard polls the store's stats until cond holds or the deadline
// passes (shard pushes and fetches complete asynchronously).
func waitShard(t *testing.T, s *Store, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s; stats %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func writeShardArray(t *testing.T, s *Store, name string, blocks int, blockSize int64) [][]byte {
	t.Helper()
	if err := s.Create(name, int64(blocks)*blockSize, blockSize); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([][]byte, blocks)
	for b := 0; b < blocks; b++ {
		lease, err := s.Request(name, int64(b)*blockSize, int64(b+1)*blockSize, PermWrite)
		if err != nil {
			t.Fatalf("write lease block %d: %v", b, err)
		}
		for i := range lease.Data {
			lease.Data[i] = byte(b + i + 1)
		}
		payload[b] = append([]byte(nil), lease.Data...)
		lease.Release()
	}
	return payload
}

// TestShardPushOnWrite: every fully written block is pushed to the tier
// in the background.
func TestShardPushOnWrite(t *testing.T) {
	shard := newFakeShard(false)
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeShardArray(t, s, "a", 4, 1024)
	st := waitShard(t, s, "4 pushes", func(st Stats) bool { return st.ShardPushes == 4 })
	deadline := time.Now().Add(5 * time.Second)
	for shard.held() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("shard holds %d blocks, want 4", shard.held())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.ShardDurablePushes != 0 {
		t.Fatalf("non-durable backend reported %d durable pushes", st.ShardDurablePushes)
	}
	if st.BytesPushedShard != 4*1024 {
		t.Fatalf("BytesPushedShard = %d, want %d", st.BytesPushedShard, 4*1024)
	}
}

// TestShardDurableEvictRefetch: durably pushed blocks are evicted without
// a disk spill (no scratch dir at all) and refetched from the tier with
// the original bytes.
func TestShardDurableEvictRefetch(t *testing.T) {
	shard := newFakeShard(true)
	const blockSize = 1024
	// Budget for two blocks; writing four forces evictions, which are
	// only legal because the shard pushes are durable.
	s, err := NewLocal(Config{MemoryBudget: 2 * blockSize, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := writeShardArray(t, s, "a", 4, blockSize)
	waitShard(t, s, "durable pushes", func(st Stats) bool { return st.ShardDurablePushes == 4 })
	waitShard(t, s, "evictions", func(st Stats) bool { return st.Evictions > 0 })
	for b := 0; b < 4; b++ {
		lease, err := s.Request("a", int64(b)*blockSize, int64(b+1)*blockSize, PermRead)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(lease.Data, payload[b]) {
			lease.Release()
			t.Fatalf("block %d bytes differ after shard refetch", b)
		}
		lease.Release()
	}
	st := s.Stats()
	if st.ShardFetches == 0 {
		t.Fatalf("no shard fetches despite evictions; stats %+v", st)
	}
	if st.BytesFetchedShard != st.ShardFetches*blockSize {
		t.Fatalf("BytesFetchedShard = %d, want %d", st.BytesFetchedShard, st.ShardFetches*blockSize)
	}
}

// TestShardFallbackOnLoss: when the tier loses a block (owners died), the
// fetch falls back cleanly and the shard marking is cleared.
func TestShardFallbackOnLoss(t *testing.T) {
	shard := newFakeShard(true)
	const blockSize = 1024
	s, err := NewLocal(Config{MemoryBudget: 2 * blockSize, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeShardArray(t, s, "a", 4, blockSize)
	waitShard(t, s, "durable pushes", func(st Stats) bool { return st.ShardDurablePushes == 4 })
	waitShard(t, s, "evictions", func(st Stats) bool { return st.Evictions > 0 })
	shard.setLost(true)
	// Prefetch drives the fetch without a blocking waiter, so the miss
	// surfaces as a counted fallback instead of a parked read.
	s.Prefetch("a", 0, 4*blockSize)
	waitShard(t, s, "a fallback", func(st Stats) bool { return st.ShardFallbacks > 0 })
}

// pushesInFlight reports how many pushes of array s's network has started
// and not yet seen return.
func pushesInFlight(s *Store, array string) int {
	s.drains.mu.Lock()
	defer s.drains.mu.Unlock()
	if p := s.drains.arrays[array]; p != nil {
		return p.pushes
	}
	return 0
}

// TestShardInvalidateOnDelete: deleting an array with no push in flight
// drops it from the tier before Delete returns.
func TestShardInvalidateOnDelete(t *testing.T) {
	shard := newFakeShard(false)
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writeShardArray(t, s, "a", 2, 512)
	deadline := time.Now().Add(5 * time.Second)
	for shard.held() != 2 || pushesInFlight(s, "a") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shard holds %d blocks with %d pushes in flight, want 2 and 0", shard.held(), pushesInFlight(s, "a"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if shard.held() != 0 {
		t.Fatalf("shard still holds %d blocks after delete", shard.held())
	}
	shard.mu.Lock()
	inv := len(shard.invalidated)
	shard.mu.Unlock()
	if inv != 1 {
		t.Fatalf("InvalidateArray called %d times, want 1", inv)
	}
}

// TestShardDeleteWaitsForPushes: a delete while pushes of the array are in
// flight on two stores of one network invalidates the array once, after the
// last of them has returned, so no pushed copy outlives the array.
func TestShardDeleteWaitsForPushes(t *testing.T) {
	const blockSize = 512
	shard := newFakeShard(false)
	shard.gate = make(chan struct{})
	stores, err := NewNetwork(2, func(node int, cfg *Config) { cfg.Shard = shard })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	if err := stores[0].Create("a", 2*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	for b, s := range stores {
		lease, err := s.RequestBlock("a", b, PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
	}
	for pushesInFlight(stores[0], "a") != 2 {
		runtime.Gosched()
	}
	if err := stores[1].Delete("a"); err != nil {
		t.Fatal(err)
	}
	shard.mu.Lock()
	early := len(shard.invalidated)
	shard.mu.Unlock()
	if early != 0 {
		t.Fatalf("InvalidateArray ran %d times with two pushes in flight", early)
	}
	close(shard.gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		shard.mu.Lock()
		inv := len(shard.invalidated)
		shard.mu.Unlock()
		if inv == 1 && shard.held() == 0 && pushesInFlight(stores[0], "a") == 0 {
			break
		}
		if inv > 1 || time.Now().After(deadline) {
			t.Fatalf("after the pushes returned: %d invalidations, %d blocks held, want 1 and 0", inv, shard.held())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardDurableBlockServedToPeer is the storage-level form of the
// two-engine-node ring deadlock: a node writes a block, the push to the shard
// tier comes back durable, the node drops the block — its only other copy is
// now on the tier, and only this node knows — and a second node reads it.
// The second node's query must come back with the bytes wherever the block's
// directory home is: at the writer (whose handleQuery used to find "not
// resident, not on my disk", and parked the requester in a pending list
// nothing wakes), or at the reader itself (whose directory never heard of a
// durable copy).
func TestShardDurableBlockServedToPeer(t *testing.T) {
	const blockSize = 1024
	for _, homeIsWriter := range []bool{true, false} {
		t.Run(fmt.Sprintf("homeIsWriter=%v", homeIsWriter), func(t *testing.T) {
			shard := newFakeShard(true)
			stores, err := NewNetwork(2, func(node int, cfg *Config) { cfg.Shard = shard })
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, s := range stores {
					s.Close()
				}
			}()
			writer, reader := stores[0], stores[1]
			name := ""
			for i := 0; name == ""; i++ {
				if n := fmt.Sprintf("a%d", i); (writer.homeOf(n, 0) == 0) == homeIsWriter {
					name = n
				}
			}
			payload := writeShardArray(t, writer, name, 1, blockSize)
			// The durable verdict reaches the writer's loop some time after
			// PushBlock returns. Until it has, Evict refuses ("the only
			// copy"); each refusal is a round trip through that loop, so
			// this waits on the event itself, not on a clock.
			for writer.Evict(name, 0) != nil {
				runtime.Gosched()
			}
			if residentBlock(writer, name, 0) {
				t.Fatal("the writer still holds the block after Evict")
			}
			type result struct {
				data []byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				lease, err := reader.Request(name, 0, blockSize, PermRead)
				if err != nil {
					done <- result{err: err}
					return
				}
				done <- result{data: append([]byte(nil), lease.Data...)}
				lease.Release()
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatal(r.err)
				}
				if !bytes.Equal(r.data, payload[0]) {
					t.Fatal("the peer read different bytes than were written")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the peer's read of a block whose only copy is on the shard tier never returned")
			}
		})
	}
}
