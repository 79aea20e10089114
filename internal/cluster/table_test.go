package cluster

import (
	"bytes"
	"sync"
	"testing"
)

func tableData(size int, fill byte) []byte {
	d := make([]byte, size)
	for i := range d {
		d[i] = fill
	}
	return d
}

// TestTableEpochOrdering checks the anti-rollback contract: an older-epoch
// put is refused, an equal-epoch put (reconnect replay) overwrites
// idempotently, a newer-epoch put supersedes.
func TestTableEpochOrdering(t *testing.T) {
	tb := NewBlockTable(1 << 20)
	if !tb.Put("A", 0, 5, tableData(8, 5), false) {
		t.Fatal("initial put refused")
	}
	if tb.Put("A", 0, 3, tableData(8, 3), false) {
		t.Fatal("older-epoch put accepted (rollback)")
	}
	if !tb.Put("A", 0, 5, tableData(8, 5), false) {
		t.Fatal("equal-epoch replay refused")
	}
	if !tb.Put("A", 0, 7, tableData(8, 7), false) {
		t.Fatal("newer-epoch put refused")
	}
	data, epoch, ok := tb.Get("A", 0)
	if !ok || epoch != 7 || !bytes.Equal(data, tableData(8, 7)) {
		t.Fatalf("resident after supersede: epoch=%d ok=%v data=%v", epoch, ok, data)
	}
}

// TestTableLRUDropsUnpinned checks that over budget the least recently
// served unpinned entries are shed, while recently served ones survive.
func TestTableLRUDropsUnpinned(t *testing.T) {
	tb := NewBlockTable(3 * 100)
	for b := 0; b < 3; b++ {
		if !tb.Put("A", b, 1, tableData(100, byte(b)), false) {
			t.Fatalf("put block %d refused", b)
		}
	}
	// Touch block 0 so block 1 is the LRU victim when block 3 arrives.
	if _, _, ok := tb.Get("A", 0); !ok {
		t.Fatal("block 0 missing before pressure")
	}
	if !tb.Put("A", 3, 1, tableData(100, 3), false) {
		t.Fatal("put under pressure refused")
	}
	if _, _, ok := tb.Get("A", 1); ok {
		t.Fatal("LRU victim (block 1) still resident")
	}
	for _, b := range []int{0, 2, 3} {
		if _, _, ok := tb.Get("A", b); !ok {
			t.Fatalf("block %d evicted though not LRU", b)
		}
	}
	if tb.Len() != 3 || tb.Bytes() != 300 {
		t.Fatalf("residency after reclaim: len=%d bytes=%d", tb.Len(), tb.Bytes())
	}
}

// TestTablePinnedSurvivePressure checks the durability contract: pinned
// (durable) entries are never LRU victims, even when unpinned churn blows
// through the budget.
func TestTablePinnedSurvivePressure(t *testing.T) {
	tb := NewBlockTable(2 * 100)
	if !tb.Put("A", 0, 1, tableData(100, 0), true) {
		t.Fatal("durable put refused")
	}
	for b := 1; b < 10; b++ {
		tb.Put("B", b, 1, tableData(100, byte(b)), false)
	}
	if _, _, ok := tb.Get("A", 0); !ok {
		t.Fatal("durable entry was LRU-dropped")
	}
}

// TestTablePinnedBackpressure checks that durable puts are refused rather
// than pinning unboundedly: the pusher sees the missing ack and keeps its
// local durability path.
func TestTablePinnedBackpressure(t *testing.T) {
	tb := NewBlockTable(150)
	if !tb.Put("A", 0, 1, tableData(100, 0), true) {
		t.Fatal("first durable put refused under budget")
	}
	if tb.Put("A", 1, 1, tableData(100, 1), true) {
		t.Fatal("durable put accepted over the pinned budget")
	}
	// Unpinned puts are still welcome (they are shed under pressure).
	if !tb.Put("A", 2, 1, tableData(40, 2), false) {
		t.Fatal("unpinned put refused")
	}
	// Upgrading a resident unpinned entry to durable respects the bound too.
	if tb.Put("A", 2, 2, tableData(60, 2), true) {
		t.Fatal("durable upgrade accepted over the pinned budget")
	}
	// Dropping the pinned array frees pinned bytes; durable puts fit again.
	if n := tb.DeleteArray("A"); n == 0 {
		t.Fatal("DeleteArray dropped nothing")
	}
	if !tb.Put("C", 0, 1, tableData(100, 9), true) {
		t.Fatal("durable put refused after pinned bytes were freed")
	}
}

// TestTableDeleteArrayAccounting checks that DeleteArray drops exactly the
// named array's blocks and returns the byte/len accounting to zero.
func TestTableDeleteArrayAccounting(t *testing.T) {
	tb := NewBlockTable(1 << 20)
	for b := 0; b < 4; b++ {
		tb.Put("gone", b, 1, tableData(50, byte(b)), b%2 == 0)
		tb.Put("kept", b, 1, tableData(50, byte(b)), false)
	}
	if n := tb.DeleteArray("gone"); n != 4 {
		t.Fatalf("DeleteArray dropped %d blocks, want 4", n)
	}
	if n := tb.DeleteArray("gone"); n != 0 {
		t.Fatalf("second DeleteArray dropped %d blocks", n)
	}
	for b := 0; b < 4; b++ {
		if _, _, ok := tb.Get("gone", b); ok {
			t.Fatalf("deleted block %d still resident", b)
		}
		if _, _, ok := tb.Get("kept", b); !ok {
			t.Fatalf("unrelated block %d vanished", b)
		}
	}
	if tb.Len() != 4 || tb.Bytes() != 200 {
		t.Fatalf("after delete: len=%d bytes=%d, want 4/200", tb.Len(), tb.Bytes())
	}
	// An array's pinned blocks free their pinned bytes: a durable put that
	// fills the whole pinned budget fits again afterwards.
	pinned := NewBlockTable(100)
	if !pinned.Put("P", 0, 1, tableData(100, 1), true) {
		t.Fatal("durable put refused under budget")
	}
	if n := pinned.DeleteArray("P"); n != 1 {
		t.Fatalf("DeleteArray of the pinned array dropped %d blocks, want 1", n)
	}
	if !pinned.Put("P", 1, 1, tableData(100, 2), true) {
		t.Fatal("durable put refused after the pinned array was deleted")
	}
}

// TestTableConcurrent hammers one table with concurrent unpinned fills at
// rising epochs, reads, LRU drops (the budget holds half the blocks) and
// whole-array deletes: the -race exercise for the shard table's unpinned
// path. Readers assert self-consistency: whatever epoch a read lands on, the
// bytes must be that epoch's fill pattern (entries are replaced wholesale,
// never written in place).
func TestTableConcurrent(t *testing.T) {
	const (
		blocks  = 8
		rounds  = 200
		readers = 4
	)
	c := NewBlockTable(blocks / 2 * 64)
	var wg sync.WaitGroup
	wg.Add(1 + readers + 1)
	go func() { // writer: rising epochs per block
		defer wg.Done()
		for e := uint64(1); e <= rounds; e++ {
			for b := 0; b < blocks; b++ {
				c.Put("x_t", b, e, tableData(64, byte(e)), false)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*blocks; i++ {
				data, epoch, ok := c.Get("x_t", i%blocks)
				if !ok {
					continue
				}
				for _, by := range data {
					if by != byte(epoch) {
						t.Errorf("read at epoch %d returned %v", epoch, data[:8])
						return
					}
				}
			}
		}()
	}
	go func() { // invalidator: the delete path
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			c.DeleteArray("x_t")
		}
	}()
	wg.Wait()
}
