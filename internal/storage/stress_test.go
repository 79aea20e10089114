package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentClientsStress hammers a 4-node network from many goroutines
// doing create/write/read/prefetch/flush/delete with verification. Run with
// -race to exercise the actor-model synchronization.
func TestConcurrentClientsStress(t *testing.T) {
	const nodes, clients, arraysPerClient = 4, 8, 6
	stores, err := NewNetwork(nodes, func(node int, cfg *Config) {
		cfg.MemoryBudget = 64 << 10 // 64 KiB: intense eviction pressure
		cfg.ScratchDir = t.TempDir()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, clients*arraysPerClient*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			home := stores[c%nodes]
			for a := 0; a < arraysPerClient; a++ {
				name := fmt.Sprintf("stress-%d-%d", c, a)
				blockSize := int64(256 + rng.Intn(1024))
				blocks := 1 + rng.Intn(5)
				size := blockSize * int64(blocks)
				if err := home.Create(name, size, blockSize); err != nil {
					errs <- err
					return
				}
				// Write every block with a recognizable pattern.
				info := ArrayInfo{Name: name, Size: size, BlockSize: blockSize}
				for b := 0; b < info.NumBlocks(); b++ {
					w, err := home.RequestBlock(name, b, PermWrite)
					if err != nil {
						errs <- err
						return
					}
					for i := range w.Data {
						w.Data[i] = byte(b)
					}
					binary.LittleEndian.PutUint32(w.Data, uint32(c*1000+a))
					w.Release()
				}
				// Random peers read blocks back.
				for trial := 0; trial < 3; trial++ {
					reader := stores[rng.Intn(nodes)]
					b := rng.Intn(info.NumBlocks())
					l, err := reader.RequestBlock(name, b, PermRead)
					if err != nil {
						errs <- fmt.Errorf("%s block %d: %w", name, b, err)
						return
					}
					for i, v := range l.Data {
						if i >= 4 && v != byte(b) {
							errs <- fmt.Errorf("%s block %d byte %d = %d, want %d", name, b, i, v, b)
							l.Release()
							return
						}
					}
					l.Release()
					if rng.Intn(3) == 0 {
						reader.PrefetchBlock(name, b)
					}
				}
				if rng.Intn(2) == 0 {
					if err := home.Flush(name); err != nil {
						errs <- err
						return
					}
				}
				if rng.Intn(4) == 0 {
					// Deletion may race against in-flight prefetches; only
					// hard failures matter, "still leased/in flight" is an
					// acceptable race outcome.
					_ = home.Delete(name)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMultiBlockArrayThroughNetwork verifies block-granular remote fetches:
// a peer reading one block must pull only that block, not the array.
func TestMultiBlockArrayThroughNetwork(t *testing.T) {
	stores, err := NewNetwork(2, func(node int, cfg *Config) {
		cfg.MemoryBudget = 1 << 20
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	const blockSize, blocks = 128, 8
	payload := bytes.Repeat([]byte("0123456789abcdef"), blockSize*blocks/16)
	if err := stores[0].WriteArray("striped", payload, blockSize); err != nil {
		t.Fatal(err)
	}
	// Peer reads block 5.
	l, err := stores[1].RequestBlock("striped", 5, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Data, payload[5*blockSize:6*blockSize]) {
		t.Fatalf("data mismatch: %q", l.Data)
	}
	l.Release()
	if got := stores[1].Stats().BytesFetchedPeer; got != blockSize {
		t.Fatalf("fetched %d bytes, want exactly one block (%d)", got, blockSize)
	}
	// Residency on node 1 shows only block 5.
	refs := make([]BlockRef, blocks)
	for b := range refs {
		refs[b] = BlockRef{"striped", b}
	}
	resident := stores[1].Resident(refs, nil)
	if !resident[5] {
		t.Fatal("block 5 not resident after fetch")
	}
	for b, ok := range resident {
		if b != 5 && ok {
			t.Fatalf("block %d resident without being requested", b)
		}
	}
}
