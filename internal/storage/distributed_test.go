package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newTestNetwork(t *testing.T, n int, budget int64, scratch bool) []*Store {
	t.Helper()
	stores, err := NewNetwork(n, func(node int, cfg *Config) {
		cfg.MemoryBudget = budget
		if scratch {
			cfg.ScratchDir = filepath.Join(t.TempDir(), fmt.Sprintf("node%d", node))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

func TestCreateVisibleEverywhere(t *testing.T) {
	stores := newTestNetwork(t, 4, 1<<20, false)
	if err := stores[2].Create("shared", 128, 64); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		info, err := s.Info("shared")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if info.Size != 128 {
			t.Fatalf("node %d: info = %+v", i, info)
		}
	}
	// Duplicate create from another node is rejected.
	if err := stores[0].Create("shared", 128, 64); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestRemoteReadAfterRemoteWrite(t *testing.T) {
	stores := newTestNetwork(t, 3, 1<<20, false)
	if err := stores[0].Create("v", 64, 64); err != nil {
		t.Fatal(err)
	}
	w, err := stores[0].RequestBlock("v", 0, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(w.Data, bytes.Repeat([]byte("R"), 64))
	w.Release()
	// Another node reads: the block must be located via probe/home and
	// fetched.
	r, err := stores[2].RequestBlock("v", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, bytes.Repeat([]byte("R"), 64)) {
		t.Fatalf("remote read = %q", r.Data)
	}
	r.Release()
	if stores[2].Stats().BytesFetchedPeer != 64 {
		t.Errorf("BytesFetchedPeer = %d, want 64", stores[2].Stats().BytesFetchedPeer)
	}
}

func TestRemoteReadBlocksUntilWritten(t *testing.T) {
	stores := newTestNetwork(t, 3, 1<<20, false)
	if err := stores[0].Create("late", 32, 32); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		r, err := stores[1].RequestBlock("late", 0, PermRead)
		if err != nil {
			got <- nil
			return
		}
		data := append([]byte(nil), r.Data...)
		r.Release()
		got <- data
	}()
	select {
	case <-got:
		t.Fatal("read completed before any write")
	case <-time.After(50 * time.Millisecond):
	}
	w, err := stores[2].RequestBlock("late", 0, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(w.Data, bytes.Repeat([]byte("L"), 32))
	w.Release()
	select {
	case data := <-got:
		if !bytes.Equal(data, bytes.Repeat([]byte("L"), 32)) {
			t.Fatalf("read %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote read never unblocked after write")
	}
}

func TestRemoteFetchFromDisk(t *testing.T) {
	// Node 0 has the array on its scratch disk; node 1 reads it through the
	// network (the testbed's I/O-node pattern).
	dirs := make([]string, 2)
	base := t.TempDir()
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			t.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte("D"), 512)
	if err := os.WriteFile(filepath.Join(dirs[0], "ondisk"+arrayFileSuffix), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	stores, err := NewNetwork(2, func(node int, cfg *Config) {
		cfg.MemoryBudget = 1 << 20
		cfg.ScratchDir = dirs[node]
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	got, err := stores[1].ReadAll("ondisk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote disk fetch mismatch")
	}
	if stores[1].Stats().BytesFetchedPeer != 512 {
		t.Errorf("BytesFetchedPeer = %d, want 512", stores[1].Stats().BytesFetchedPeer)
	}
	if stores[0].Stats().ImplicitDiskReads == 0 {
		t.Error("holder did not perform an implicit disk read")
	}
}

// TestPeerBytesCountCrossNodeTraffic: a block one node fetches from another
// is counted once, by the node that received it.
func TestPeerBytesCountCrossNodeTraffic(t *testing.T) {
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
	if err := stores[0].WriteArray("t", bytes.Repeat([]byte("x"), 256), 256); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[1].ReadAll("t"); err != nil {
		t.Fatal(err)
	}
	if got0, got1 := stores[0].Stats().BytesFetchedPeer, stores[1].Stats().BytesFetchedPeer; got0 != 0 || got1 != 256 {
		t.Fatalf("BytesFetchedPeer = %d and %d, want 0 and 256", got0, got1)
	}
}

func TestManyNodesManyBlocksAllReadable(t *testing.T) {
	const nodes = 5
	stores := newTestNetwork(t, nodes, 1<<20, false)
	// Each node writes its own array; every node then reads every array.
	for i, s := range stores {
		name := fmt.Sprintf("arr%d", i)
		if err := s.WriteArray(name, bytes.Repeat([]byte{byte('0' + i)}, 200), 50); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, nodes*nodes)
	for _, s := range stores {
		for j := 0; j < nodes; j++ {
			wg.Add(1)
			go func(s *Store, j int) {
				defer wg.Done()
				want := bytes.Repeat([]byte{byte('0' + j)}, 200)
				got, err := s.ReadAll(fmt.Sprintf("arr%d", j))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("node %d arr%d mismatch", s.NodeID(), j)
				}
			}(s, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEvictionThenRemoteRefetch(t *testing.T) {
	// Node 1 fetches a block from node 0, evicts it under pressure, then
	// refetches it successfully.
	stores, err := NewNetwork(2, func(node int, cfg *Config) {
		cfg.MemoryBudget = 96 // fits one 64-byte block + slack
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	if err := stores[0].WriteArray("a", bytes.Repeat([]byte("a"), 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := stores[0].WriteArray("b", bytes.Repeat([]byte("b"), 64), 64); err != nil {
		t.Fatal(err)
	}
	// Fetch a then b on node 1: b's arrival evicts a (remote-backed).
	if _, err := stores[1].ReadAll("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[1].ReadAll("b"); err != nil {
		t.Fatal(err)
	}
	if stores[1].Stats().Evictions == 0 {
		t.Fatal("expected eviction on node 1")
	}
	// Refetch a.
	got, err := stores[1].ReadAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("a"), 64)) {
		t.Fatal("refetch mismatch")
	}
}

func TestDistributedDelete(t *testing.T) {
	stores := newTestNetwork(t, 3, 1<<20, false)
	if err := stores[0].WriteArray("gone", []byte("abcd"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[1].ReadAll("gone"); err != nil {
		t.Fatal(err)
	}
	if err := stores[2].Delete("gone"); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		if _, err := s.Info("gone"); err == nil {
			t.Errorf("node %d still knows deleted array", i)
		}
	}
}

func TestRandomProbeStatsAdvance(t *testing.T) {
	stores := newTestNetwork(t, 4, 1<<20, false)
	if err := stores[0].WriteArray("p", bytes.Repeat([]byte("p"), 128), 128); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if _, err := stores[i].ReadAll("p"); err != nil {
			t.Fatal(err)
		}
	}
	probes := int64(0)
	for _, s := range stores {
		probes += s.Stats().PeerProbes
	}
	if probes == 0 {
		t.Fatal("no random-peer probes were issued")
	}
}
