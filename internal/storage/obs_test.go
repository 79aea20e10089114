package storage

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/obs"
)

// seriesValue extracts one node's series value from a registry snapshot.
func seriesValue(t *testing.T, snap []obs.SeriesSnapshot, name string, node int) int64 {
	t.Helper()
	want := strconv.Itoa(node)
	for _, s := range snap {
		if s.Name != name {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "node" && l.Value == want {
				return s.Value
			}
		}
	}
	return 0
}

// assertRegistryConsistent checks the structural invariants every snapshot
// must satisfy: no negative counter or observation count, and histogram
// bucket counts summing exactly to the observation count.
func assertRegistryConsistent(t *testing.T, reg *obs.Registry) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Kind == "counter" && s.Value < 0 {
			t.Errorf("%s = %d, counters must not go negative", s.ID(), s.Value)
		}
		if s.Kind != "histogram" {
			continue
		}
		var sum int64
		for _, c := range s.Buckets {
			if c < 0 {
				t.Errorf("%s has negative bucket count %d", s.ID(), c)
			}
			sum += c
		}
		if sum != s.Value {
			t.Errorf("%s buckets sum to %d, observation count is %d", s.ID(), sum, s.Value)
		}
	}
}

// TestMetricsReconcileWithStats drives a local store through writes, flushes,
// evictions, prefetches, and re-reads, then checks that every registry series
// agrees exactly with the loop's own Stats bookkeeping — the two are updated
// at the same call sites, so any divergence is an instrumentation bug.
func TestMetricsReconcileWithStats(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewLocal(Config{
		MemoryBudget: 2048, // two 1 KiB blocks
		ScratchDir:   t.TempDir(),
		IOWorkers:    2,
		Seed:         1,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const blocks, blockSize = 8, 1024
	if err := s.Create("a", blocks*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		w, err := s.RequestBlock("a", i, PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		for j := range w.Data {
			w.Data[j] = byte(i)
		}
		w.Release()
	}
	if err := s.Flush("a"); err != nil {
		t.Fatal(err)
	}

	// Two sequential passes over all blocks: with a two-block budget the
	// store must evict and re-load, exercising misses and implicit reads.
	// Reading each block twice in a row adds a hit per block.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < blocks; i++ {
			for rep := 0; rep < 2; rep++ {
				r, err := s.RequestBlock("a", i, PermRead)
				if err != nil {
					t.Fatal(err)
				}
				if r.Data[0] != byte(i) {
					t.Fatalf("block %d corrupted: %d", i, r.Data[0])
				}
				r.Release()
			}
		}
	}

	// Prefetch a block that was evicted by the passes above, wait until the
	// load lands, then read it: one prefetch load and one prefetch hit.
	before := s.Stats()
	s.PrefetchBlock("a", 0)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().BlockLoads == before.BlockLoads {
		if time.Now().After(deadline) {
			t.Fatal("prefetch never loaded block 0")
		}
		time.Sleep(time.Millisecond)
	}
	r, err := s.RequestBlock("a", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}

	// Every outcome a prefetched block can have, with block 0 still leased in
	// a two-block budget. One-block requests, so requests count blocks.
	prefetch := func(block int, wantLoad bool) {
		t.Helper()
		before := s.Stats().BlockLoads
		s.PrefetchBlock("a", block)
		for wantLoad && s.Stats().BlockLoads == before {
			if time.Now().After(deadline) {
				t.Fatalf("prefetch never loaded block %d", block)
			}
			time.Sleep(time.Millisecond)
		}
	}
	mid := s.Stats()
	prefetch(0, false) // resident
	prefetch(5, true)  // admitted beside the leased block
	prefetch(6, false) // deferred: a leased and an unread block fill the budget
	prefetch(5, false) // resident
	r.Release()
	if r, err = s.RequestBlock("a", 5, PermRead); err != nil {
		t.Fatal(err)
	}
	r.Release()
	prefetch(6, true)  // admitted now
	prefetch(6, false) // resident
	st := s.Stats()
	if issued, loads, deferred := st.PrefetchIssued-mid.PrefetchIssued, st.PrefetchLoads-mid.PrefetchLoads, st.PrefetchDeferred-mid.PrefetchDeferred; issued != 6 || loads != 2 || deferred != 1 {
		t.Errorf("6 prefetched blocks, 3 of them resident: issued %d = loads %d + deferred %d + 3?", issued, loads, deferred)
	}
	if got := st.PrefetchHits - mid.PrefetchHits; got != 1 {
		t.Errorf("prefetch hits = %d, want 1: block 5 was read once, resident", got)
	}

	snap := reg.Snapshot()
	counters := []struct {
		name string
		want int64
	}{
		{"dooc_storage_read_requests_total", st.ReadRequests},
		{"dooc_storage_write_requests_total", st.WriteRequests},
		{"dooc_storage_cache_hits_total", st.Hits},
		{"dooc_storage_cache_misses_total", st.Misses},
		{"dooc_storage_evictions_total", st.Evictions},
		{"dooc_storage_block_loads_total", st.BlockLoads},
		{"dooc_storage_prefetch_issued_total", st.PrefetchIssued},
		{"dooc_storage_prefetch_loads_total", st.PrefetchLoads},
		{"dooc_storage_prefetch_hits_total", st.PrefetchHits},
		{"dooc_storage_prefetch_deferred_total", st.PrefetchDeferred},
		{"dooc_storage_mem_used_bytes", st.MemUsed},
		{"dooc_storage_disk_read_bytes_total", st.BytesReadDisk},
		{"dooc_storage_disk_write_bytes_total", st.BytesWrittenDisk},
		{"dooc_storage_peer_fetch_bytes_total", st.BytesFetchedPeer},
		{"dooc_storage_io_retries_total", st.IORetries},
		{"dooc_storage_over_budget_allocs_total", st.OverBudgetAllocs},
	}
	for _, c := range counters {
		if got := seriesValue(t, snap, c.name, 0); got != c.want {
			t.Errorf("%s = %d, Stats says %d", c.name, got, c.want)
		}
	}

	// Workload-level invariants the paper's accounting depends on.
	if st.Hits+st.Misses != st.ReadRequests {
		t.Errorf("hits(%d) + misses(%d) != read requests(%d)", st.Hits, st.Misses, st.ReadRequests)
	}
	if st.PrefetchHits > st.PrefetchLoads {
		t.Errorf("prefetch hits(%d) > prefetch loads(%d)", st.PrefetchHits, st.PrefetchLoads)
	}
	if st.PrefetchHits < 1 {
		t.Errorf("prefetch hits = %d, the prefetched block was read", st.PrefetchHits)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite a two-block budget over eight blocks")
	}
	// The third to eighth writes, before the flush, each hold a block no
	// eviction may take beside two others in a two-block budget.
	if st.OverBudgetAllocs != blocks-2 {
		t.Errorf("over-budget allocations = %d, want %d: the writes past the budget before the flush", st.OverBudgetAllocs, blocks-2)
	}
	// Every request round-trips through client.Request, which observes the
	// lease-wait histogram exactly once per request.
	if got := reg.Sum("dooc_storage_lease_wait_seconds"); got != st.ReadRequests+st.WriteRequests {
		t.Errorf("lease wait observations = %d, want read+write requests = %d",
			got, st.ReadRequests+st.WriteRequests)
	}
	// Loads move whole blocks between disk and memory; the byte counters
	// must be exact block multiples.
	if st.BytesReadDisk%blockSize != 0 {
		t.Errorf("disk read bytes %d not a multiple of the block size", st.BytesReadDisk)
	}
	assertRegistryConsistent(t, reg)
}

// TestCompressMetricsReconcile drives a codec-configured store through a
// mixed spill (compressible and incompressible blocks), then checks the
// per-codec registry series reconcile with the loop's Stats bookkeeping and
// satisfy the compression invariant stored <= raw for every real codec.
func TestCompressMetricsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   t.TempDir(),
		Seed:         1,
		Obs:          reg,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const blockSize = 512
	smooth := smoothPayload(4 * blockSize)
	noise := make([]byte, 2*blockSize)
	rand.New(rand.NewSource(7)).Read(noise)
	for name, payload := range map[string][]byte{"smooth": smooth, "noise": noise} {
		if err := s.WriteArray(name, payload, blockSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi*blockSize < len(payload); bi++ {
			if err := s.Evict(name, bi); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s round trip corrupted", name)
		}
	}

	st := s.Stats()
	if st.CompressBailouts == 0 {
		t.Fatal("random blocks never tripped the adaptive bail-out")
	}
	if st.CompressStoredBytes >= st.CompressRawBytes {
		t.Fatalf("stored %d >= raw %d: mixed spill did not shrink", st.CompressStoredBytes, st.CompressRawBytes)
	}

	// Registry family sums must equal the Stats the loop keeps — both are
	// updated at the same call sites.
	sums := []struct {
		name string
		want int64
	}{
		{"dooc_storage_compress_raw_bytes_total", st.CompressRawBytes},
		{"dooc_storage_compress_stored_bytes_total", st.CompressStoredBytes},
		{"dooc_storage_decompress_stored_bytes_total", st.DecompressStoredBytes},
		{"dooc_storage_decompress_raw_bytes_total", st.DecompressRawBytes},
		{"dooc_storage_compress_bailouts_total", st.CompressBailouts},
		{"dooc_storage_disk_write_bytes_total", st.BytesWrittenDisk},
		{"dooc_storage_disk_read_bytes_total", st.BytesReadDisk},
	}
	for _, c := range sums {
		if got := reg.Sum(c.name); got != c.want {
			t.Errorf("Sum(%s) = %d, Stats says %d", c.name, got, c.want)
		}
	}
	// Physical disk traffic is the frame traffic.
	if st.BytesWrittenDisk != st.CompressStoredBytes {
		t.Errorf("BytesWrittenDisk = %d, CompressStoredBytes = %d", st.BytesWrittenDisk, st.CompressStoredBytes)
	}
	if st.BytesReadDisk != st.DecompressStoredBytes {
		t.Errorf("BytesReadDisk = %d, DecompressStoredBytes = %d", st.BytesReadDisk, st.DecompressStoredBytes)
	}
	// Ratio gauge agrees with the cumulative stats.
	if want := 100 * st.CompressRawBytes / st.CompressStoredBytes; reg.Sum("dooc_storage_compress_ratio_percent") != want {
		t.Errorf("ratio gauge = %d, want %d", reg.Sum("dooc_storage_compress_ratio_percent"), want)
	}
	// Per-codec invariant: a real codec only keeps a block when it shrank, so
	// stored <= raw codec by codec. Raw (bail-out) frames pay the header.
	for _, name := range compress.Names() {
		raw := reg.SumWhere("dooc_storage_compress_raw_bytes_total", "codec", name)
		stored := reg.SumWhere("dooc_storage_compress_stored_bytes_total", "codec", name)
		if name != "raw" && stored > raw {
			t.Errorf("codec %s stored %d > raw %d", name, stored, raw)
		}
		// Every byte spilled was read back exactly once above.
		if dec := reg.SumWhere("dooc_storage_decompress_stored_bytes_total", "codec", name); dec != stored {
			t.Errorf("codec %s: read back %d frame bytes, wrote %d", name, dec, stored)
		}
	}
	// Both the default codec and the raw bail-out contributed series.
	if reg.SumWhere("dooc_storage_compress_stored_bytes_total", "codec", compress.Default().Name()) == 0 {
		t.Errorf("no stored bytes attributed to the default codec %q", compress.Default().Name())
	}
	if reg.SumWhere("dooc_storage_compress_stored_bytes_total", "codec", "raw") == 0 {
		t.Error("no stored bytes attributed to the raw bail-out")
	}
	assertRegistryConsistent(t, reg)
}

// TestMetricsReconcileAcrossNodes runs a distributed store network against a
// single shared registry and checks that per-node series reconcile with each
// node's Stats, including the peer-fetch counters a local store never touches.
func TestMetricsReconcileAcrossNodes(t *testing.T) {
	reg := obs.NewRegistry()
	stores, err := NewNetwork(3, func(node int, cfg *Config) {
		cfg.MemoryBudget = 1 << 20
		cfg.Seed = int64(node + 1)
		cfg.Obs = reg
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})

	const blockSize = 512
	if err := stores[0].Create("x", 4*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w, err := stores[i%len(stores)].RequestBlock("x", i, PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		w.Data[0] = byte(i)
		w.Release()
	}
	// Every node reads every block: most reads resolve via peer fetches.
	for _, s := range stores {
		for i := 0; i < 4; i++ {
			r, err := s.RequestBlock("x", i, PermRead)
			if err != nil {
				t.Fatal(err)
			}
			if r.Data[0] != byte(i) {
				t.Fatalf("node %d block %d corrupted", s.NodeID(), i)
			}
			r.Release()
		}
	}

	snap := reg.Snapshot()
	var totalPeerBytes int64
	for i, s := range stores {
		st := s.Stats()
		pairs := []struct {
			name string
			want int64
		}{
			{"dooc_storage_read_requests_total", st.ReadRequests},
			{"dooc_storage_write_requests_total", st.WriteRequests},
			{"dooc_storage_cache_hits_total", st.Hits},
			{"dooc_storage_cache_misses_total", st.Misses},
			{"dooc_storage_peer_probes_total", st.PeerProbes},
			{"dooc_storage_peer_probe_misses_total", st.PeerProbeMisses},
			{"dooc_storage_peer_fetch_bytes_total", st.BytesFetchedPeer},
			{"dooc_storage_block_loads_total", st.BlockLoads},
		}
		for _, p := range pairs {
			if got := seriesValue(t, snap, p.name, i); got != p.want {
				t.Errorf("node %d: %s = %d, Stats says %d", i, p.name, got, p.want)
			}
		}
		totalPeerBytes += st.BytesFetchedPeer
	}
	if totalPeerBytes == 0 {
		t.Error("no peer fetches in a 3-node all-read workload")
	}
	if got := reg.Sum("dooc_storage_peer_fetch_bytes_total"); got != totalPeerBytes {
		t.Errorf("registry peer bytes %d != summed stats %d", got, totalPeerBytes)
	}
	assertRegistryConsistent(t, reg)
}

// TestFeatureFamiliesRegisteredOnlyWhenConfigured: the shard tier's six
// counters and the spill codec's bail-out, ratio and encode series exist
// only on a store configured with that feature; the decode histogram exists
// on every store.
func TestFeatureFamiliesRegisteredOnlyWhenConfigured(t *testing.T) {
	shardNames := []string{
		"dooc_storage_shard_pushes_total", "dooc_storage_shard_durable_total",
		"dooc_storage_shard_fetches_total", "dooc_storage_shard_fallbacks_total",
		"dooc_storage_shard_push_bytes_total", "dooc_storage_shard_fetch_bytes_total",
	}
	codecNames := []string{
		"dooc_storage_compress_bailouts_total", "dooc_storage_compress_ratio_percent",
		"dooc_storage_compress_encode_seconds",
	}
	for _, tc := range []struct {
		name         string
		cfg          Config
		shard, codec bool
	}{
		{"neither", Config{}, false, false},
		{"codec", Config{Codec: compress.Default()}, false, true},
		{"shard", Config{Shard: newFakeShard(false)}, true, false},
	} {
		reg := obs.NewRegistry()
		tc.cfg.Obs, tc.cfg.MemoryBudget = reg, 1<<20
		s, err := NewLocal(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		totals := reg.Totals()
		for _, names := range []struct {
			list []string
			want bool
		}{{shardNames, tc.shard}, {codecNames, tc.codec}, {[]string{"dooc_storage_compress_decode_seconds"}, true}} {
			for _, name := range names.list {
				if _, ok := totals[name]; ok != names.want {
					t.Errorf("%s store: %s registered %v, want %v", tc.name, name, ok, names.want)
				}
			}
		}
	}
}
