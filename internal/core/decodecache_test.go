package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

func stageRaw(t *testing.T, s *storage.Store, name string, m *sparse.CSR) {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArray(name, buf.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
}

func testMatrix(t *testing.T, seed int64) *sparse.CSR {
	t.Helper()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 60, Cols: 60, D: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeCacheHitsAndEviction(t *testing.T) {
	s, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := testMatrix(t, 1)
	for _, name := range []string{"a", "b", "c"} {
		stageRaw(t, s, name, m)
	}

	// Capacity for roughly two decoded copies. The counters come from a nil
	// registry: they count all the same.
	c := newDecodeCache(2*m.Bytes()+64, nil, 0)
	steps := []struct {
		array        string
		hits, misses int64
		resident     []string
		evicted      []string
	}{
		{array: "a", hits: 0, misses: 1, resident: []string{"a"}},
		{array: "a", hits: 1, misses: 1, resident: []string{"a"}},
		{array: "b", hits: 1, misses: 2, resident: []string{"a", "b"}},
		{array: "a", hits: 2, misses: 2, resident: []string{"a", "b"}},
		// Loading c evicts the LRU (b), not the more recently used a.
		{array: "c", hits: 2, misses: 3, resident: []string{"a", "c"}, evicted: []string{"b"}},
	}
	for i, st := range steps {
		got, err := c.matrix(s, st.array)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != m.NNZ() {
			t.Fatalf("step %d %s: nnz %d", i, st.array, got.NNZ())
		}
		for j := range m.Val {
			if math.Float64bits(got.Val[j]) != math.Float64bits(m.Val[j]) {
				t.Fatalf("step %d %s: decoded value %d differs", i, st.array, j)
			}
		}
		if hits, misses := c.stats(); hits != st.hits || misses != st.misses {
			t.Fatalf("step %d %s: hits=%d misses=%d, want %d/%d", i, st.array, hits, misses, st.hits, st.misses)
		}
		for _, name := range st.resident {
			if !c.peek(name) {
				t.Fatalf("step %d %s: %s not resident", i, st.array, name)
			}
		}
		for _, name := range st.evicted {
			if c.peek(name) {
				t.Fatalf("step %d %s: %s not evicted", i, st.array, name)
			}
		}
	}
	// peek touches neither recency nor the counts.
	if hits, misses := c.stats(); hits != 2 || misses != 3 {
		t.Fatalf("peek moved the counts: hits=%d misses=%d", hits, misses)
	}
	// Invalidate drops entries and is nil-safe.
	c.invalidate("a")
	if c.peek("a") {
		t.Fatal("invalidate did not drop a")
	}
	var nilCache *decodeCache
	nilCache.invalidate("x")
	if h, m := nilCache.stats(); h != 0 || m != 0 {
		t.Fatal("nil cache stats")
	}
	if _, err := nilCache.matrix(s, "a"); err != nil {
		t.Fatalf("nil cache read-through: %v", err)
	}
}

func TestDecodeCacheDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.decode[0] != nil {
		t.Fatal("decode cache enabled without DecodeCacheBytes")
	}
}

// TestDecodeCacheOnTheEnginePath runs the staged out-of-core SpMV twice on
// one system under a two-block storage budget, with the decode cache off and
// on. The iterate is the same bits either way. With a cache that holds the
// working set, the first run decodes each block once (misses == distinct
// blocks, every other touch a hit) and the second, warm, run hands the
// storage prefetcher nothing: a block the cache holds costs no storage bytes.
func TestDecodeCacheOnTheEnginePath(t *testing.T) {
	const dim, k, nodes, iters = 600, 3, 3, 4
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rand.New(rand.NewSource(21)), dim)
	want := "" // the first case's iterate; every later run must repeat its bits

	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{
		{"uncached", 0},
		{"cached", 1 << 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
			if err := StageMatrix(root, m, cfg); err != nil {
				t.Fatal(err)
			}
			info, err := DiscoverStagedMatrix(root)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sys, err := NewSystem(Options{
				Nodes:            nodes,
				WorkersPerNode:   1,
				MemoryBudget:     2*info.Bytes/int64(k*k) + 1<<14,
				ScratchRoot:      root,
				PrefetchWindow:   2,
				Reorder:          true,
				DecodeCacheBytes: tc.cacheBytes,
				Obs:              reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			cold, err := RunIteratedSpMV(sys, cfg, x0)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(cold.X, referenceIterate(m, x0, iters)); d > 1e-9 {
				t.Fatalf("iterate diverges from the in-core reference by %v", d)
			}
			if want == "" {
				want = shaOf(cold.X)
			}
			if got := shaOf(cold.X); got != want {
				t.Fatalf("iterate %s, uncached run %s", got[:16], want[:16])
			}
			hits := reg.Sum("dooc_core_decode_cache_hits_total")
			misses := reg.Sum("dooc_core_decode_cache_misses_total")
			if tc.cacheBytes == 0 {
				if hits+misses != 0 {
					t.Fatalf("no cache, yet hits=%d misses=%d", hits, misses)
				}
			} else if misses != k*k || hits != (iters-1)*k*k {
				t.Fatalf("hits=%d misses=%d, want %d/%d (one decode per distinct block)", hits, misses, (iters-1)*k*k, k*k)
			}

			cfg.Tag = "warm"
			warm, err := RunIteratedSpMV(sys, cfg, x0)
			if err != nil {
				t.Fatal(err)
			}
			if got := shaOf(warm.X); got != want {
				t.Fatalf("warm iterate %s, uncached run %s", got[:16], want[:16])
			}
			prefetched := warm.Stats.PrefetchLoads()
			if tc.cacheBytes == 0 && prefetched == 0 {
				t.Error("uncached warm run prefetched nothing: the cached case below proves nothing")
			}
			if tc.cacheBytes != 0 {
				if prefetched != 0 {
					t.Errorf("warm run prefetched %d blocks the decode cache already held", prefetched)
				}
				if got := reg.Sum("dooc_core_decode_cache_misses_total"); got != misses {
					t.Errorf("warm run decoded again: misses %d -> %d", misses, got)
				}
			}
		})
	}
}
