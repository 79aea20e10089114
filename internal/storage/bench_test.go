package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dooc/internal/compress"
)

// BenchmarkLeaseHit measures the request/release round-trip for resident
// data — the storage layer's hot path under the engine.
func BenchmarkLeaseHit(b *testing.B) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteArray("hot", bytes.Repeat([]byte("h"), 4096), 4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := s.RequestBlock("hot", 0, PermRead)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}

// BenchmarkPeerFetch measures a cross-node block fetch (probe or directory
// redirect included), with re-eviction between fetches.
func BenchmarkPeerFetch(b *testing.B) {
	stores, err := NewNetwork(2, func(node int, cfg *Config) {
		cfg.MemoryBudget = 1 << 20
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	const size = 64 << 10
	if err := stores[0].WriteArray("remote", bytes.Repeat([]byte("r"), size), size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := stores[1].RequestBlock("remote", 0, PermRead)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
		b.StopTimer()
		if err := stores[1].Evict("remote", 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOOCReadThrough measures implicit disk reads through the I/O
// filters, evicting between iterations.
func BenchmarkOOCReadThrough(b *testing.B) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const size = 256 << 10
	if err := s.WriteArray("disk", bytes.Repeat([]byte("d"), size), size); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush("disk"); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := s.RequestBlock("disk", 0, PermRead)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
		b.StopTimer()
		if err := s.Evict("disk", 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCreateDelete measures array lifecycle overhead across a network.
func BenchmarkCreateDelete(b *testing.B) {
	stores, err := NewNetwork(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("tmp%d", i)
		if err := stores[0].Create(name, 1024, 1024); err != nil {
			b.Fatal(err)
		}
		if err := stores[0].Delete(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloat64View measures the full zero-copy read path — lease grant,
// unsafe float64 cast, release — the per-task storage cost of an executor.
// On a little-endian machine this should be alloc-free beyond the lease
// itself.
func BenchmarkFloat64View(b *testing.B) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const elems = 4096
	vals := make([]float64, elems)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := make([]byte, 8*elems)
	EncodeFloat64s(buf, vals)
	if err := s.WriteArray("view", buf, int64(len(buf))); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * elems)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		l, err := s.RequestBlock("view", 0, PermRead)
		if err != nil {
			b.Fatal(err)
		}
		v := Float64View(l)
		sink += v[i%elems]
		l.Release()
	}
	_ = sink
}

// BenchmarkArenaGetPut measures the size-classed buffer arena's recycle
// round trip at the sizes the benchmark workloads move, none of them a
// power of two: a vector block (750 float64s), the spill frame of a
// 24,000-byte vector, a matrix block and a ring block. Once warm a round
// trip must allocate nothing (`make perf-gate`).
func BenchmarkArenaGetPut(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"vector-6000B", 6000},
		{"spill-frame-27082B", compress.FrameHeaderLen + 24000 + 24000/8 + 64},
		{"matrix-618000B", 618_000},
		{"ring-2516000B", 2_516_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewArena()
			a.Put(a.Get(bc.size))
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf := a.Get(bc.size)
				a.Put(buf)
			}
		})
	}
}

// BenchmarkReadBlockFloat64s measures the copy-out read of a 24,000-byte
// vector block — what a Krylov basis read costs — from memory and from its
// slot on scratch (a full-mantissa vector, so a raw frame, read straight into
// the caller's slice and checked against its CRC). Neither installs a block;
// both must allocate nothing (`make perf-gate`).
func BenchmarkReadBlockFloat64s(b *testing.B) {
	const blockSize = 24_000
	for _, bc := range []struct {
		name  string
		spill bool
	}{
		{"resident", false},
		{"scratch", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: b.TempDir(), Codec: compress.Default()})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			vec := make([]float64, blockSize/8)
			rng := rand.New(rand.NewSource(1))
			for i := range vec {
				vec[i] = rng.NormFloat64()
			}
			raw := make([]byte, blockSize)
			EncodeFloat64s(raw, vec)
			if err := s.WriteArray("v", raw, blockSize); err != nil {
				b.Fatal(err)
			}
			if bc.spill {
				if err := s.Flush("v"); err != nil {
					b.Fatal(err)
				}
				if err := s.Evict("v", 0); err != nil {
					b.Fatal(err)
				}
			}
			dst := make([]float64, blockSize/8)
			if err := s.ReadBlockFloat64s("v", 0, dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(blockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ReadBlockFloat64s("v", 0, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.MemUsed != 0 && bc.spill {
				b.Fatalf("copy-outs from scratch left %d bytes resident", st.MemUsed)
			}
		})
	}
}

// BenchmarkResidentQuery measures the residency question of one scheduling
// pick: 8 candidate blocks asked about in one Resident call, on a store
// holding 16 readable arrays and on one holding 256 (the arrays a node holds
// at K = 4 and at K = 16). The two alternate in batches of residentBatch
// calls, the side that goes first alternating too; ns/op is the 256-array
// store's mean, and "x-16" is its fastest batch over the 16-array store's
// fastest. A batch that a busy host preempts is slower, never faster, so the
// minimum over many batches is what the code costs, whatever else runs. A
// question costs its candidates, not what else is resident: allocs/op (both
// calls) must be 0 and x-16 at most 1.25 (`make perf-gate`).
func BenchmarkResidentQuery(b *testing.B) {
	const candidates = 8
	setup := func(arrays int) (*Store, []BlockRef) {
		s, err := NewLocal(Config{MemoryBudget: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		block := bytes.Repeat([]byte("r"), 512)
		for i := 0; i < arrays; i++ {
			if err := s.WriteArray(fmt.Sprintf("a%d", i), block, int64(len(block))); err != nil {
				b.Fatal(err)
			}
		}
		refs := make([]BlockRef, candidates)
		for i := range refs {
			refs[i] = BlockRef{fmt.Sprintf("a%d", i*arrays/candidates), 0}
		}
		return s, refs
	}
	small, smallRefs := setup(16)
	defer small.Close()
	large, largeRefs := setup(256)
	defer large.Close()
	out := make([]bool, candidates)
	for _, q := range []struct {
		s    *Store
		refs []BlockRef
	}{{small, smallRefs}, {large, largeRefs}} {
		for i, ok := range q.s.Resident(q.refs, out) {
			if !ok {
				b.Fatalf("%s not resident", q.refs[i].Array)
			}
		}
	}
	batch := func(s *Store, refs []BlockRef, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			out = s.Resident(refs, out)
		}
		return time.Since(start)
	}
	n := min(residentBatch, b.N)
	smallMin, largeMin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var largeTime time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done, k := 0, 0; done+n <= b.N; done, k = done+n, k+1 {
		var ts, tl time.Duration
		if k%2 == 0 {
			ts, tl = batch(small, smallRefs, n), batch(large, largeRefs, n)
		} else {
			tl, ts = batch(large, largeRefs, n), batch(small, smallRefs, n)
		}
		smallMin, largeMin = min(smallMin, ts), min(largeMin, tl)
		largeTime += tl
	}
	b.ReportMetric(float64(largeTime)/float64(b.N/n*n), "ns/op")
	b.ReportMetric(float64(largeMin)/float64(smallMin), "x-16")
}

// residentBatch is BenchmarkResidentQuery's batch: at about a microsecond a
// call, far shorter than a scheduler time slice, so most batches run
// unpreempted.
const residentBatch = 50
