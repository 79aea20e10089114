package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridPartitionBounds(t *testing.T) {
	p, err := NewGridPartition(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 10 = 4 + 3 + 3.
	sizes := []int{p.Size(0), p.Size(1), p.Size(2)}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if p.Start(0) != 0 || p.Start(3) != 10 {
		t.Fatalf("Start bounds: %d %d", p.Start(0), p.Start(3))
	}
}

func TestGridPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(500)
		k := 1 + rng.Intn(dim)
		p, err := NewGridPartition(dim, k)
		if err != nil {
			return false
		}
		// Parts tile [0, dim) exactly, sizes differ by at most 1.
		total := 0
		minSz, maxSz := dim+1, 0
		for u := 0; u < k; u++ {
			sz := p.Size(u)
			if sz <= 0 {
				return false
			}
			total += sz
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if total != dim || maxSz-minSz > 1 {
			return false
		}
		// PartOf is consistent with Start ranges.
		for trial := 0; trial < 20; trial++ {
			i := rng.Intn(dim)
			u := p.PartOf(i)
			if i < p.Start(u) || i >= p.Start(u+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGridPartitionValidation(t *testing.T) {
	if _, err := NewGridPartition(0, 1); err == nil {
		t.Error("expected error for dim=0")
	}
	if _, err := NewGridPartition(5, 0); err == nil {
		t.Error("expected error for K=0")
	}
	if _, err := NewGridPartition(3, 4); err == nil {
		t.Error("expected error for K>dim")
	}
}

func TestBlockAssembleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		if k > dim {
			k = dim
		}
		var ts []Triplet
		for i := 0; i < dim*3; i++ {
			ts = append(ts, Triplet{rng.Intn(dim), rng.Intn(dim), rng.NormFloat64()})
		}
		m, err := FromTriplets(dim, dim, ts)
		if err != nil {
			return false
		}
		p, err := NewGridPartition(dim, k)
		if err != nil {
			return false
		}
		blocks := make([][]*CSR, k)
		var totalNNZ int64
		for u := 0; u < k; u++ {
			blocks[u] = make([]*CSR, k)
			for v := 0; v < k; v++ {
				b, err := Block(m, p, u, v)
				if err != nil {
					return false
				}
				if err := b.Validate(); err != nil {
					return false
				}
				totalNNZ += b.NNZ()
				blocks[u][v] = b
			}
		}
		if totalNNZ != m.NNZ() {
			return false
		}
		back, err := Assemble(p, blocks)
		if err != nil {
			return false
		}
		if back.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Val {
			if back.Val[i] != m.Val[i] || back.ColIdx[i] != m.ColIdx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockSpMVEqualsGlobalSpMV is the core correctness property behind the
// paper's distributed SpMV: summing per-block products equals the global
// product.
func TestBlockSpMVEqualsGlobalSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dim, k := 37, 4
	m, err := GapMatrix(GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewGridPartition(dim, k)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, dim)
	MulVec(m, x, want)

	got := make([]float64, dim)
	for u := 0; u < k; u++ {
		yu := got[p.Start(u):p.Start(u+1)]
		for v := 0; v < k; v++ {
			b, err := Block(m, p, u, v)
			if err != nil {
				t.Fatal(err)
			}
			xv := x[p.Start(v):p.Start(v+1)]
			MulVecAdd(b, xv, yu)
		}
	}
	for i := range want {
		diff := want[i] - got[i]
		if diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
