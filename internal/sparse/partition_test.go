package sparse

import (
	"bytes"
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

// TestSplitBlockRowEdges: the one row split behind Block, the staging sweep
// and UpperTriangle holds on the edges — empty rows, blocks with no entries,
// a K that does not divide the dimension, K = 1, K = dim, a matrix with no
// entries. Every block holds, and counts, exactly the entries a scan of its
// rows finds in its columns; the upper triangle of a diagonal block its
// entries on or above the diagonal; a block encoded where it lies in the
// matrix is the bytes WriteCRS2 writes of it built; and the blocks assemble
// back into the matrix.
func TestSplitBlockRowEdges(t *testing.T) {
	const dim = 23
	var ts []Triplet
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < dim; i++ {
		if i == 0 || i == 5 || i == 6 || i == dim-1 {
			continue // empty rows
		}
		for j := 0; j < dim; j++ {
			// No entry in columns [4, 12): at K = 5 block column 1, [5, 10),
			// holds nothing.
			if (j < 4 || j >= 12) && rng.Intn(3) == 0 {
				ts = append(ts, Triplet{i, j, rng.NormFloat64()})
			}
		}
	}
	m, err := FromTriplets(dim, dim, ts)
	if err != nil {
		t.Fatal(err)
	}
	empty := &CSR{Rows: 7, Cols: 7, RowPtr: make([]int64, 8)}
	for _, c := range []struct {
		m *CSR
		k int
	}{{m, 1}, {m, 2}, {m, 3}, {m, 5}, {m, dim}, {empty, 3}} {
		p, err := NewGridPartition(c.m.Rows, c.k)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([][]*CSR, c.k)
		for u := 0; u < c.k; u++ {
			row, err := SplitBlockRow(c.m, p, u)
			if err != nil {
				t.Fatal(err)
			}
			blocks[u] = make([]*CSR, c.k)
			for v := 0; v < c.k; v++ {
				b := row.Block(v)
				want := scanBlock(c.m, p, u, v, false)
				if err := b.Validate(); err != nil || !sameCSR(b, want) || row.NNZ(v) != want.NNZ() || cap(b.Val) != len(b.Val) {
					t.Fatalf("dim %d K=%d block (%d,%d): %v; %d entries counted, %d in arrays of capacity %d, %d found by a scan",
						c.m.Rows, c.k, u, v, err, row.NNZ(v), b.NNZ(), cap(b.Val), want.NNZ())
				}
				var enc bytes.Buffer
				if err := WriteCRS2(&enc, b); err != nil {
					t.Fatal(err)
				}
				if got := row.AppendBlockCRS2(nil, v); !bytes.Equal(got, enc.Bytes()) {
					t.Fatalf("dim %d K=%d block (%d,%d): encoded in place it is not WriteCRS2's bytes", c.m.Rows, c.k, u, v)
				}
				blocks[u][v] = b
			}
			upper, want := blocks[u][u].UpperTriangle(), scanBlock(c.m, p, u, u, true)
			if !sameCSR(upper, want) || row.UpperNNZ() != want.NNZ() {
				t.Fatalf("dim %d K=%d block row %d: upper triangle of %d entries (counted %d), a scan finds %d",
					c.m.Rows, c.k, u, upper.NNZ(), row.UpperNNZ(), want.NNZ())
			}
			var enc bytes.Buffer
			if err := WriteCRS2(&enc, upper); err != nil {
				t.Fatal(err)
			}
			if got := row.AppendUpperTriangleCRS2(nil); !bytes.Equal(got, enc.Bytes()) {
				t.Fatalf("dim %d K=%d block row %d: the upper triangle encoded in place is not WriteCRS2's bytes", c.m.Rows, c.k, u)
			}
		}
		back, err := Assemble(p, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(back, c.m) {
			t.Fatalf("dim %d K=%d: the blocks do not assemble back into the matrix", c.m.Rows, c.k)
		}
	}
}

// scanBlock is block (u,v) of m — or, with upper, its entries on or above
// the diagonal — found by testing every entry of its rows.
func scanBlock(m *CSR, p GridPartition, u, v int, upper bool) *CSR {
	r0, c0, c1 := p.Start(u), p.Start(v), p.Start(v+1)
	b := &CSR{Rows: p.Size(u), Cols: p.Size(v), RowPtr: make([]int64, p.Size(u)+1)}
	for i := r0; i < p.Start(u+1); i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if c := int(m.ColIdx[k]); c >= c0 && c < c1 && (!upper || c >= i) {
				b.ColIdx = append(b.ColIdx, int32(c-c0))
				b.Val = append(b.Val, m.Val[k])
			}
		}
		b.RowPtr[i-r0+1] = int64(len(b.Val))
	}
	return b
}
