package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestGapMatrixDeterministic(t *testing.T) {
	cfg := GapGenConfig{Rows: 50, Cols: 80, D: 4, Seed: 123}
	a, err := GapMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GapMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("same seed produced different nnz: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("same seed produced different matrices")
		}
	}
}

func TestGapMatrixValid(t *testing.T) {
	for _, d := range []int{1, 2, 5, 20} {
		m, err := GapMatrix(GapGenConfig{Rows: 40, Cols: 100, D: d, Seed: int64(d)})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestGapMatrixDensityMatchesExpectation(t *testing.T) {
	// With gaps uniform on [1, 2d], mean gap is d+0.5, so a row of C columns
	// carries about C/(d+0.5) nonzeros. Check within 10% on a large matrix.
	cfg := GapGenConfig{Rows: 400, Cols: 2000, D: 7, Seed: 99}
	m, err := GapMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.ExpectedNNZ())
	got := float64(m.NNZ())
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("nnz = %v, expected about %v", got, want)
	}
}

func TestDForTargetNNZInvertsExpectation(t *testing.T) {
	rows, cols := 300, 3000
	for _, target := range []int64{5000, 20000, 90000} {
		d := DForTargetNNZ(rows, cols, target)
		if d < 1 {
			t.Fatalf("d = %d", d)
		}
		m, err := GapMatrix(GapGenConfig{Rows: rows, Cols: cols, D: d, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.NNZ())
		if math.Abs(got-float64(target))/float64(target) > 0.25 {
			t.Errorf("target %d, d=%d produced %v nnz", target, d, got)
		}
	}
}

func TestGapMatrixSymmetric(t *testing.T) {
	m, err := GapMatrix(GapGenConfig{Rows: 60, Cols: 60, D: 3, Seed: 11, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("symmetric generator produced asymmetric matrix")
	}
	// Diagonal fully populated.
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d", i)
		}
	}
}

func TestGapMatrixValidation(t *testing.T) {
	if _, err := GapMatrix(GapGenConfig{Rows: 0, Cols: 5, D: 1}); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := GapMatrix(GapGenConfig{Rows: 5, Cols: 5, D: 0}); err == nil {
		t.Error("expected error for d=0")
	}
	if _, err := GapMatrix(GapGenConfig{Rows: 4, Cols: 5, D: 1, Symmetric: true}); err == nil {
		t.Error("expected error for non-square symmetric request")
	}
}

func TestSummarize(t *testing.T) {
	m := FromDense(3, 3, []float64{
		1, 1, 1,
		0, 0, 0,
		1, 0, 0,
	})
	s := Summarize(m)
	if s.NNZ != 4 || s.MinPerRow != 0 || s.MaxPerRow != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.AvgPerRow-4.0/3.0) > 1e-15 {
		t.Fatalf("avg = %v", s.AvgPerRow)
	}
}

// csrArraysSHA hashes a matrix's shape and its three arrays: RowPtr and
// ColIdx as little-endian integers, Val as its float64 bits.
func csrArraysSHA(m *CSR) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.RowPtr {
		put(uint64(p))
	}
	for _, c := range m.ColIdx {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:4])
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGapMatrixPinned holds the generator to the matrices it has always
// produced, in both forms, on the shapes the benchmark and the tests use and
// on the edges: a gap parameter of 1, a 1×1 matrix, rows ≠ cols. The hashes
// were recorded from the generator that assembled the symmetric form from a
// triplet list.
func TestGapMatrixPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  GapGenConfig
		want string
	}{
		{GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1},
			"53a05a90d714c88d41a2b25ea1c4bf7e935ee8479b91e8dfeec341e1f03c0451"},
		{GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 2},
			"62ea79ff3151210073366edb5b94c3de4254d5a5ecf46cbad9cb2a43b2a1907a"},
		{GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1, Symmetric: true},
			"9cbc797fd020fa2de6f49babf7d4b3f7a91b1aaf7c6bfa8cdfe351f6668e853b"},
		{GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 2, Symmetric: true},
			"7a5676e67705740348edd09a942048093dde976b5c1840844e05d63a39450f28"},
		{GapGenConfig{Rows: 10000, Cols: 10000, D: 128, Seed: 1},
			"887484c9f1dc3a3bccdf0f81b930580af141f26747ba3ae18242e00da458fc5f"},
		{GapGenConfig{Rows: 1200, Cols: 1200, D: 8, Seed: 1, Symmetric: true},
			"51151a99a45c376eb4f64837596c33f27f774dd641c2e93b9e169ca4727aabd4"},
		{GapGenConfig{Rows: 300, Cols: 300, D: 1, Seed: 3},
			"78499cf2016627620a09bfbf7a54341184c0109bea42346f0072c7307d1853ec"},
		{GapGenConfig{Rows: 300, Cols: 300, D: 1, Seed: 3, Symmetric: true},
			"36bb38b35592a7c9f51aca3ccfe573f3b14dbd4f7b3a099b8f54f8bd237dd425"},
		{GapGenConfig{Rows: 1, Cols: 1, D: 1, Seed: 5},
			"d4bb84d7e2861e36c2ca9c343635364826ef3031bcd74ce561ea09693cf9f411"},
		{GapGenConfig{Rows: 1, Cols: 1, D: 4, Seed: 5, Symmetric: true},
			"2aa9bc1dc412e7d4ae5609fd4d7a48d8e75206328b86bd2de3ac285c2aa7f968"},
		{GapGenConfig{Rows: 200, Cols: 700, D: 5, Seed: 4},
			"e03c65d09dd2b99641e79e24f91229318991b0cf23f85d32120e841bcdef8000"},
		{GapGenConfig{Rows: 700, Cols: 200, D: 5, Seed: 4},
			"91dabe42956fe88b1a6a838f1ac421d2d59e4698d76087d8091708023ff77c4c"},
	} {
		m, err := GapMatrix(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		// The symmetric form is filled after its entries are counted; the
		// general one is drawn into arrays of gapCapacity, never regrown.
		want := len(m.Val)
		if !c.cfg.Symmetric {
			want = gapCapacity(c.cfg.Rows, float64(c.cfg.Rows)*float64(c.cfg.Cols), c.cfg.D)
		}
		if cap(m.ColIdx) != want || cap(m.Val) != want {
			t.Errorf("%+v: %d entries in arrays of capacity %d and %d, want %d", c.cfg, len(m.Val), cap(m.ColIdx), cap(m.Val), want)
		}
		if got := csrArraysSHA(m); got != c.want {
			t.Errorf("%+v: %s, pinned %s", c.cfg, got, c.want)
		}
	}
}

// BenchmarkGapMatrix generates the benchmark's 3000² matrix at d = 8 in both
// forms. B/op and allocs/op are gated in make perf-gate: the general form
// allocates its row pointers and two arrays of gapCapacity, the symmetric
// one its drawn upper triangle beside the exactly-sized result.
func BenchmarkGapMatrix(b *testing.B) {
	for _, c := range []struct {
		name      string
		symmetric bool
	}{{"general", false}, {"symmetric", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GapMatrix(GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1, Symmetric: c.symmetric}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
