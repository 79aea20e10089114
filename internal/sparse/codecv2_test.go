package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// TestCRS2RoundTripProperty mirrors the V1 property test: ReadCRS must
// auto-detect the V2 magic and reconstruct the matrix exactly.
func TestCRS2RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 20)
		var buf bytes.Buffer
		if err := WriteCRS2(&buf, m); err != nil {
			return false
		}
		got, err := ReadCRS(&buf)
		if err != nil {
			return false
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.RowPtr {
			if got.RowPtr[i] != m.RowPtr[i] {
				return false
			}
		}
		for i := range m.Val {
			if got.ColIdx[i] != m.ColIdx[i] || got.Val[i] != m.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// csrEqual reports exact equality of two matrices, including bit-identical
// values.
func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// TestCRS2Shrinks checks the point of the format: a structured matrix's V2
// file must be meaningfully smaller than its V1 file.
func TestCRS2Shrinks(t *testing.T) {
	m, err := GapMatrix(GapGenConfig{Rows: 2000, Cols: 2000, D: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Physical matrix elements carry limited precision (CI Hamiltonian
	// entries repeat and truncate); quantize so the value section has the
	// byte structure FloatShuffle targets.
	for i, v := range m.Val {
		m.Val[i] = math.Round(v*1024) / 1024
	}
	var v1, v2 bytes.Buffer
	if err := WriteCRS(&v1, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteCRS2(&v2, m); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(v1.Len()) / float64(v2.Len()); ratio < 1.5 {
		t.Errorf("V2 ratio %.2f (V1 %d bytes, V2 %d), want >= 1.5", ratio, v1.Len(), v2.Len())
	}
}

// TestCRS2DetectsCorruptionAndTruncation flips and cuts a V2 file at many
// positions: the reader must error, never return a different matrix.
func TestCRS2DetectsCorruptionAndTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 30)
	var buf bytes.Buffer
	if err := WriteCRS2(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for pos := 0; pos < len(data); pos += 1 + len(data)/53 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		got, err := ReadCRS(bytes.NewReader(mut))
		if err == nil && !csrEqual(got, m) {
			t.Fatalf("bit flip at %d returned a different matrix without error", pos)
		}
	}
	for _, cut := range []int{4, HeaderBytes - 1, HeaderBytes + 3, len(data) / 2, len(data) - 2} {
		if _, err := ReadCRS(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("expected error reading %d of %d bytes", cut, len(data))
		}
	}
}

// TestCRS2FileHelpers checks that both the generic file reader and the
// header probe accept a V2 file.
func TestCRS2FileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.crs2")
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 25)
	if err := os.WriteFile(path, encodeCRS(t, m, true), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCRSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(got, m) {
		t.Fatal("file round trip mismatch")
	}
	rows, cols, nnz, err := ReadCRSHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows != m.Rows || cols != m.Cols || nnz != m.NNZ() {
		t.Fatalf("header probe = %d x %d nnz %d, want %d x %d nnz %d", rows, cols, nnz, m.Rows, m.Cols, m.NNZ())
	}
}
