package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// encodeCRS returns m in the V1 or V2 format.
func encodeCRS(t testing.TB, m *CSR, v2 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	write := WriteCRS
	if v2 {
		write = WriteCRS2
	}
	if err := write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// atOffset copies data so that its first byte sits k bytes past an 8-byte
// boundary: k = 0 lets every section of an even-nnz V1 block alias, every
// other k forces at least the 8-byte sections through the copy fallback.
func atOffset(data []byte, k int) []byte {
	buf := make([]byte, len(data)+16)
	off := (8-int(uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%8))%8 + k
	return buf[off : off+copy(buf[off:], data)]
}

// sameCSR compares field for field, values by bit pattern.
func sameCSR(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols ||
		len(a.RowPtr) != len(b.RowPtr) || len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// within reports whether the first element of s lies inside data.
func within[T any](s []T, data []byte) bool {
	if len(s) == 0 || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= base && p < base+uintptr(len(data))
}

// viewTestMatrices covers odd and even nnz, the empty matrix and a matrix
// with empty rows.
func viewTestMatrices() []*CSR {
	rng := rand.New(rand.NewSource(7))
	ms := []*CSR{
		{Rows: 0, Cols: 0, RowPtr: []int64{0}},
		FromDense(3, 3, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}),
		FromDense(2, 3, []float64{1, 0, 2, 0, 3, 0}),     // nnz 3
		FromDense(2, 2, []float64{1, 2, 3, math.Inf(1)}), // nnz 4
	}
	for len(ms) < 24 {
		ms = append(ms, randomCSR(rng, 24))
	}
	return ms
}

// TestViewMatchesDecode: a view and a decode of the same bytes are the same
// matrix, whatever the format, the parity of nnz or the alignment of the
// bytes, and a scratch carried from block to block never leaks one block
// into the next.
func TestViewMatchesDecode(t *testing.T) {
	var s ViewScratch
	odd, even := 0, 0
	for _, m := range viewTestMatrices() {
		if m.NNZ()%2 == 1 {
			odd++
		} else {
			even++
		}
		for _, v2 := range []bool{false, true} {
			enc := encodeCRS(t, m, v2)
			want, err := DecodeCRSBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSR(want, m) {
				t.Fatalf("decode of a %dx%d nnz %d block (v2=%v) is not the matrix written", m.Rows, m.Cols, m.NNZ(), v2)
			}
			for k := 0; k < 8; k++ {
				data := atOffset(enc, k)
				got, crc, err := ViewCRSBytes(data, &s, nil)
				if err != nil {
					t.Fatalf("view at offset %d (v2=%v): %v", k, v2, err)
				}
				if !sameCSR(got, want) {
					t.Fatalf("view at offset %d (v2=%v) differs from the decode", k, v2)
				}
				if wantCRC := binary.LittleEndian.Uint32(enc[len(enc)-4:]); crc != wantCRC {
					t.Fatalf("view reports crc %08x, block carries %08x", crc, wantCRC)
				}
				// Where the bytes allow it the view is the bytes: an aligned
				// V1 block is never copied, nor is any section whose own
				// offset happens to be aligned.
				aliases := crsLittleEndian && !viewDebugForceCopy && !v2
				if got, want := within(got.RowPtr, data), aliases && k == 0; got != want {
					t.Fatalf("offset %d: RowPtr aliases the block = %v, want %v", k, got, want)
				}
				if got, want := within(got.ColIdx, data), aliases && k%4 == 0 && m.NNZ() > 0; got != want {
					t.Fatalf("offset %d: ColIdx aliases the block = %v, want %v", k, got, want)
				}
				valAligned := (k+4*int(m.NNZ()))%8 == 0
				if got, want := within(got.Val, data), aliases && valAligned && m.NNZ() > 0; got != want {
					t.Fatalf("offset %d nnz %d: Val aliases the block = %v, want %v", k, m.NNZ(), got, want)
				}
			}
		}
	}
	if odd == 0 || even == 0 {
		t.Fatalf("matrices cover %d odd and %d even nnz; need both", odd, even)
	}
}

// TestViewScratchGrowsOnly: the copy fallback reuses the scratch — a smaller
// block after a larger one lands in the same backing array.
func TestViewScratchGrowsOnly(t *testing.T) {
	if viewDebugForceCopy {
		t.Skip("doocdebug views are fresh copies by design")
	}
	big := encodeCRS(t, FromDense(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}), false)
	small := encodeCRS(t, FromDense(1, 3, []float64{1, 2, 3}), false)
	var s ViewScratch
	a, _, err := ViewCRSBytes(atOffset(big, 0), &s, nil) // nnz 9: Val is copied
	if err != nil {
		t.Fatal(err)
	}
	first := unsafe.SliceData(a.Val)
	b, _, err := ViewCRSBytes(atOffset(small, 0), &s, nil) // nnz 3: copied again
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(b.Val) != first {
		t.Fatal("second view allocated a new Val buffer instead of reusing the scratch")
	}
	data := atOffset(big, 0)
	if allocs := testing.AllocsPerRun(20, func() { ViewCRSBytes(data, &s, nil) }); allocs != 0 {
		t.Fatalf("steady-state view allocates %v times per call", allocs)
	}
}

// TestViewAndDecodeRejectAlike: bytes one entry point refuses the other
// refuses with the same error.
func TestViewAndDecodeRejectAlike(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(11)), 20)
	for _, v2 := range []bool{false, true} {
		enc := encodeCRS(t, m, v2)
		type input struct {
			name string
			data []byte
		}
		bad := []input{
			{"empty", nil},
			{"header only", enc[:HeaderBytes]},
			{"truncated", enc[:len(enc)/2]},
			{"missing checksum", enc[:len(enc)-4]},
			{"bad magic", append([]byte("NOTACRS!"), enc[8:]...)},
			{"trailing byte", append(append([]byte(nil), enc...), 0)},
		}
		for pos := 0; pos < len(enc); pos += 1 + len(enc)/61 {
			flipped := append([]byte(nil), enc...)
			flipped[pos] ^= 0x10
			bad = append(bad, input{fmt.Sprintf("bit flip at %d", pos), flipped})
		}
		var s ViewScratch
		for _, in := range bad {
			_, derr := DecodeCRSBytes(in.data)
			_, _, verr := ViewCRSBytes(in.data, &s, nil)
			if derr == nil || verr == nil {
				t.Fatalf("v2=%v %s: decode err %v, view err %v; want both to fail", v2, in.name, derr, verr)
			}
			if derr.Error() != verr.Error() {
				t.Fatalf("v2=%v %s: decode says %q, view says %q", v2, in.name, derr, verr)
			}
		}
	}
}

// invalidWithGoodCRC returns a V1 block whose bytes check out but whose
// first column index lies outside the matrix.
func invalidWithGoodCRC(t *testing.T) []byte {
	t.Helper()
	m := FromDense(2, 2, []float64{1, 2, 3, 4})
	enc := encodeCRS(t, m, false)
	colIdx := HeaderBytes + 8*(m.Rows+1)
	binary.LittleEndian.PutUint32(enc[colIdx:], 99)
	body := len(enc) - 4
	binary.LittleEndian.PutUint32(enc[body:], crc32.Checksum(enc[:body], crsCRCTable))
	return enc
}

// TestViewValidatesUnlessVouchedFor: the structural walk is the caller's to
// waive, per checksum, and nobody else's.
func TestViewValidatesUnlessVouchedFor(t *testing.T) {
	enc := invalidWithGoodCRC(t)
	if _, err := DecodeCRSBytes(enc); err == nil || !strings.Contains(err.Error(), "invalid CRS payload") {
		t.Fatalf("decode of an invalid block with a good CRC: %v", err)
	}
	var s ViewScratch
	var asked []uint32
	for _, vouch := range []bool{false, true} {
		_, crc, err := ViewCRSBytes(enc, &s, func(crc uint32) bool {
			asked = append(asked, crc)
			return vouch
		})
		if vouch != (err == nil) {
			t.Fatalf("vouched=%v: err %v", vouch, err)
		}
		if vouch && crc != asked[0] {
			t.Fatalf("returned crc %08x, asked about %08x", crc, asked[0])
		}
	}
	if len(asked) != 2 || asked[0] != asked[1] || asked[0] != binary.LittleEndian.Uint32(enc[len(enc)-4:]) {
		t.Fatalf("validated was asked about %08x, block carries %08x", asked, enc[len(enc)-4:])
	}
}

// FuzzViewCRS: on arbitrary bytes the view and the decode agree — both
// refuse, or both return the same valid matrix.
func FuzzViewCRS(f *testing.F) {
	for _, m := range viewTestMatrices()[:6] {
		for _, v2 := range []bool{false, true} {
			enc := encodeCRS(f, m, v2)
			f.Add(enc)
			f.Add(enc[:len(enc)/2])
			mut := append([]byte(nil), enc...)
			mut[len(mut)/2] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte("DOOCCRS2 garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, derr := DecodeCRSBytes(data)
		var s ViewScratch
		got, _, verr := ViewCRSBytes(data, &s, nil)
		if (derr == nil) != (verr == nil) {
			t.Fatalf("decode err %v, view err %v", derr, verr)
		}
		if derr != nil {
			return
		}
		if !sameCSR(got, want) {
			t.Fatal("view differs from decode")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
	})
}
