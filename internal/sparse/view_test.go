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

// legacyCRS returns m as a DOOCCRS1 block written before the alignment pad
// existed: the pad stripped, the checksum recomputed.
func legacyCRS(t testing.TB, m *CSR) []byte {
	t.Helper()
	enc := encodeCRS(t, m, false)
	val := HeaderBytes + 8*len(m.RowPtr) + 4*len(m.ColIdx)
	pad := int(crsPadBytes(m.NNZ()))
	enc = append(enc[:val:val], enc[val+pad:]...)
	body := len(enc) - 4
	binary.LittleEndian.PutUint32(enc[body:], crc32.Checksum(enc[:body], crsCRCTable))
	return enc
}

// atOffset copies data so that its first byte sits k bytes past an 8-byte
// boundary: k = 0 lets every section of a V1 block alias (of a legacy one,
// Val only when nnz is even), every other k forces at least the 8-byte
// sections through the copy fallback.
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

// viewTestMatrices covers odd and even nnz, the empty matrix, a matrix with
// empty rows and one-row matrices.
func viewTestMatrices() []*CSR {
	rng := rand.New(rand.NewSource(7))
	ms := []*CSR{
		{Rows: 0, Cols: 0, RowPtr: []int64{0}},
		FromDense(3, 3, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}),
		FromDense(2, 3, []float64{1, 0, 2, 0, 3, 0}),     // nnz 3
		FromDense(2, 2, []float64{1, 2, 3, math.Inf(1)}), // nnz 4
		FromDense(1, 3, []float64{1, 2, 3}),              // one row, nnz 3
		FromDense(1, 4, []float64{1, 0, 2, 0}),           // one row, nnz 2
	}
	for len(ms) < 24 {
		ms = append(ms, randomCSR(rng, 24))
	}
	return ms
}

// TestViewMatchesDecode: a view and a decode of the same bytes are the same
// matrix, whatever the format, the parity of nnz or the alignment of the
// bytes, and a scratch carried from block to block never leaks one block
// into the next. Every block WriteCRS emits, held in an aligned buffer, is
// viewed without copying a byte; the realign copy is left to misaligned
// buffers and to legacy blocks without the pad.
func TestViewMatchesDecode(t *testing.T) {
	var s ViewScratch
	odd, even := 0, 0
	for _, m := range viewTestMatrices() {
		if m.NNZ()%2 == 1 {
			odd++
		} else {
			even++
		}
		padded := encodeCRS(t, m, false)
		if got, want := int64(len(padded)), FileBytes(m.Rows, m.NNZ()); got != want {
			t.Fatalf("WriteCRS wrote %d bytes for nnz %d, FileBytes says %d", got, m.NNZ(), want)
		}
		paddedValOff := len(padded) - 4 - 8*int(m.NNZ())
		if paddedValOff%8 != 0 {
			t.Fatalf("nnz %d: WriteCRS put the values %d bytes into the block", m.NNZ(), paddedValOff)
		}
		for _, f := range []struct {
			name string
			enc  []byte
			v1   bool
			// valOff is where the values lie in a V1 block.
			valOff int
		}{
			{"v1", padded, true, paddedValOff},
			{"legacy v1", legacyCRS(t, m), true, HeaderBytes + 8*len(m.RowPtr) + 4*int(m.NNZ())},
			{"v2", encodeCRS(t, m, true), false, 0},
		} {
			enc := f.enc
			want, err := DecodeCRSBytes(enc)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			if !sameCSR(want, m) {
				t.Fatalf("decode of a %dx%d nnz %d block (%s) is not the matrix written", m.Rows, m.Cols, m.NNZ(), f.name)
			}
			for k := 0; k < 8; k++ {
				data := atOffset(enc, k)
				got, crc, err := ViewCRSBytes(data, &s, nil)
				if err != nil {
					t.Fatalf("view at offset %d (%s): %v", k, f.name, err)
				}
				if !sameCSR(got, want) {
					t.Fatalf("view at offset %d (%s) differs from the decode", k, f.name)
				}
				if wantCRC := binary.LittleEndian.Uint32(enc[len(enc)-4:]); crc != wantCRC {
					t.Fatalf("view reports crc %08x, block carries %08x", crc, wantCRC)
				}
				// Where the bytes allow it the view is the bytes: an aligned
				// V1 block is never copied, nor is any section whose own
				// offset happens to be aligned.
				aliases := crsLittleEndian && !viewDebugForceCopy && f.v1
				if got, want := within(got.RowPtr, data), aliases && k == 0; got != want {
					t.Fatalf("%s offset %d: RowPtr aliases the block = %v, want %v", f.name, k, got, want)
				}
				if got, want := within(got.ColIdx, data), aliases && k%4 == 0 && m.NNZ() > 0; got != want {
					t.Fatalf("%s offset %d: ColIdx aliases the block = %v, want %v", f.name, k, got, want)
				}
				valAligned := (k+f.valOff)%8 == 0
				if got, want := within(got.Val, data), aliases && valAligned && m.NNZ() > 0; got != want {
					t.Fatalf("%s offset %d nnz %d: Val aliases the block = %v, want %v", f.name, k, m.NNZ(), got, want)
				}
			}
		}
	}
	if odd == 0 || even == 0 {
		t.Fatalf("matrices cover %d odd and %d even nnz; need both", odd, even)
	}
}

// TestViewScratchGrowsOnly: the copy fallback — here the misaligned values of
// legacy blocks with odd nnz — reuses the scratch: a smaller block after a
// larger one lands in the same backing array.
func TestViewScratchGrowsOnly(t *testing.T) {
	if viewDebugForceCopy {
		t.Skip("doocdebug views are fresh copies by design")
	}
	big := legacyCRS(t, FromDense(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}))
	small := legacyCRS(t, FromDense(1, 3, []float64{1, 2, 3}))
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
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 20)
	for m.NNZ()%2 == 0 { // odd nnz: the padded and the legacy block differ
		m = randomCSR(rng, 20)
	}
	for name, enc := range map[string][]byte{"v1": encodeCRS(t, m, false), "legacy v1": legacyCRS(t, m), "v2": encodeCRS(t, m, true)} {
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
			{"four bytes short", append(enc[:len(enc)-8:len(enc)-8], enc[len(enc)-4:]...)},
			{"four bytes long", append(append(enc[:len(enc)-4:len(enc)-4], 0, 0, 0, 0), enc[len(enc)-4:]...)},
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
				t.Fatalf("%s, %s: decode err %v, view err %v; want both to fail", name, in.name, derr, verr)
			}
			if derr.Error() != verr.Error() {
				t.Fatalf("%s, %s: decode says %q, view says %q", name, in.name, derr, verr)
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

// TestViewChecksWhatIsNotVouchedFor: the structural walk and the CRC pass are
// the caller's to waive, and nobody else's. trust is asked about the checksum
// the block carries; TrustStructure waives the walk only, TrustBytes both.
func TestViewChecksWhatIsNotVouchedFor(t *testing.T) {
	enc := invalidWithGoodCRC(t)
	if _, err := DecodeCRSBytes(enc); err == nil || !strings.Contains(err.Error(), "invalid CRS payload") {
		t.Fatalf("decode of an invalid block with a good CRC: %v", err)
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-12] ^= 1 // a value: the structure is what it was, the CRC is not
	carried := binary.LittleEndian.Uint32(enc[len(enc)-4:])
	var s ViewScratch
	for _, c := range []struct {
		data    []byte
		trust   Trust
		wantErr string
	}{
		{enc, TrustNothing, "invalid CRS payload"},
		{enc, TrustStructure, ""},
		{enc, TrustBytes, ""},
		{flipped, TrustNothing, "checksum mismatch"},
		{flipped, TrustStructure, "checksum mismatch"},
		{flipped, TrustBytes, ""},
	} {
		asked := 0
		_, crc, err := ViewCRSBytes(c.data, &s, func(crc uint32) Trust {
			asked++
			if crc != carried {
				t.Errorf("trust was asked about %08x, block carries %08x", crc, carried)
			}
			return c.trust
		})
		if asked != 1 {
			t.Errorf("trust %d: asked %d times", c.trust, asked)
		}
		switch {
		case c.wantErr == "" && (err != nil || crc != carried):
			t.Errorf("trust %d: crc %08x, err %v", c.trust, crc, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("trust %d: err %v, want %q", c.trust, err, c.wantErr)
		}
	}
}

// FuzzDecodeCRS: on arbitrary bytes the one CRS parser never panics, the view
// and the decode agree — both refuse, or both return the same valid matrix —
// and a view's sections lie inside data or inside the scratch, nowhere else.
func FuzzDecodeCRS(f *testing.F) {
	for _, m := range viewTestMatrices()[:6] {
		for _, enc := range [][]byte{encodeCRS(f, m, false), legacyCRS(f, m), encodeCRS(f, m, true)} {
			f.Add(enc)
			f.Add(enc[:len(enc)/2])
			f.Add(enc[:len(enc)-4])
			f.Add(append(enc[:len(enc):len(enc)], 0, 0, 0, 0))
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
		// V2 sections are the codec's own output and a doocdebug view is a
		// private copy: only a release-build V1 view has a place to be.
		if string(data[:8]) == crsMagic && !viewDebugForceCopy {
			if !inside(got.RowPtr, data, s.rowPtr) || !inside(got.ColIdx, data, s.colIdx) || !inside(got.Val, data, s.val) {
				t.Fatal("a section of the view lies outside both the block and the scratch")
			}
		}
	})
}

// inside reports whether all of sec lies within data or is the scratch
// buffer's own memory.
func inside[T any](sec []T, data []byte, scratch []T) bool {
	if len(sec) == 0 {
		return true
	}
	if unsafe.SliceData(sec) == unsafe.SliceData(scratch[:cap(scratch)]) {
		return len(sec) <= cap(scratch)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(sec)))
	hi := lo + uintptr(len(sec))*unsafe.Sizeof(sec[0])
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return lo >= base && hi <= base+uintptr(len(data))
}
