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

	"dooc/internal/compress"
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

// crs2Sections walks a V2 block: where each section's frame starts, how long
// it is, and — for a section the adaptive encoder stored verbatim — where its
// payload lies in the block (-1 for a compressed one).
func crs2Sections(enc []byte) (frameOff, frameLen, rawOff [3]int) {
	pos := HeaderBytes
	for i := range rawOff {
		prefix := binary.LittleEndian.Uint64(enc[pos:])
		pad, n := int(prefix>>56), int(prefix&(1<<56-1))
		frameOff[i], frameLen[i], rawOff[i] = pos+8+pad, n, -1
		if c, err := compress.FrameCodec(enc[frameOff[i]:][:n]); err == nil && c.ID() == compress.IDRaw {
			rawOff[i] = frameOff[i] + compress.FrameHeaderLen
		}
		pos = frameOff[i] + n
	}
	return
}

// legacyCRS2 returns m as a DOOCCRS2 block written before the alignment pads
// existed — each section a bare length and its frame, the top byte of the
// length 0 — which is every V2 file staged before WriteCRS2 padded.
func legacyCRS2(t testing.TB, m *CSR) []byte {
	t.Helper()
	enc := encodeCRS(t, m, true)
	frameOff, frameLen, _ := crs2Sections(enc)
	out := append([]byte(nil), enc[:HeaderBytes]...)
	for i, off := range frameOff {
		out = binary.LittleEndian.AppendUint64(out, uint64(frameLen[i]))
		out = append(out, enc[off:][:frameLen[i]]...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crsCRCTable))
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
// into the next. Every section a writer stored verbatim — all of a WriteCRS
// block, what the adaptive encoder left raw of a WriteCRS2 block — is viewed
// in an aligned buffer without copying a byte; the realign copy is left to
// misaligned buffers and to legacy blocks without their format's pad, the
// decode into the scratch to compressed sections.
func TestViewMatchesDecode(t *testing.T) {
	var s ViewScratch
	odd, even, rawV2 := 0, 0, 0
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
		if valOff := len(padded) - 4 - 8*int(m.NNZ()); valOff%8 != 0 {
			t.Fatalf("nnz %d: WriteCRS put the values %d bytes into the block", m.NNZ(), valOff)
		}
		colOff := HeaderBytes + 8*len(m.RowPtr)
		v2, legacyV2 := encodeCRS(t, m, true), legacyCRS2(t, m)
		_, _, v2Off := crs2Sections(v2)
		_, _, legacyV2Off := crs2Sections(legacyV2)
		for i, off := range v2Off {
			if off >= 0 {
				rawV2++
				if off%8 != 0 {
					t.Fatalf("nnz %d: WriteCRS2 put raw section %d %d bytes into the block", m.NNZ(), i, off)
				}
			}
		}
		for _, f := range []struct {
			name string
			enc  []byte
			// off is where each section's bytes lie in the block, -1 for a
			// compressed section.
			off [3]int
		}{
			{"v1", padded, [3]int{HeaderBytes, colOff, len(padded) - 4 - 8*int(m.NNZ())}},
			{"legacy v1", legacyCRS(t, m), [3]int{HeaderBytes, colOff, colOff + 4*int(m.NNZ())}},
			{"v2", v2, v2Off},
			{"legacy v2", legacyV2, legacyV2Off},
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
				// Where the bytes allow it the view is the bytes: a section
				// stored verbatim whose place in memory is aligned for its
				// element type is never copied.
				aliases := func(i, size, n int) bool {
					return crsLittleEndian && !viewDebugForceCopy && f.off[i] >= 0 && (k+f.off[i])%size == 0 && n > 0
				}
				var copied int64
				for i, sec := range []struct {
					name          string
					aliased       bool
					size, n       int
					insideScratch bool
				}{
					{"RowPtr", within(got.RowPtr, data), 8, len(got.RowPtr), inside(got.RowPtr, nil, s.rowPtr)},
					{"ColIdx", within(got.ColIdx, data), 4, len(got.ColIdx), inside(got.ColIdx, nil, s.colIdx)},
					{"Val", within(got.Val, data), 8, len(got.Val), inside(got.Val, nil, s.val)},
				} {
					want := aliases(i, sec.size, sec.n)
					if sec.aliased != want {
						t.Fatalf("%s offset %d nnz %d: %s aliases the block = %v, want %v", f.name, k, m.NNZ(), sec.name, sec.aliased, want)
					}
					if !want {
						copied += int64(sec.size * sec.n)
						if !viewDebugForceCopy && !sec.insideScratch {
							t.Fatalf("%s offset %d: %s lies in neither the block nor the scratch", f.name, k, sec.name)
						}
					}
				}
				if s.CopiedBytes() != copied {
					t.Fatalf("%s offset %d nnz %d: CopiedBytes = %d, sections not aliased hold %d", f.name, k, m.NNZ(), s.CopiedBytes(), copied)
				}
			}
		}
	}
	if odd == 0 || even == 0 {
		t.Fatalf("matrices cover %d odd and %d even nnz; need both", odd, even)
	}
	if rawV2 == 0 {
		t.Fatal("no V2 block has a section stored verbatim: the aliasing of raw sections went untested")
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

// TestDecodeOwnsRawV2Section: the owning decode copies even the section a
// view would alias. The decode cache keeps its result long after the lease it
// was read under is gone and the arena has handed the buffer to someone else.
func TestDecodeOwnsRawV2Section(t *testing.T) {
	m, err := GapMatrix(GapGenConfig{Rows: 40, Cols: 40, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := atOffset(encodeCRS(t, m, true), 0)
	if _, _, rawOff := crs2Sections(data); rawOff[2] < 0 {
		t.Fatal("the value section was compressed: nothing a decode could wrongly alias")
	}
	got, err := DecodeCRSBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	if !sameCSR(got, m) {
		t.Fatal("the decoded matrix changed when the bytes it was decoded from were overwritten")
	}
}

// TestViewCRS2InPlace: a view of a block WriteCRS2 wrote, held in an aligned
// buffer, is built in one pass without allocating: a section stored verbatim
// is the block's own bytes, a compressed one is decoded into the scratch, at
// every level of trust.
func TestViewCRS2InPlace(t *testing.T) {
	if viewDebugForceCopy || !crsLittleEndian {
		t.Skip("views are copies in this build")
	}
	gap := func(rows, cols, d int, seed int64) *CSR {
		m, err := GapMatrix(GapGenConfig{Rows: rows, Cols: cols, D: d, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	odd := gap(50, 60, 2, 1)
	for seed := int64(2); odd.NNZ()%2 == 0; seed++ {
		odd = gap(50, 60, 2, seed)
	}
	even := gap(50, 60, 2, 21)
	for seed := int64(22); even.NNZ()%2 == 1; seed++ {
		even = gap(50, 60, 2, seed)
	}
	// One entry per row, anywhere in 2^30 columns: consecutive column
	// indices differ by five-byte varints, and delta32 loses to raw.
	rng := rand.New(rand.NewSource(5))
	scattered := &CSR{Rows: 64, Cols: 1 << 30, RowPtr: make([]int64, 65), ColIdx: make([]int32, 64), Val: make([]float64, 64)}
	for i := range scattered.ColIdx {
		scattered.RowPtr[i+1] = int64(i + 1)
		scattered.ColIdx[i] = rng.Int31n(1 << 30)
		scattered.Val[i] = rng.NormFloat64()
	}
	var s ViewScratch
	for _, c := range []struct {
		name string
		m    *CSR
		raw  [3]bool // which sections the adaptive encoder stores verbatim
	}{
		{"odd nnz", odd, [3]bool{false, false, true}},
		{"even nnz", even, [3]bool{false, false, true}},
		{"zero nnz", &CSR{Rows: 40, Cols: 40, RowPtr: make([]int64, 41)}, [3]bool{false, true, true}},
		{"raw ColIdx", scattered, [3]bool{false, true, true}},
	} {
		data := atOffset(encodeCRS(t, c.m, true), 0)
		_, _, rawOff := crs2Sections(data)
		for i, off := range rawOff {
			if (off >= 0) != c.raw[i] {
				t.Fatalf("%s: section %d stored verbatim = %v, the case wants %v", c.name, i, off >= 0, c.raw[i])
			}
		}
		for _, trust := range []Trust{TrustNothing, TrustStructure, TrustBytes} {
			view := func() (*CSR, error) {
				m, _, err := ViewCRSBytes(data, &s, func(uint32) Trust { return trust })
				return m, err
			}
			got, err := view()
			if err != nil {
				t.Fatalf("%s, trust %d: %v", c.name, trust, err)
			}
			if !sameCSR(got, c.m) {
				t.Fatalf("%s, trust %d: the view is not the matrix written", c.name, trust)
			}
			if !inside(got.RowPtr, nil, s.rowPtr) {
				t.Errorf("%s, trust %d: RowPtr was not decoded into the scratch", c.name, trust)
			}
			if nnz := c.m.NNZ(); nnz > 0 {
				if within(got.ColIdx, data) != c.raw[1] || !inside(got.ColIdx, data, s.colIdx) {
					t.Errorf("%s, trust %d: ColIdx aliases the block = %v, want %v", c.name, trust, within(got.ColIdx, data), c.raw[1])
				}
				if !within(got.Val, data) {
					t.Errorf("%s, trust %d: Val does not alias the block", c.name, trust)
				}
			}
			var want int64
			for i, n := range []int{8 * len(got.RowPtr), 4 * len(got.ColIdx), 8 * len(got.Val)} {
				if !c.raw[i] {
					want += int64(n)
				}
			}
			if s.CopiedBytes() != want {
				t.Errorf("%s, trust %d: CopiedBytes = %d, the compressed sections hold %d", c.name, trust, s.CopiedBytes(), want)
			}
			if allocs := testing.AllocsPerRun(20, func() { view() }); allocs != 0 {
				t.Errorf("%s, trust %d: a steady-state view allocates %v times", c.name, trust, allocs)
			}
		}
	}
}

// BenchmarkViewCRS2 is what a computing filter does with one staged V2 block
// per multiply task out of core: view it (the block evicted and read back
// since the last time, so its checksum is known and its bytes are not) and
// multiply. SetBytes counts the staged bytes.
func BenchmarkViewCRS2(b *testing.B) {
	m, err := GapMatrix(GapGenConfig{Rows: 750, Cols: 750, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := atOffset(encodeCRS(b, m, true), 0)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	var s ViewScratch
	trust := func(uint32) Trust { return TrustStructure }
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := ViewCRSBytes(data, &s, trust)
		if err != nil {
			b.Fatal(err)
		}
		MulVec(v, x, y)
	}
}

// FuzzDecodeCRS: on arbitrary bytes the one CRS parser never panics, the view
// and the decode agree — both refuse, or both return the same valid matrix —
// and a view's sections lie inside data or inside the scratch, nowhere else.
func FuzzDecodeCRS(f *testing.F) {
	for _, m := range viewTestMatrices()[:6] {
		v2 := encodeCRS(f, m, true)
		frameOff, _, _ := crs2Sections(v2)
		// A V2 block whose last section claims a pad reaching past the block,
		// and one whose first pad is not zero, each with its CRC made good.
		padPast := append([]byte(nil), v2...)
		padPast[frameOff[2]-1] = 0xff
		padSet := append([]byte(nil), v2...)
		padSet[HeaderBytes+8] = 1
		for _, enc := range [][]byte{padPast, padSet} {
			binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(enc[:len(enc)-4], crsCRCTable))
		}
		for _, enc := range [][]byte{encodeCRS(f, m, false), legacyCRS(f, m), v2, legacyCRS2(f, m), padPast, padSet} {
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
		// A doocdebug view is a private copy: only a release-build view has
		// a place to be.
		if !viewDebugForceCopy {
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
