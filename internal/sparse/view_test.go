package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// encodeCRS2Form returns m as a V2 block with its column section in the
// given form, whatever WriteCRS2 would have chosen, and no section left raw
// for being a sliver: with ColGapWidth(m) every V2 block written before the
// sliver rule existed, with 0 every one written before the gap form did.
func encodeCRS2Form(t testing.TB, m *CSR, width int) []byte {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return appendCRS2(nil, rowsOf(m), width, false)
}

// colForm is the form nibble of a V2 block's column section.
func colForm(enc []byte) int {
	frameOff, frameLen, _ := crs2Sections(enc)
	return int(enc[frameOff[0]+frameLen[0]+7] >> 4) // the prefix follows section 0's frame
}

// crs2Sections walks a V2 block: where each section's frame starts, how long
// it is, and — for a section stored verbatim, which a column section in gap
// form always is — where its payload lies in the block (-1 for a compressed
// one).
func crs2Sections(enc []byte) (frameOff, frameLen, rawOff [3]int) {
	pos := HeaderBytes
	for i := range rawOff {
		prefix := binary.LittleEndian.Uint64(enc[pos:])
		pad, n := int(prefix>>56&15), int(prefix&(1<<56-1))
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
	enc := encodeCRS2Form(t, m, 0)
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

// sameCSR compares two valid matrices field for field, values by bit
// pattern, the columns of one in gap form by what its gaps add up to.
func sameCSR(a, b *CSR) bool {
	ac, bc := a.Columns(), b.Columns()
	if a.Rows != b.Rows || a.Cols != b.Cols ||
		len(a.RowPtr) != len(b.RowPtr) || len(ac) != len(bc) || len(a.Val) != len(b.Val) || len(ac) != len(a.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if ac[i] != bc[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
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

// spreadCSR is a rows × cols matrix of perRow entries a row, the first at
// column r, the rest stride apart: every in-row gap is stride. The values
// are full-mantissa noise, which fshuf leaves raw.
func spreadCSR(rows, perRow, stride int) *CSR {
	rng := rand.New(rand.NewSource(int64(rows*perRow + stride)))
	var ts []Triplet
	for r := 0; r < rows; r++ {
		for j := 0; j < perRow; j++ {
			ts = append(ts, Triplet{r, r + j*stride, rng.NormFloat64()})
		}
	}
	m, err := FromTriplets(rows, rows+perRow*stride, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// viewTestMatrices covers odd and even nnz, the empty matrix, a matrix with
// empty rows, one-row matrices, and — from index 6 — one block WriteCRS2
// gives each form of column section: one-byte gaps, two-byte gaps, and
// delta32 because a single gap is too wide for either (the last also has an
// empty row). Index 9 has rows long enough that its row pointers are a
// sliver of the block, which WriteCRS2 stores raw.
func viewTestMatrices() []*CSR {
	rng := rand.New(rand.NewSource(7))
	wide := spreadCSR(12, 9, 3)
	wide.Cols = 1 << 17
	wide.ColIdx[wide.RowPtr[5]-1] = 1<<17 - 1 // row 4 ends 65536 or more past its last but one
	wide.RowPtr = append(wide.RowPtr[:7:7], wide.RowPtr[6:]...)
	wide.Rows++ // row 6 is empty
	ms := []*CSR{
		{Rows: 0, Cols: 0, RowPtr: []int64{0}},
		FromDense(3, 3, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}),
		FromDense(2, 3, []float64{1, 0, 2, 0, 3, 0}),     // nnz 3
		FromDense(2, 2, []float64{1, 2, 3, math.Inf(1)}), // nnz 4
		FromDense(1, 3, []float64{1, 2, 3}),              // one row, nnz 3
		FromDense(1, 4, []float64{1, 0, 2, 0}),           // one row, nnz 2
		spreadCSR(12, 9, 255),
		spreadCSR(11, 9, 65535),
		wide,
		spreadCSR(4, 120, 2),
	}
	for len(ms) < 28 {
		ms = append(ms, randomCSR(rng, 24))
	}
	return ms
}

// TestWriteCRS2ChoosesColumnForm: the form of the column section follows
// from the block alone — its widest in-row gap, and whether the gap form
// clears the ratio every adaptive frame must.
func TestWriteCRS2ChoosesColumnForm(t *testing.T) {
	oneRow := spreadCSR(1, 40, 2)
	for _, c := range []struct {
		name string
		m    *CSR
		want int
	}{
		{"gaps of 255", viewTestMatrices()[6], 1},
		{"gaps of 256", spreadCSR(12, 9, 256), 2},
		{"gaps of 65535", viewTestMatrices()[7], 2},
		{"one gap of 65536 or more", viewTestMatrices()[8], 0},
		{"one long row", oneRow, 1},
		{"one entry a row: the first columns outweigh the gaps", spreadCSR(40, 1, 1), 0},
		{"no entries", &CSR{Rows: 40, Cols: 40, RowPtr: make([]int64, 41)}, 0},
	} {
		if err := c.m.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ColGapWidth(c.m); got != c.want {
			t.Errorf("%s: ColGapWidth = %d, want %d", c.name, got, c.want)
		}
		enc := encodeCRS(t, c.m, true)
		if got := colForm(enc); got != c.want {
			t.Errorf("%s: WriteCRS2 wrote form %d, want %d", c.name, got, c.want)
		}
		// What a tool reports of the staged file, from its first bytes.
		path := filepath.Join(t.TempDir(), "block.arr")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		wantName := [3]string{"delta32", "gap8", "gap16"}[c.want]
		if c.m.NNZ() == 0 {
			wantName = "raw" // nothing for delta32 to save on
		}
		if got, err := ReadCRSColumnForm(path); err != nil || got != wantName {
			t.Errorf("%s: ReadCRSColumnForm = %q, %v; want %q", c.name, got, err, wantName)
		}
	}
	v1 := filepath.Join(t.TempDir(), "v1.arr")
	if err := WriteCRSFile(v1, oneRow); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCRSColumnForm(v1); err != nil || got != "int32" {
		t.Errorf("ReadCRSColumnForm of a V1 file = %q, %v", got, err)
	}
}

// TestParentCRS2FixturesStillRead: testdata/crs2_pr16.bin is what WriteCRS2
// wrote at the commit before the gap form existed, testdata/crs2_pr17.bin
// what it wrote at the commit before the sliver rule did (gap columns, row
// pointers behind delta64). Each decodes and views to the matrix it was
// written from, and the writer without what came after is byte for byte
// those files — so every test over such a block is a test over an old file.
// A view of the older copies what its two codecs decode, of the newer its
// row pointers; of the same matrix written today, nothing.
func TestParentCRS2FixturesStillRead(t *testing.T) {
	for _, c := range []struct {
		file   string
		cfg    GapGenConfig
		gaps   bool
		copied func(m *CSR) int64
	}{
		{"testdata/crs2_pr16.bin", GapGenConfig{Rows: 40, Cols: 50, D: 3, Seed: 5}, false,
			func(m *CSR) int64 { return 8*int64(m.Rows+1) + 4*m.NNZ() }},
		{"testdata/crs2_pr17.bin", GapGenConfig{Rows: 12, Cols: 400, D: 3, Seed: 5}, true,
			func(m *CSR) int64 { return 8 * int64(m.Rows+1) }},
	} {
		fixture, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		m, err := GapMatrix(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		width := 0
		if c.gaps {
			width = ColGapWidth(m)
		}
		if !bytes.Equal(encodeCRS2Form(t, m, width), fixture) {
			t.Fatalf("%s: writeCRS2 without what came after is not byte for byte what the parent's WriteCRS2 wrote", c.file)
		}
		got, err := DecodeCRSBytes(fixture)
		if err != nil {
			t.Fatal(err)
		}
		var s ViewScratch
		view, _, err := ViewCRSBytes(atOffset(fixture, 0), &s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, m) || !sameCSR(view, m) || view.gapForm() != c.gaps {
			t.Fatalf("%s does not read back as the matrix it was written from, gap form %v", c.file, c.gaps)
		}
		if viewDebugForceCopy || !crsLittleEndian {
			continue
		}
		if want := c.copied(m); s.CopiedBytes() != want {
			t.Errorf("%s: a view copied %d bytes, want %d", c.file, s.CopiedBytes(), want)
		}
		if !c.gaps {
			continue
		}
		today := encodeCRS(t, m, true)
		if bytes.Equal(today, fixture) {
			t.Fatalf("%s: WriteCRS2 still writes the parent's bytes: the fixture's row pointers are no sliver", c.file)
		}
		if view, _, err = ViewCRSBytes(atOffset(today, 0), &s, nil); err != nil || !sameCSR(view, m) || s.CopiedBytes() != 0 {
			t.Errorf("%s: the same matrix written today views with err %v, %d bytes copied; want the matrix and 0", c.file, err, s.CopiedBytes())
		}
	}
}

// TestViewMatchesDecode: a view and a decode of the same bytes are the same
// matrix, whatever the format, the form of the column section, the parity of
// nnz or the alignment of the bytes, and a scratch carried from block to
// block never leaks one block into the next. Every section a writer stored
// verbatim — all of a WriteCRS block; of a WriteCRS2 block what the adaptive
// encoder left raw and a column section in gap form — is viewed in an
// aligned buffer without copying a byte; the realign copy is left to
// misaligned buffers and to legacy blocks without their format's pad, the
// decode into the scratch to compressed sections. A view keeps the gap form
// it finds, a decode never does.
func TestViewMatchesDecode(t *testing.T) {
	var s ViewScratch
	odd, even, rawV2, rawRowPtr := 0, 0, 0, 0
	forms := map[int]int{}
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
		type format struct {
			name string
			enc  []byte
			// off is where each section's bytes lie in the block, -1 for a
			// compressed section; width the gap width of the column section.
			off   [3]int
			width int
		}
		formats := []format{
			{"v1", padded, [3]int{HeaderBytes, colOff, len(padded) - 4 - 8*int(m.NNZ())}, 0},
			{"legacy v1", legacyCRS(t, m), [3]int{HeaderBytes, colOff, colOff + 4*int(m.NNZ())}, 0},
		}
		v2 := []format{
			{name: "v2", enc: encodeCRS(t, m, true)},
			{name: "v2 before the sliver rule", enc: encodeCRS2Form(t, m, ColGapWidth(m))},
			{name: "v2 delta32", enc: encodeCRS2Form(t, m, 0)},
			{name: "legacy v2", enc: legacyCRS2(t, m)},
		}
		// Any block with an entry can be written in either gap form its gaps
		// fit, also where WriteCRS2 would not have.
		if maxGap := rowsOf(m).widestGap(); m.NNZ() > 0 {
			if maxGap <= math.MaxUint8 {
				v2 = append(v2, format{name: "v2 gap8", enc: encodeCRS2Form(t, m, 1)})
			}
			if maxGap <= math.MaxUint16 {
				v2 = append(v2, format{name: "v2 gap16", enc: encodeCRS2Form(t, m, 2)})
			}
		}
		forms[colForm(v2[0].enc)]++
		// The sliver rule is the only thing that leaves row pointers a codec
		// shrinks raw: the same block written without it decodes them.
		if _, _, now := crs2Sections(v2[0].enc); now[0] >= 0 {
			if _, _, before := crs2Sections(v2[1].enc); before[0] < 0 {
				rawRowPtr++
			}
		}
		for _, f := range v2 {
			_, _, f.off = crs2Sections(f.enc)
			f.width = colForm(f.enc)
			for i, off := range f.off {
				if off >= 0 && f.name != "legacy v2" {
					rawV2++
					if off%8 != 0 {
						t.Fatalf("nnz %d: %s put raw section %d %d bytes into the block", m.NNZ(), f.name, i, off)
					}
				}
			}
			formats = append(formats, f)
		}
		for _, f := range formats {
			enc := f.enc
			want, err := DecodeCRSBytes(enc)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			if !sameCSR(want, m) || want.gapForm() {
				t.Fatalf("decode of a %dx%d nnz %d block (%s) is not the matrix written, columns as ColIdx", m.Rows, m.Cols, m.NNZ(), f.name)
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
				if got.gapForm() != (f.width != 0) || len(got.Gap8) != 0 && f.width != 1 || len(got.Gap16) != 0 && f.width != 2 {
					t.Fatalf("view at offset %d (%s): gap form %v with %d one-byte and %d two-byte gaps over a section of form %d",
						k, f.name, got.gapForm(), len(got.Gap8), len(got.Gap16), f.width)
				}
				if wantCRC := binary.LittleEndian.Uint32(enc[len(enc)-4:]); crc != wantCRC {
					t.Fatalf("view reports crc %08x, block carries %08x", crc, wantCRC)
				}
				// Where the bytes allow it the view is the bytes: a section
				// stored verbatim whose place in memory is aligned for its
				// element type is never copied.
				type section struct {
					name          string
					aliased       bool
					off, size, n  int
					insideScratch bool
				}
				secs := []section{
					{"RowPtr", within(got.RowPtr, data), f.off[0], 8, len(got.RowPtr), inside(got.RowPtr, nil, s.rowPtr)},
					{"Val", within(got.Val, data), f.off[2], 8, len(got.Val), inside(got.Val, nil, s.val)},
				}
				switch f.width {
				case 0:
					secs = append(secs, section{"ColIdx", within(got.ColIdx, data), f.off[1], 4, len(got.ColIdx), inside(got.ColIdx, nil, s.colIdx)})
				case 1:
					secs = append(secs, section{"Gap8", within(got.Gap8, data), f.off[1] + 4*m.Rows, 1, len(got.Gap8), inside(got.Gap8, nil, s.gap8)})
				case 2:
					secs = append(secs, section{"Gap16", within(got.Gap16, data), f.off[1] + 4*m.Rows, 2, len(got.Gap16), inside(got.Gap16, nil, s.gap16)})
				}
				if f.width != 0 {
					secs = append(secs, section{"RowFirst", within(got.RowFirst, data), f.off[1], 4, len(got.RowFirst), inside(got.RowFirst, nil, s.first)})
				}
				var copied int64
				for _, sec := range secs {
					want := crsLittleEndian && !viewDebugForceCopy && sec.off >= 0 && (k+sec.off)%sec.size == 0 && sec.n > 0
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
	if forms[0] == 0 || forms[1] == 0 || forms[2] == 0 {
		t.Fatalf("WriteCRS2 chose column forms %v over the matrices; need all three", forms)
	}
	if rawRowPtr == 0 {
		t.Fatal("no matrix has row pointers WriteCRS2 leaves raw as a sliver and its parent compressed; need both ways of storing them")
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
// — raw values, columns in gap form — is the block's own bytes, a compressed
// one is decoded into the scratch, at every level of trust. Of a block with a
// few entries a row only RowPtr is decoded, of one with long rows nothing.
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
		name  string
		m     *CSR
		raw   [3]bool // which sections the writer stores verbatim
		width int     // the gap width of the column section
	}{
		{"odd nnz", odd, [3]bool{false, true, true}, 1},
		{"even nnz", even, [3]bool{false, true, true}, 1},
		{"two-byte gaps", viewTestMatrices()[7], [3]bool{false, true, true}, 2},
		{"delta32 ColIdx", viewTestMatrices()[8], [3]bool{false, false, true}, 0},
		{"zero nnz", &CSR{Rows: 40, Cols: 40, RowPtr: make([]int64, 41)}, [3]bool{false, true, true}, 0},
		{"raw ColIdx", scattered, [3]bool{false, true, true}, 0},
		{"sliver RowPtr", viewTestMatrices()[9], [3]bool{true, true, true}, 1},
	} {
		data := atOffset(encodeCRS(t, c.m, true), 0)
		_, _, rawOff := crs2Sections(data)
		for i, off := range rawOff {
			if (off >= 0) != c.raw[i] {
				t.Fatalf("%s: section %d stored verbatim = %v, the case wants %v", c.name, i, off >= 0, c.raw[i])
			}
		}
		if got := colForm(data); got != c.width {
			t.Fatalf("%s: column section of form %d, the case wants %d", c.name, got, c.width)
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
			if within(got.RowPtr, data) != c.raw[0] || !inside(got.RowPtr, data, s.rowPtr) {
				t.Errorf("%s, trust %d: RowPtr aliases the block = %v, want %v", c.name, trust, within(got.RowPtr, data), c.raw[0])
			}
			if nnz := c.m.NNZ(); nnz > 0 {
				switch c.width {
				case 0:
					if within(got.ColIdx, data) != c.raw[1] || !inside(got.ColIdx, data, s.colIdx) {
						t.Errorf("%s, trust %d: ColIdx aliases the block = %v, want %v", c.name, trust, within(got.ColIdx, data), c.raw[1])
					}
				case 1:
					if !within(got.RowFirst, data) || !within(got.Gap8, data) || got.ColIdx != nil || got.Gap16 != nil {
						t.Errorf("%s, trust %d: the view is not the block's own one-byte gaps", c.name, trust)
					}
				case 2:
					if !within(got.RowFirst, data) || !within(got.Gap16, data) || got.ColIdx != nil || got.Gap8 != nil {
						t.Errorf("%s, trust %d: the view is not the block's own two-byte gaps", c.name, trust)
					}
				}
				if within(got.Val, data) != c.raw[2] || !inside(got.Val, data, s.val) {
					t.Errorf("%s, trust %d: Val aliases the block = %v, want %v", c.name, trust, within(got.Val, data), c.raw[2])
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
// multiply. ns/op and MB/s (of staged bytes) are the V2 block's alone. The
// same matrix staged as a V1 block is timed in the same loop, and "x-v1" is
// the ratio of the two: the compressed block decodes RowPtr and nothing else,
// so it must multiply at about the uncompressed one's speed on any machine
// (make perf-gate). allocs/op counts both views.
func BenchmarkViewCRS2(b *testing.B) {
	m, err := GapMatrix(GapGenConfig{Rows: 750, Cols: 750, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	var s ViewScratch
	trust := func(uint32) Trust { return TrustStructure }
	viewAndMultiply := func(data []byte) {
		v, _, err := ViewCRSBytes(data, &s, trust)
		if err != nil {
			b.Fatal(err)
		}
		(*Pool)(nil).MulVec(v, x, y)
	}
	v1, v2 := atOffset(encodeCRS(b, m, false), 0), atOffset(encodeCRS(b, m, true), 0)
	b.ReportAllocs()
	b.ResetTimer()
	// The two alternate, so whatever else the machine is doing falls on both.
	var v1Time, v2Time time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		viewAndMultiply(v1)
		t1 := time.Now()
		viewAndMultiply(v2)
		v1Time += t1.Sub(t0)
		v2Time += time.Since(t1)
	}
	b.ReportMetric(float64(v2Time)/float64(b.N), "ns/op")
	b.ReportMetric(float64(len(v2))*float64(b.N)/1e6/v2Time.Seconds(), "MB/s")
	b.ReportMetric(float64(v2Time)/float64(v1Time), "x-v1")
}

// resealCRS2 makes the checksums of a doctored V2 block good again: the frame
// CRC of every section stored verbatim, then the block's.
func resealCRS2(enc []byte) []byte {
	frameOff, frameLen, rawOff := crs2Sections(enc)
	for i, off := range rawOff {
		if off >= 0 {
			binary.LittleEndian.PutUint32(enc[frameOff[i]+14:], crc32.Checksum(enc[off:frameOff[i]+frameLen[i]], crsCRCTable))
		}
	}
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(enc[:len(enc)-4], crsCRCTable))
	return enc
}

// badGapBlocks returns V2 blocks whose column section is in gap form and
// whose every checksum is good, but whose gaps no matrix has. The matrix
// under them is 3 × 210: row 0 holds columns 0, 100, 200, row 1 is empty,
// row 2 holds 2, 102, 202.
func badGapBlocks(t testing.TB) map[string][]byte {
	t.Helper()
	m := spreadCSR(3, 3, 100)
	m.Cols = 210
	copy(m.ColIdx[3:], m.ColIdx[6:])
	copy(m.Val[3:], m.Val[6:])
	m.ColIdx, m.Val = m.ColIdx[:6], m.Val[:6]
	m.RowPtr = []int64{0, 3, 3, 6}
	good := encodeCRS2Form(t, m, 1)
	if _, err := DecodeCRSBytes(good); err != nil {
		t.Fatal(err)
	}
	_, _, rawOff := crs2Sections(good)
	first, gaps := rawOff[1], rawOff[1]+4*m.Rows
	doctor := func(f func(enc []byte)) []byte {
		enc := append([]byte(nil), good...)
		f(enc)
		return resealCRS2(enc)
	}
	// A gap section cut short: the frame, and the prefix before it, honestly
	// describe one gap fewer than the shape calls for.
	frameOff, frameLen, _ := crs2Sections(good)
	end := frameOff[1] + frameLen[1]
	short := append(append([]byte(nil), good[:end-1]...), good[end:]...)
	binary.LittleEndian.PutUint64(short[frameOff[1]+6:], uint64(frameLen[1]-1-compress.FrameHeaderLen))
	short[frameOff[0]+frameLen[0]]-- // low byte of the prefix: the frame length
	return map[string][]byte{
		"zero gap mid-row":              doctor(func(enc []byte) { enc[gaps+1] = 0 }),
		"gap at a row's start":          doctor(func(enc []byte) { enc[gaps+3] = 1 }),
		"running column reaches Cols":   doctor(func(enc []byte) { enc[gaps+5] = 210 - 102 }),
		"first column out of range":     doctor(func(enc []byte) { binary.LittleEndian.PutUint32(enc[first:], 210) }),
		"first column negative":         doctor(func(enc []byte) { binary.LittleEndian.PutUint32(enc[first+8:], 1<<31) }),
		"truncated gap section":         resealCRS2(short),
		"gap form claimed by section 0": doctor(func(enc []byte) { enc[HeaderBytes+7] |= 1 << 4 }),
		"gap width 3":                   doctor(func(enc []byte) { enc[frameOff[0]+frameLen[0]+7] |= 3 << 4 }),
	}
}

// TestGapSectionRejects: nothing vouched for, every bad gap block is refused
// — by the decode and the view alike — and none panics at a lower trust,
// where the block's own checksum is all that is asked of it.
func TestGapSectionRejects(t *testing.T) {
	var s ViewScratch
	for name, enc := range badGapBlocks(t) {
		_, derr := DecodeCRSBytes(enc)
		_, _, verr := ViewCRSBytes(atOffset(enc, 0), &s, nil)
		if derr == nil || verr == nil {
			t.Errorf("%s: decode err %v, view err %v; want both to fail", name, derr, verr)
		} else if derr.Error() != verr.Error() {
			t.Errorf("%s: decode says %q, view says %q", name, derr, verr)
		}
		for _, trust := range []Trust{TrustStructure, TrustBytes} {
			ViewCRSBytes(atOffset(enc, 0), &s, func(uint32) Trust { return trust })
		}
	}
}

// FuzzDecodeCRS: on arbitrary bytes the one CRS parser never panics, the view
// and the decode agree — both refuse, or both return the same valid matrix —
// and a view's sections lie inside data or inside the scratch, nowhere else.
func FuzzDecodeCRS(f *testing.F) {
	for _, enc := range badGapBlocks(f) {
		f.Add(enc)
	}
	for _, m := range viewTestMatrices()[6:10] { // one-byte gaps, two-byte gaps, delta32 for a gap too wide, raw RowPtr
		enc := encodeCRS(f, m, true)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, name := range []string{"testdata/crs2_pr16.bin", "testdata/crs2_pr17.bin"} { // delta64 RowPtr as the parents wrote it
		enc, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, m := range viewTestMatrices()[:6] {
		v2 := encodeCRS2Form(f, m, 0)
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
		seeds := [][]byte{encodeCRS(f, m, false), legacyCRS(f, m), v2, legacyCRS2(f, m), padPast, padSet}
		if m.NNZ() > 0 {
			seeds = append(seeds, encodeCRS2Form(f, m, 1), encodeCRS2Form(f, m, 2))
		}
		for _, enc := range seeds {
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
			if !inside(got.RowPtr, data, s.rowPtr) || !inside(got.ColIdx, data, s.colIdx) || !inside(got.Val, data, s.val) ||
				!inside(got.RowFirst, data, s.first) || !inside(got.Gap8, data, s.gap8) || !inside(got.Gap16, data, s.gap16) {
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
