package sparse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"dooc/internal/compress"
)

// Section-compressed CRS file format (V2).
//
// The shape header is identical to V1 so ReadCRSHeader works on either
// version, but the three payload sections travel as self-describing
// compress frames, each chosen per-section: row pointers are monotone
// (delta64), column indices are sorted within rows (delta32), and values
// are float64 (fshuf). Each frame is adaptive, so an incompressible
// section degrades to raw plus 18 bytes rather than growing, and a section
// under 1/64 of the block's section bytes — the row pointers of a block with
// long rows — is stored raw whatever its codec would save: no view of the
// block then decodes anything.
//
//	offset  size  field
//	0       8     magic "DOOCCRS2"
//	8       8     rows  (int64)
//	16      8     cols  (int64)
//	24      8     nnz   (int64)
//	32      8     row-pointer section prefix, 0–7 zero pad bytes, the frame
//	...     8     column-index section prefix, pad, frame
//	...     8     value section prefix, pad, frame
//	last    4     CRC32 (Castagnoli) of everything before it
//
// A section prefix is a little-endian uint64: the frame length in the low 56
// bits, the pad count in the low nibble of the top byte and, for the column
// section, its form in the high nibble. The pad puts the frame's payload —
// the bytes after its 18-byte header — at a multiple of 8 from the start of
// the block, so a section stored verbatim is multiplied where it lies in an
// aligned buffer, like a V1 section (ViewCRSBytes). Files written before the
// pad existed carry 0 in the top byte, which a frame length never reached,
// and no pad: they decode as ever, a raw section whose payload is not
// aligned being copied into the scratch.
//
// The column section has two forms. Form 0 is the int32 column indices
// behind the delta32 codec, what every file written before the other
// existed holds. Form 1 or 2 is the gap form, the number being the width of
// a gap in bytes: a raw frame whose payload is the first column of every
// row (int32, 0 for an empty row) and then, for every stored entry, its
// distance from the entry before it in its row (0 for a row's first). No
// codec touches it, so a view aliases it like the values and the kernel
// multiplies out of the gaps (CSR.RowFirst, Gap8, Gap16): loop-invariant
// indices are never inflated. WriteCRS2 takes the width from the block's
// widest in-row gap and keeps the gap form when it clears the ratio every
// adaptive frame must (1.1 against the int32 indices); a block with a gap
// of 65536 or more, or with so few entries per row that the first columns
// outweigh what the gaps save, stays in form 0.
//
// The file CRC covers the compressed bytes (cheap, catches truncation);
// each frame additionally carries a CRC of its decoded bytes, so a decode
// can never silently return wrong data.
const crsMagicV2 = "DOOCCRS2"

// crs2PadBytes is the pad after a section prefix that ends pos bytes into
// the block.
func crs2PadBytes(pos int64) int64 { return -(pos + compress.FrameHeaderLen) & 7 }

// ColGapWidth is the form WriteCRS2 gives m's column section: the width in
// bytes of one gap, 1 or 2, or 0 for delta32 over the int32 indices.
func ColGapWidth(m *CSR) int { return gapWidth(rowsOf(m)) }

// gapWidth is ColGapWidth of the rows s.
func gapWidth(s blockRows) int {
	width := 1
	switch widest := s.widestGap(); {
	case widest > math.MaxUint16:
		return 0
	case widest > math.MaxUint8:
		width = 2
	}
	// Held to the rule every adaptive frame is, against the int32 indices.
	if !compress.KeepsCodec(int(4*s.nnz), compress.FrameHeaderLen+int(sectionRawLen(1, width, int64(s.rows), s.nnz))) {
		return 0
	}
	return width
}

// blockRows is what a V2 block is encoded from, read where it lies: row r
// holds entries [lo, hi) = span(r) of colIdx and val, its columns less c0. A
// matrix is its own rows (rowsOf); a block of a split block row is the
// split's ranges of the matrix it was cut from (BlockRow), so staging builds
// no block before encoding it.
type blockRows struct {
	rows, cols int
	nnz        int64
	colIdx     []int32
	val        []float64
	c0         int32
	span       func(r int) (lo, hi int64)
}

// rowsOf is m's rows; m must carry ColIdx.
func rowsOf(m *CSR) blockRows {
	return blockRows{rows: m.Rows, cols: m.Cols, nnz: m.NNZ(), colIdx: m.ColIdx, val: m.Val,
		span: func(r int) (int64, int64) { return m.RowPtr[r], m.RowPtr[r+1] }}
}

// widestGap is the largest distance between neighbouring entries of a row.
func (s blockRows) widestGap() int32 {
	var w int32
	for r := 0; r < s.rows; r++ {
		lo, hi := s.span(r)
		cols := s.colIdx[lo:hi]
		for k := 1; k < len(cols); k++ {
			w = max(w, cols[k]-cols[k-1])
		}
	}
	return w
}

// putGaps lays the columns of s in gap form, gaps of width bytes, into dst,
// every byte of it: the first column of every row (0 for an empty row), then
// every entry's gap from the entry before it in its row (0 for a row's
// first).
func putGaps(dst []byte, s blockRows, width int) {
	gaps := dst[4*s.rows:]
	for r := 0; r < s.rows; r++ {
		lo, hi := s.span(r)
		cols := s.colIdx[lo:hi]
		if len(cols) == 0 {
			binary.LittleEndian.PutUint32(dst[4*r:], 0)
			continue
		}
		binary.LittleEndian.PutUint32(dst[4*r:], uint32(cols[0]-s.c0))
		if width == 1 {
			g := gaps[:len(cols)]
			g[0] = 0
			for k := 1; k < len(g); k++ {
				g[k] = uint8(cols[k] - cols[k-1])
			}
			gaps = gaps[len(cols):]
			continue
		}
		g := gaps[:2*len(cols)]
		binary.LittleEndian.PutUint16(g, 0)
		for k := 1; k < len(cols); k++ {
			binary.LittleEndian.PutUint16(g[2*k:], uint16(cols[k]-cols[k-1]))
		}
		gaps = gaps[2*len(cols):]
	}
}

// sectionCodec returns the preferred codec for section i (0 = row
// pointers, 1 = column indices, 2 = values).
func sectionCodec(i int) compress.Codec {
	ids := [3]uint8{compress.IDDeltaVarint, compress.IDDeltaVarint3, compress.IDFloatShuffle}
	c, ok := compress.ByID(ids[i])
	if !ok {
		return compress.Raw{}
	}
	return c
}

// sectionRawLen returns the byte size of what section i's frame holds for a
// matrix with the given shape; width is the gap width of a column section in
// gap form, 0 for any other section.
func sectionRawLen(i, width int, rows, nnz int64) int64 {
	switch {
	case i == 0:
		return 8 * (rows + 1)
	case i == 1 && width != 0:
		return 4*rows + int64(width)*nnz
	case i == 1:
		return 4 * nnz
	default:
		return 8 * nnz
	}
}

// putSection lays section i of s into dst in the little-endian layout the
// V1 format uses, which is what the section codecs are tuned for; width is
// the gap width of a column section in gap form, 0 otherwise.
func putSection(dst []byte, i, width int, s blockRows) {
	switch {
	case i == 0:
		var p int64
		binary.LittleEndian.PutUint64(dst, 0)
		for r := 0; r < s.rows; r++ {
			lo, hi := s.span(r)
			p += hi - lo
			binary.LittleEndian.PutUint64(dst[8*(r+1):], uint64(p))
		}
	case i == 1 && width != 0:
		putGaps(dst, s, width)
	case i == 1:
		at := 0
		for r := 0; r < s.rows; r++ {
			lo, hi := s.span(r)
			for _, c := range s.colIdx[lo:hi] {
				binary.LittleEndian.PutUint32(dst[at:], uint32(c-s.c0))
				at += 4
			}
		}
	default:
		at := 0
		for r := 0; r < s.rows; r++ {
			lo, hi := s.span(r)
			at += putFloats(dst[at:], s.val[lo:hi])
		}
	}
}

// putFloats lays vals into dst little-endian — on a little-endian host, one
// copy — and returns the bytes it wrote.
func putFloats(dst []byte, vals []float64) int {
	if crsLittleEndian {
		return copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals)))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	return 8 * len(vals)
}

// WriteCRS2 writes m to w in section-compressed V2 format.
func WriteCRS2(w io.Writer, m *CSR) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("sparse: refusing to write invalid matrix: %w", err)
	}
	_, err := w.Write(encodeCRS2(nil, rowsOf(m)))
	return err
}

// encodeCRS2 appends the V2 block of the valid rows s, in the column form
// their gaps call for.
func encodeCRS2(dst []byte, s blockRows) []byte { return appendCRS2(dst, s, gapWidth(s), true) }

// sliverShare: a section under 1/sliverShare of the block is stored raw.
const sliverShare = 64

// appendCRS2 appends the V2 block of the valid rows s, its column section in
// the given form. slivers applies the sliver rule; without it the bytes are
// those WriteCRS2 wrote before the rule existed and, with width 0, before
// the gap form did.
//
// The block is built in one image, each section written once: its bytes are
// laid where a raw frame's payload goes, and a section a codec is tried on is
// encoded from there and its frame moved over them only when the adaptive
// rule keeps it. The file CRC then runs over the image.
func appendCRS2(dst []byte, s blockRows, width int, slivers bool) []byte {
	rows, nnz := int64(s.rows), s.nnz
	raw := [3]int64{sectionRawLen(0, 0, rows, nnz), sectionRawLen(1, width, rows, nnz), sectionRawLen(2, 0, rows, nnz)}
	base := len(dst)
	img := slices.Grow(dst, int(HeaderBytes+3*(8+7+compress.FrameHeaderLen)+raw[0]+raw[1]+raw[2]+4))
	img = append(img, crsMagicV2...)
	img = binary.LittleEndian.AppendUint64(img, uint64(s.rows))
	img = binary.LittleEndian.AppendUint64(img, uint64(s.cols))
	img = binary.LittleEndian.AppendUint64(img, uint64(nnz))
	var zeros [8]byte
	block := raw[0] + raw[1] + raw[2]
	for i := 0; i < 3; i++ {
		form := 0
		var c compress.Codec = compress.Raw{}
		switch {
		case i == 1 && width != 0:
			form = width
		case slivers && sliverShare*sectionRawLen(i, 0, rows, nnz) < block:
		default:
			c = sectionCodec(i)
		}
		prefixAt := len(img) - base
		pad := crs2PadBytes(int64(prefixAt + 8))
		img = append(append(img, zeros[:]...), zeros[:pad]...)
		frameAt := len(img)
		img = img[:frameAt+compress.FrameHeaderLen+int(raw[i])]
		section := img[frameAt+compress.FrameHeaderLen:]
		putSection(section, i, form, s)
		encoded := false
		if c.ID() != compress.IDRaw {
			var frame []byte
			if frame, encoded = compress.AppendCodecFrame(nil, c, section); encoded {
				img = append(img[:frameAt], frame...)
			}
		}
		if !encoded {
			compress.PutFrameHeader(img[frameAt:], compress.Raw{}, section)
		}
		frameLen := uint64(len(img) - frameAt)
		binary.LittleEndian.PutUint64(img[base+prefixAt:], uint64(form)<<60|uint64(pad)<<56|frameLen)
	}
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(img[base:], crsCRCTable))
}

// crs2Frame slices the frame of section i out of a V2 block with the given
// shape, and tells the section's form: width is 0, or the gap width of a
// column section in gap form. body starts at the section's prefix, pos bytes
// into the block; rest is what follows the frame. The pad is none (a file
// that predates it) or exactly what the position calls for, and zero.
func crs2Frame(i int, body []byte, pos, rows, nnz int64) (frame, rest []byte, width int, err error) {
	if len(body) < 8 {
		return nil, nil, 0, fmt.Errorf("sparse: short section %d length", i)
	}
	prefix := binary.LittleEndian.Uint64(body)
	width, pad, frameLen := int(prefix>>60), int64(prefix>>56&15), prefix&(1<<56-1)
	body = body[8:]
	// The writer gives the gap form to no section but the columns, and to no
	// block without an entry to save on.
	if width > 2 || width != 0 && (i != 1 || nnz == 0 || rows == 0) {
		return nil, nil, 0, fmt.Errorf("sparse: section %d of a %d-row block with %d entries claims form %d", i, rows, nnz, width)
	}
	if pad != 0 && pad != crs2PadBytes(pos+8) {
		return nil, nil, 0, fmt.Errorf("sparse: section %d claims a %d-byte pad at offset %d", i, pad, pos+8)
	}
	if pad > int64(len(body)) {
		return nil, nil, 0, fmt.Errorf("sparse: section %d pad runs past the block", i)
	}
	for _, b := range body[:pad] {
		if b != 0 {
			return nil, nil, 0, fmt.Errorf("sparse: section %d alignment pad is not zero", i)
		}
	}
	body = body[pad:]
	rawLen := sectionRawLen(i, width, rows, nnz)
	// Adaptive encoding never produces a frame larger than raw plus the
	// frame header, so anything bigger is corruption, not data.
	if frameLen > uint64(rawLen)+compress.FrameHeaderLen {
		return nil, nil, 0, fmt.Errorf("sparse: section %d frame claims %d bytes for a %d-byte section", i, frameLen, rawLen)
	}
	if frameLen > uint64(len(body)) {
		return nil, nil, 0, fmt.Errorf("sparse: short section %d frame: %d of %d bytes", i, len(body), frameLen)
	}
	return body[:frameLen], body[frameLen:], width, nil
}

// ReadCRSColumnForm reports how the CRS file at path stores its column
// indices, reading a few dozen bytes of it: "int32" for a DOOCCRS1 file; for
// a DOOCCRS2 file "gap8" or "gap16" for the gap form, otherwise the codec its
// column frame names ("delta32", or "raw" where that did not pay).
func ReadCRSColumnForm(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var buf [HeaderBytes + 8]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return "", fmt.Errorf("%s: short CRS header: %w", path, err)
	}
	switch string(buf[:8]) {
	case crsMagic:
		return "int32", nil
	case crsMagicV2:
	default:
		return "", fmt.Errorf("%s: bad CRS magic %q", path, buf[:8])
	}
	// Skip the row pointers: their prefix says how far.
	prefix := binary.LittleEndian.Uint64(buf[HeaderBytes:])
	skip := int64(prefix>>56&15) + int64(prefix&(1<<56-1))
	col := buf[:8+7+compress.FrameHeaderLen] // prefix, the longest pad, a frame header
	if _, err := f.ReadAt(col, HeaderBytes+8+skip); err != nil {
		return "", fmt.Errorf("%s: short column section: %w", path, err)
	}
	prefix = binary.LittleEndian.Uint64(col)
	switch prefix >> 60 {
	case 1:
		return "gap8", nil
	case 2:
		return "gap16", nil
	}
	c, err := compress.FrameCodec(col[8+prefix>>56&15:])
	if err != nil {
		return "", fmt.Errorf("%s: column section: %w", path, err)
	}
	return c.Name(), nil
}
