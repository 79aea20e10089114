package sparse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"

	"dooc/internal/compress"
)

// In-memory CRS parsing: the one parser of each format. A block that sits in
// memory — a staged sub-matrix resident in the storage layer, or a file
// ReadCRS has read whole — is checked against its CRC in one pass and its
// three sections become typed slices either by copy (DecodeCRSBytes, whose
// result owns its memory) or in place (ViewCRSBytes, whose result aliases
// the caller's bytes and dies with them).

var crsLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var crsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ViewScratch is one worker's reusable backing for ViewCRSBytes: the CSR
// header a view is returned in, and grow-only buffers for the sections of a
// block that cannot alias its bytes — a compressed V2 section is decoded
// straight into them, a misaligned one copied. The zero value is ready. A
// scratch backs one live view at a time — the next ViewCRSBytes on it
// overwrites the previous view — and belongs to whoever runs the views: it
// is not safe for concurrent use.
type ViewScratch struct {
	m      CSR
	rowPtr []int64
	colIdx []int32
	val    []float64
	first  []int32
	gap8   []uint8
	gap16  []uint16
	copied int64
}

// CopiedBytes is how many section bytes the last view on s had to
// materialise in the scratch — decoded by a codec or copied to realign —
// instead of aliasing the block: 0 for a block WriteCRS wrote, the RowPtr
// bytes of a typical WriteCRS2 block, whose columns are gaps and whose
// values are raw.
func (s *ViewScratch) CopiedBytes() int64 { return s.copied }

// crsSection returns the n little-endian elements of one section as a []T.
// The section is either raw, its bytes where they lie in the block, or — with
// frame non-nil — the compress frame that decodes to them. A raw section on
// a little-endian host, its base aligned for T — the guard
// storage.castFloat64s applies, and the one checkptr enforces under -race —
// is reinterpreted in place: with alias set that is the result, without it
// the result is its copy. Anything else is materialised in *buf byte by
// byte: a raw section by copy, a frame by decoding into it, its CRC checked
// with verify. *buf grows to the largest section it has held and never
// shrinks.
func crsSection[T uint8 | uint16 | int32 | int64 | float64](s *ViewScratch, raw, frame []byte, n int, alias, verify bool, buf *[]T) ([]T, error) {
	size := int(unsafe.Sizeof(*new(T)))
	if frame == nil && crsLittleEndian && n > 0 {
		if p := unsafe.Pointer(unsafe.SliceData(raw)); uintptr(p)%uintptr(size) == 0 {
			v := unsafe.Slice((*T)(p), n)
			if alias {
				return v, nil
			}
			// append, unlike make, does not clear what it is about to
			// overwrite: an owning decode of a block writes each byte once.
			*buf = append((*buf)[:0], v...)
			s.copied += int64(size * n)
			return *buf, nil
		}
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	dst := (*buf)[:n]
	db := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), size*n)
	if frame == nil {
		copy(db, raw)
	} else if _, err := compress.DecodeFrameInto(db, frame, verify); err != nil {
		return nil, err
	}
	s.copied += int64(len(db))
	if !crsLittleEndian {
		for i := 0; i < len(db); i += size {
			slices.Reverse(db[i : i+size])
		}
	}
	return dst, nil
}

// Trust is how much of a block's verification a caller of ViewCRSBytes takes
// on itself.
type Trust int

const (
	// TrustNothing verifies the CRC and walks the structure.
	TrustNothing Trust = iota
	// TrustStructure verifies the CRC and skips the O(nnz) structural walk:
	// bytes with this checksum have passed it — same checksum, same bytes,
	// same verdict.
	TrustStructure
	// TrustBytes parses the shape only: these very bytes — this buffer,
	// unchanged since — have passed both checks already.
	TrustBytes
)

// decodeCRS parses a V1 or V2 block into s.m, verifying shape and — as far
// as trusted leaves it to do — checksums, but not structure; it returns the
// checksum the block carries. alias lets raw sections point into data: every
// V1 section, and a V2 section stored verbatim — what the adaptive encoder
// left raw, and a column section in gap form, which comes back as the gap
// form of s.m. A compressed V2 section is decoded into s on every call,
// whatever the trust: TrustStructure skips only the frame CRCs (the block
// CRC has just vouched for the very bytes they were decoded from),
// TrustBytes the block CRC too. aliasGaps lets a gap section alone point
// into data: for a caller that will materialise it and let go.
func decodeCRS(data []byte, s *ViewScratch, alias, aliasGaps bool, trusted Trust) (*CSR, uint32, error) {
	if len(data) < HeaderBytes+4 {
		return nil, 0, fmt.Errorf("sparse: %d bytes is shorter than a CRS header", len(data))
	}
	magic := string(data[:8])
	if magic != crsMagic && magic != crsMagicV2 {
		return nil, 0, fmt.Errorf("sparse: bad CRS magic %q", data[:8])
	}
	rows := int64(binary.LittleEndian.Uint64(data[8:]))
	cols := int64(binary.LittleEndian.Uint64(data[16:]))
	nnz := int64(binary.LittleEndian.Uint64(data[24:]))
	const maxDim = 1 << 40
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxDim || cols > maxDim || nnz > maxDim {
		return nil, 0, fmt.Errorf("sparse: implausible CRS shape rows=%d cols=%d nnz=%d", rows, cols, nnz)
	}
	// A V1 block is exactly as long as its shape says, with the alignment
	// pad or — a file written before the pad existed — without it.
	var pad int64
	if magic == crsMagic {
		want := FileBytes(int(rows), nnz)
		switch pad = crsPadBytes(nnz); int64(len(data)) {
		case want:
		case want - pad:
			pad = 0
		default:
			return nil, 0, fmt.Errorf("sparse: CRS block is %d bytes, shape says %d", len(data), want)
		}
	}
	body := data[HeaderBytes : len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if trusted != TrustBytes {
		if want := crc32.Checksum(data[:len(data)-4], crsCRCTable); crc != want {
			return nil, 0, fmt.Errorf("sparse: CRS checksum mismatch: file=%08x computed=%08x", crc, want)
		}
	}
	verify := trusted == TrustNothing
	s.copied = 0
	s.m = CSR{Rows: int(rows), Cols: int(cols)}
	for i := 0; i < 3; i++ {
		var raw, frame []byte
		width := 0
		if magic == crsMagic {
			rawLen := sectionRawLen(i, 0, rows, nnz)
			raw, body = body[:rawLen], body[rawLen:] // in range: the size check above
			if i == 1 && pad != 0 {
				if binary.LittleEndian.Uint32(body) != 0 {
					return nil, 0, fmt.Errorf("sparse: CRS alignment pad is not zero")
				}
				body = body[pad:]
			}
		} else {
			var err error
			pos := int64(len(data) - 4 - len(body))
			if frame, body, width, err = crs2Frame(i, body, pos, rows, nnz); err != nil {
				return nil, 0, err
			}
			// The shape, not the frame, sizes the section: a frame that
			// claims any other length is refused before the scratch grows.
			rawLen := sectionRawLen(i, width, rows, nnz)
			c, n, err := compress.FrameRawLen(frame)
			if err == nil && int64(n) != rawLen {
				err = fmt.Errorf("frame holds %d bytes, shape says %d", n, rawLen)
			}
			if err == nil && (c.ID() == compress.IDRaw || width != 0) {
				raw, err = compress.RawPayload(frame, verify) // refuses a gap section behind a codec
				frame = nil
			}
			if err != nil {
				return nil, 0, fmt.Errorf("sparse: section %d: %w", i, err)
			}
		}
		var err error
		switch i {
		case 0:
			s.m.RowPtr, err = crsSection(s, raw, frame, int(rows+1), alias, verify, &s.rowPtr)
		case 1:
			if width == 0 {
				s.m.ColIdx, err = crsSection(s, raw, frame, int(nnz), alias, verify, &s.colIdx)
				break
			}
			if s.m.RowFirst, err = crsSection(s, raw[:4*rows], nil, int(rows), aliasGaps, verify, &s.first); err != nil {
				break
			}
			if width == 1 {
				s.m.Gap8, err = crsSection(s, raw[4*rows:], nil, int(nnz), aliasGaps, verify, &s.gap8)
			} else {
				s.m.Gap16, err = crsSection(s, raw[4*rows:], nil, int(nnz), aliasGaps, verify, &s.gap16)
			}
		default:
			s.m.Val, err = crsSection(s, raw, frame, int(nnz), alias, verify, &s.val)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("sparse: section %d: %w", i, err)
		}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("sparse: %d stray bytes after the CRS sections", len(body))
	}
	return &s.m, crc, nil
}

// DecodeCRSBytes decodes a binary CRS block (V1, padded or legacy, or
// section-compressed V2) held entirely in memory, verifying CRC and
// structure. The result owns its memory and outlives data.
func DecodeCRSBytes(data []byte) (*CSR, error) {
	m, _, err := ViewCRSBytes(data, nil, nil)
	return m, err
}

// ViewCRSBytes is DecodeCRSBytes without the copy: on a little-endian host
// a section stored verbatim — every section of a V1 block, a V2 section the
// adaptive encoder left raw — aliases data wherever it is aligned for its
// element type, which is everywhere in a block WriteCRS or WriteCRS2 wrote
// held in an 8-byte-aligned buffer. Any other section is materialised in s:
// a compressed V2 section decoded straight into it, a misaligned one (a
// misaligned buffer, a file written before its format's pad) copied, so a
// steady stream of views allocates nothing. The returned matrix is valid
// only while data is, and only until the next ViewCRSBytes on s; ReleaseView
// ends it. A block whose column section is in gap form is viewed in the gap
// form (CSR.RowFirst). A nil s, like DecodeCRSBytes, puts every section in
// fresh memory the result owns, the columns always as ColIdx.
//
// trust is asked once, with the checksum the block carries, how much of the
// verification the caller has already seen done (see Trust); a nil trust
// verifies everything. The checksum is returned for the caller to remember.
func ViewCRSBytes(data []byte, s *ViewScratch, trust func(crc uint32) Trust) (*CSR, uint32, error) {
	trusted := TrustNothing
	if trust != nil && len(data) >= 4 {
		trusted = trust(binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
	// An owning decode and a doocdebug view get memory of their own; what
	// the latter copied is still reported through the caller's scratch.
	into := s
	if s == nil || viewDebugForceCopy {
		into = new(ViewScratch)
	}
	m, crc, err := decodeCRS(data, into, into == s, into == s || s == nil, trusted)
	if s != nil {
		s.copied = into.copied
	}
	if err != nil {
		return nil, 0, err
	}
	if trusted == TrustNothing {
		if err := m.Validate(); err != nil {
			return nil, 0, fmt.Errorf("sparse: invalid CRS payload: %w", err)
		}
	}
	if s == nil && m.gapForm() {
		m.ColIdx = m.Columns()
		m.RowFirst, m.Gap8, m.Gap16 = nil, nil, nil
	}
	return m, crc, nil
}
