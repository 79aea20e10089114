package sparse

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"
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
// block that cannot alias its bytes. The zero value is ready. A scratch
// backs one live view at a time — the next ViewCRSBytes on it overwrites
// the previous view.
type ViewScratch struct {
	m      CSR
	rowPtr []int64
	colIdx []int32
	val    []float64
}

// crsSection returns the n little-endian elements encoded in src as a []T.
// With alias set it reinterprets src in place when the host is little-endian
// and src's base is aligned for T — the guard storage.castFloat64s applies,
// and the one checkptr enforces under -race. Otherwise it copies into *buf,
// which grows to the largest section it has held and never shrinks.
func crsSection[T int32 | int64 | float64](src []byte, n int, alias bool, buf *[]T) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if alias && crsLittleEndian && n > 0 {
		if p := unsafe.Pointer(unsafe.SliceData(src)); uintptr(p)%uintptr(size) == 0 {
			return unsafe.Slice((*T)(p), n)
		}
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	dst := (*buf)[:n]
	if n == 0 {
		return dst
	}
	db := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), size*n)
	copy(db, src)
	if !crsLittleEndian {
		for i := 0; i < len(db); i += size {
			slices.Reverse(db[i : i+size])
		}
	}
	return dst
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

// decodeCRS parses a V1 or V2 block into s.m, verifying shape and — with
// checkCRC — checksum, but not structure; it returns the checksum the block
// carries. alias lets V1 sections point into data. V2 sections always adopt
// the codec's freshly decoded output, which nothing else references.
func decodeCRS(data []byte, s *ViewScratch, alias, checkCRC bool) (*CSR, uint32, error) {
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
	if checkCRC {
		if want := crc32.Checksum(data[:len(data)-4], crsCRCTable); crc != want {
			return nil, 0, fmt.Errorf("sparse: CRS checksum mismatch: file=%08x computed=%08x", crc, want)
		}
	}
	for i := 0; i < 3; i++ {
		rawLen := sectionRawLen(i, rows, nnz)
		var raw []byte
		if magic == crsMagic {
			raw, body = body[:rawLen], body[rawLen:] // in range: the size check above
			if i == 1 && pad != 0 {
				if binary.LittleEndian.Uint32(body) != 0 {
					return nil, 0, fmt.Errorf("sparse: CRS alignment pad is not zero")
				}
				body = body[pad:]
			}
		} else {
			var err error
			if raw, body, err = crs2Section(i, body, rawLen); err != nil {
				return nil, 0, err
			}
			alias = true
		}
		switch i {
		case 0:
			s.m.RowPtr = crsSection(raw, int(rows+1), alias, &s.rowPtr)
		case 1:
			s.m.ColIdx = crsSection(raw, int(nnz), alias, &s.colIdx)
		default:
			s.m.Val = crsSection(raw, int(nnz), alias, &s.val)
		}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("sparse: %d stray bytes after the CRS sections", len(body))
	}
	s.m.Rows, s.m.Cols = int(rows), int(cols)
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
// the RowPtr, ColIdx and Val of a V1 block alias data wherever the section
// is aligned for its element type — every section of a block WriteCRS wrote,
// held in an 8-byte-aligned buffer — and are copied into s otherwise (a
// misaligned buffer, the Val of a legacy unpadded block with odd nnz), so a
// steady stream of views allocates nothing. The returned matrix is valid
// only while data is, and only until the next ViewCRSBytes on s; ReleaseView
// ends it. A nil s, like DecodeCRSBytes, copies every section into fresh
// memory.
//
// trust is asked once, with the checksum the block carries, how much of the
// verification the caller has already seen done (see Trust); a nil trust
// verifies everything. The checksum is returned for the caller to remember.
func ViewCRSBytes(data []byte, s *ViewScratch, trust func(crc uint32) Trust) (*CSR, uint32, error) {
	alias := s != nil && !viewDebugForceCopy
	if !alias {
		s = new(ViewScratch)
	}
	trusted := TrustNothing
	if trust != nil && len(data) >= 4 {
		trusted = trust(binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
	m, crc, err := decodeCRS(data, s, alias, trusted != TrustBytes)
	if err != nil {
		return nil, 0, err
	}
	if trusted == TrustNothing {
		if err := m.Validate(); err != nil {
			return nil, 0, fmt.Errorf("sparse: invalid CRS payload: %w", err)
		}
	}
	return m, crc, nil
}
