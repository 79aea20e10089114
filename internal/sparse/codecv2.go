package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"dooc/internal/compress"
)

// Section-compressed CRS file format (V2).
//
// The shape header is identical to V1 so ReadCRSHeader works on either
// version, but the three payload sections travel as self-describing
// compress frames, each chosen per-section: row pointers are monotone
// (delta64), column indices are sorted within rows (delta32), and values
// are float64 (fshuf). Each frame is adaptive, so an incompressible
// section degrades to raw plus 18 bytes rather than growing.
//
//	offset  size  field
//	0       8     magic "DOOCCRS2"
//	8       8     rows  (int64)
//	16      8     cols  (int64)
//	24      8     nnz   (int64)
//	32      8     row-pointer frame length, then the frame
//	...     8     column-index frame length, then the frame
//	...     8     value frame length, then the frame
//	last    4     CRC32 (Castagnoli) of everything before it
//
// The file CRC covers the compressed bytes (cheap, catches truncation);
// each frame additionally carries a CRC of its decoded bytes, so a decode
// can never silently return wrong data.
const crsMagicV2 = "DOOCCRS2"

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

// sectionRawLen returns the decoded byte size of section i for a matrix
// with the given shape.
func sectionRawLen(i int, rows, nnz int64) int64 {
	switch i {
	case 0:
		return 8 * (rows + 1)
	case 1:
		return 4 * nnz
	default:
		return 8 * nnz
	}
}

// sectionBytes serializes section i of m into the little-endian layout the
// V1 format uses, which is what the section codecs are tuned for.
func sectionBytes(i int, m *CSR) []byte {
	switch i {
	case 0:
		out := make([]byte, 8*len(m.RowPtr))
		for j, p := range m.RowPtr {
			binary.LittleEndian.PutUint64(out[8*j:], uint64(p))
		}
		return out
	case 1:
		out := make([]byte, 4*len(m.ColIdx))
		for j, c := range m.ColIdx {
			binary.LittleEndian.PutUint32(out[4*j:], uint32(c))
		}
		return out
	default:
		out := make([]byte, 8*len(m.Val))
		for j, v := range m.Val {
			binary.LittleEndian.PutUint64(out[8*j:], math.Float64bits(v))
		}
		return out
	}
}

// WriteCRS2 writes m to w in section-compressed V2 format.
func WriteCRS2(w io.Writer, m *CSR) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("sparse: refusing to write invalid matrix: %w", err)
	}
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	if _, err := bw.WriteString(crsMagicV2); err != nil {
		return err
	}
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.NNZ()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var lenBuf [8]byte
	for i := 0; i < 3; i++ {
		frame, _ := compress.EncodeAdaptive(sectionCodec(i), sectionBytes(i, m))
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(frame)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], crc.Sum32())
	_, err := w.Write(crcBytes[:])
	return err
}

// crs2Section decodes section i of a V2 block held in memory. body starts at
// the section's length prefix; the frame is sliced out of it where it lies
// and the codec's output — fresh memory nothing else references — is the
// section. rest is what follows the frame.
func crs2Section(i int, body []byte, rawLen int64) (raw, rest []byte, err error) {
	if len(body) < 8 {
		return nil, nil, fmt.Errorf("sparse: short section %d length", i)
	}
	frameLen := binary.LittleEndian.Uint64(body)
	body = body[8:]
	// Adaptive encoding never produces a frame larger than raw plus the
	// frame header, so anything bigger is corruption, not data.
	if frameLen > uint64(rawLen)+compress.FrameHeaderLen {
		return nil, nil, fmt.Errorf("sparse: section %d frame claims %d bytes for a %d-byte section", i, frameLen, rawLen)
	}
	if frameLen > uint64(len(body)) {
		return nil, nil, fmt.Errorf("sparse: short section %d frame: %d of %d bytes", i, len(body), frameLen)
	}
	raw, _, err = compress.DecodeFrame(body[:frameLen])
	if err != nil {
		return nil, nil, fmt.Errorf("sparse: section %d: %w", i, err)
	}
	if int64(len(raw)) != rawLen {
		return nil, nil, fmt.Errorf("sparse: section %d decoded to %d bytes, want %d", i, len(raw), rawLen)
	}
	return raw, body[frameLen:], nil
}

// WriteCRS2File writes m to path atomically in V2 format.
func WriteCRS2File(path string, m *CSR) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCRS2(f, m); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
