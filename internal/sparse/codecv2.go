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
//	32      8     row-pointer section prefix, 0–7 zero pad bytes, the frame
//	...     8     column-index section prefix, pad, frame
//	...     8     value section prefix, pad, frame
//	last    4     CRC32 (Castagnoli) of everything before it
//
// A section prefix is a little-endian uint64: the frame length in the low 56
// bits and the pad count in the top byte. The pad puts the frame's payload —
// the bytes after its 18-byte header — at a multiple of 8 from the start of
// the block, so a section the adaptive encoder left raw is multiplied where
// it lies in an aligned buffer, like a V1 section (ViewCRSBytes). Files
// written before the pad existed carry 0 in the top byte, which a frame
// length never reached, and no pad: they decode as ever, a raw section
// whose payload is not aligned being copied into the scratch.
//
// The file CRC covers the compressed bytes (cheap, catches truncation);
// each frame additionally carries a CRC of its decoded bytes, so a decode
// can never silently return wrong data.
const crsMagicV2 = "DOOCCRS2"

// crs2PadBytes is the pad after a section prefix that ends pos bytes into
// the block.
func crs2PadBytes(pos int64) int64 { return -(pos + compress.FrameHeaderLen) & 7 }

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
	var prefix, zeros [8]byte
	pos := int64(HeaderBytes)
	for i := 0; i < 3; i++ {
		frame, _ := compress.EncodeAdaptive(sectionCodec(i), sectionBytes(i, m))
		pos += 8
		pad := crs2PadBytes(pos)
		binary.LittleEndian.PutUint64(prefix[:], uint64(pad)<<56|uint64(len(frame)))
		if _, err := bw.Write(prefix[:]); err != nil {
			return err
		}
		if _, err := bw.Write(zeros[:pad]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		pos += pad + int64(len(frame))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], crc.Sum32())
	_, err := w.Write(crcBytes[:])
	return err
}

// crs2Frame slices the frame of section i out of a V2 block. body starts at
// the section's prefix, pos bytes into the block; rest is what follows the
// frame. The pad is none (a file that predates it) or exactly what the
// position calls for, and zero.
func crs2Frame(i int, body []byte, pos, rawLen int64) (frame, rest []byte, err error) {
	if len(body) < 8 {
		return nil, nil, fmt.Errorf("sparse: short section %d length", i)
	}
	prefix := binary.LittleEndian.Uint64(body)
	pad, frameLen := int64(prefix>>56), prefix&(1<<56-1)
	body = body[8:]
	if pad != 0 && pad != crs2PadBytes(pos+8) {
		return nil, nil, fmt.Errorf("sparse: section %d claims a %d-byte pad at offset %d", i, pad, pos+8)
	}
	if pad > int64(len(body)) {
		return nil, nil, fmt.Errorf("sparse: section %d pad runs past the block", i)
	}
	for _, b := range body[:pad] {
		if b != 0 {
			return nil, nil, fmt.Errorf("sparse: section %d alignment pad is not zero", i)
		}
	}
	body = body[pad:]
	// Adaptive encoding never produces a frame larger than raw plus the
	// frame header, so anything bigger is corruption, not data.
	if frameLen > uint64(rawLen)+compress.FrameHeaderLen {
		return nil, nil, fmt.Errorf("sparse: section %d frame claims %d bytes for a %d-byte section", i, frameLen, rawLen)
	}
	if frameLen > uint64(len(body)) {
		return nil, nil, fmt.Errorf("sparse: short section %d frame: %d of %d bytes", i, len(body), frameLen)
	}
	return body[:frameLen], body[frameLen:], nil
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
