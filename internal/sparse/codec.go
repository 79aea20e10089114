package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary CRS file format.
//
// The paper stores every sub-matrix "in a separate file in binary Compressed
// Row Storage (CRS) format". We use a little-endian layout with a small
// header and a CRC so that truncated or corrupted files are detected rather
// than silently mis-multiplied:
//
//	offset  size  field
//	0       8     magic "DOOCCRS1"
//	8       8     rows  (int64)
//	16      8     cols  (int64)
//	24      8     nnz   (int64)
//	32      8*(rows+1)  row pointers (int64)
//	...     4*nnz       column indices (int32)
//	...     0 or 4      zero pad to an 8-byte boundary (4 when nnz is odd)
//	...     8*nnz       values (float64)
//	last    4     CRC32 (Castagnoli) of everything before it
//
// The pad puts the values at a multiple of 8 from the start of the block, so
// a block resident in an aligned buffer is multiplied where it lies
// (ViewCRSBytes). Files written before the pad existed have none; the reader
// tells the two apart by length — the shape fixes both sizes, and they differ
// exactly when nnz is odd.
const crsMagic = "DOOCCRS1"

// HeaderBytes is the size of the fixed CRS header.
const HeaderBytes = 32

// crsPadBytes is the zero pad between the column indices and the values.
func crsPadBytes(nnz int64) int64 { return 4 * (nnz & 1) }

// FileBytes returns the exact on-disk size of a CRS file with the given
// shape as WriteCRS writes it, including header, alignment pad and trailing
// CRC.
func FileBytes(rows int, nnz int64) int64 {
	return HeaderBytes + 8*int64(rows+1) + 12*nnz + crsPadBytes(nnz) + 4
}

// WriteCRS writes m to w in binary CRS format.
func WriteCRS(w io.Writer, m *CSR) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("sparse: refusing to write invalid matrix: %w", err)
	}
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	if _, err := bw.WriteString(crsMagic); err != nil {
		return err
	}
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.NNZ()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Encode in slabs: per-element writes would bottleneck the I/O filters.
	const slabElems = 64 << 10
	slab := make([]byte, 8*slabElems)
	for off := 0; off < len(m.RowPtr); off += slabElems {
		end := min(off+slabElems, len(m.RowPtr))
		for i, p := range m.RowPtr[off:end] {
			binary.LittleEndian.PutUint64(slab[8*i:], uint64(p))
		}
		if _, err := bw.Write(slab[:8*(end-off)]); err != nil {
			return err
		}
	}
	for off := 0; off < len(m.ColIdx); off += slabElems {
		end := min(off+slabElems, len(m.ColIdx))
		for i, c := range m.ColIdx[off:end] {
			binary.LittleEndian.PutUint32(slab[4*i:], uint32(c))
		}
		if _, err := bw.Write(slab[:4*(end-off)]); err != nil {
			return err
		}
	}
	var pad [4]byte
	if _, err := bw.Write(pad[:crsPadBytes(m.NNZ())]); err != nil {
		return err
	}
	for off := 0; off < len(m.Val); off += slabElems {
		end := min(off+slabElems, len(m.Val))
		for i, v := range m.Val[off:end] {
			binary.LittleEndian.PutUint64(slab[8*i:], math.Float64bits(v))
		}
		if _, err := bw.Write(slab[:8*(end-off)]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// CRC of all bytes written so far, appended raw (not part of its own sum).
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], crc.Sum32())
	_, err := w.Write(crcBytes[:])
	return err
}

// ReadCRS reads a binary CRS matrix (either format) from r to its end and
// decodes it with DecodeCRSBytes, verifying structure and CRC.
func ReadCRS(r io.Reader) (*CSR, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading CRS: %w", err)
	}
	return DecodeCRSBytes(data)
}

// WriteCRSFile writes m to path atomically (via a temp file + rename).
func WriteCRSFile(path string, m *CSR) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCRS(f, m); err != nil {
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

// ReadCRSFile reads a binary CRS matrix from path.
func ReadCRSFile(path string) (*CSR, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeCRSBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ReadCRSHeader reads only the shape of a CRS file, without its payload.
func ReadCRSHeader(path string) (rows, cols int, nnz int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	hdr := make([]byte, HeaderBytes)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, 0, fmt.Errorf("%s: short CRS header: %w", path, err)
	}
	if m := string(hdr[:8]); m != crsMagic && m != crsMagicV2 {
		return 0, 0, 0, fmt.Errorf("%s: bad CRS magic %q", path, hdr[:8])
	}
	rows = int(binary.LittleEndian.Uint64(hdr[8:]))
	cols = int(binary.LittleEndian.Uint64(hdr[16:]))
	nnz = int64(binary.LittleEndian.Uint64(hdr[24:]))
	return rows, cols, nnz, nil
}
