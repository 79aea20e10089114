package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dooc/internal/compress"
)

// smoothPayload builds n bytes of float64 data with the byte structure the
// default codec targets (slowly varying values, quantized mantissas).
func smoothPayload(n int) []byte {
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := math.Round((1+1e-3*math.Sin(float64(i)/400))*4096) / 4096
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(v))
	}
	return out
}

// TestCodecSpillRoundTrip flushes an array through the compressed spill
// path, evicts it, and reads it back: the bytes must be identical, the
// scratch layout must be the slotted frame file, and the physical disk
// traffic must be smaller than the logical block bytes.
func TestCodecSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   dir,
		Seed:         1,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := smoothPayload(4096)
	const blockSize = 1024
	if err := st.WriteArray("S", payload, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("S"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "S"+segFileSuffix)); err != nil {
		t.Fatalf("compressed flush did not create the slot file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "S"+arrayFileSuffix)); err == nil {
		t.Fatal("compressed flush also wrote a raw .arr file")
	}
	for bi := 0; bi < 4; bi++ {
		if err := st.Evict("S", bi); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.ReadAll("S")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compressed spill round trip corrupted the payload")
	}

	s := st.Stats()
	if s.CompressRawBytes != int64(len(payload)) {
		t.Errorf("CompressRawBytes = %d, want %d", s.CompressRawBytes, len(payload))
	}
	if s.CompressStoredBytes == 0 || s.CompressStoredBytes >= s.CompressRawBytes {
		t.Errorf("stored %d bytes for %d raw: compression did not shrink the spill", s.CompressStoredBytes, s.CompressRawBytes)
	}
	if s.BytesWrittenDisk != s.CompressStoredBytes {
		t.Errorf("BytesWrittenDisk = %d, want physical frame bytes %d", s.BytesWrittenDisk, s.CompressStoredBytes)
	}
	if s.DecompressRawBytes != int64(len(payload)) {
		t.Errorf("DecompressRawBytes = %d, want %d", s.DecompressRawBytes, len(payload))
	}
	if s.BytesReadDisk != s.DecompressStoredBytes {
		t.Errorf("BytesReadDisk = %d, want physical frame bytes %d", s.BytesReadDisk, s.DecompressStoredBytes)
	}
}

// TestCodecScratchSurvivesRestart closes a store that spilled compressed
// and reopens the scratch directory with a codec-less store: the startup
// scan must discover the slot layout via the sidecar and decode it (frames
// are self-describing).
func TestCodecScratchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	payload := smoothPayload(2048)
	{
		st, err := NewLocal(Config{
			MemoryBudget: 1 << 20,
			ScratchDir:   dir,
			Seed:         1,
			Codec:        compress.Default(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteArray("R", payload, 512); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush("R"); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.ReadAll("R")
	if err != nil {
		t.Fatalf("reading compressed scratch without a codec: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restart round trip corrupted the payload")
	}
}

// TestCodecBailsOutOnRandomBlocks spills incompressible random data: the
// adaptive encoder must store it raw (bail-out counted), costing only the
// frame header, and the round trip must still be exact.
func TestCodecBailsOutOnRandomBlocks(t *testing.T) {
	dir := t.TempDir()
	st, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   dir,
		Seed:         1,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	payload := make([]byte, 2048)
	rand.New(rand.NewSource(99)).Read(payload)
	const blockSize = 512
	if err := st.WriteArray("X", payload, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("X"); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if want := int64(len(payload) / blockSize); s.CompressBailouts != want {
		t.Errorf("CompressBailouts = %d, want every random block (%d)", s.CompressBailouts, want)
	}
	if want := int64(len(payload) + 4*compress.FrameHeaderLen); s.CompressStoredBytes != want {
		t.Errorf("stored %d bytes, want raw+headers = %d", s.CompressStoredBytes, want)
	}
	for bi := 0; bi < 4; bi++ {
		if err := st.Evict("X", bi); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.ReadAll("X")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bail-out round trip corrupted the payload")
	}
}

// TestCodecDeleteRemovesBlockDir checks Delete cleans up the compressed
// layout — the slot file — alongside the sidecar.
func TestCodecDeleteRemovesBlockDir(t *testing.T) {
	dir := t.TempDir()
	st, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   dir,
		Seed:         1,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteArray("D", smoothPayload(1024), 256); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("D"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("D"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "D"+segFileSuffix)); !os.IsNotExist(err) {
		t.Fatal("Delete left the slot file behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "D"+metaFileSuffix)); !os.IsNotExist(err) {
		t.Fatal("Delete left the sidecar behind")
	}
}

// TestCodecKeepsRawLayoutForScannedArrays checks layout consistency: an
// array staged raw on disk keeps its `.arr` layout even when the store is
// configured with a codec, so readers and writers never disagree on paths.
func TestCodecKeepsRawLayoutForScannedArrays(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("raw-layout!"), 100)
	if err := os.WriteFile(filepath.Join(dir, "L"+arrayFileSuffix), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   dir,
		Seed:         1,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.ReadAll("L")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("scanned raw array corrupted")
	}
	if st.Stats().CompressStoredBytes != 0 {
		t.Error("raw scanned array went through the encoder")
	}
}
