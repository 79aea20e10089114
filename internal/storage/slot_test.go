package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
)

// spillArray writes payload as an array, flushes it and evicts every block,
// so the array's only copy is on scratch.
func spillArray(t *testing.T, st *Store, name string, payload []byte, blockSize int64) {
	t.Helper()
	if err := st.WriteArray(name, payload, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(name); err != nil {
		t.Fatal(err)
	}
	info := ArrayInfo{Name: name, Size: int64(len(payload)), BlockSize: blockSize}
	for b := 0; b < info.NumBlocks(); b++ {
		if err := st.Evict(name, b); err != nil {
			t.Fatal(err)
		}
	}
}

// floatPayload is n float64s: the first half smooth (the codec keeps its
// frames), the second half full-mantissa noise (the adaptive encoder stores
// them raw).
func floatPayload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		v := float64(i%7) + 0.5
		if i >= n/2 {
			v = rng.NormFloat64()
		}
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// copyOut reads block b of array through ReadBlockFloat64s and returns its
// bytes.
func copyOut(st *Store, array string, b int, blockBytes int) ([]byte, error) {
	v := make([]float64, blockBytes/8)
	if err := st.ReadBlockFloat64s(array, b, v); err != nil {
		return nil, err
	}
	out := make([]byte, blockBytes)
	EncodeFloat64s(out, v)
	return out, nil
}

// leaseRead reads block b of array through a read lease.
func leaseRead(st *Store, array string, b int) ([]byte, error) {
	l, err := st.RequestBlock(array, b, PermRead)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	return append([]byte(nil), l.Data...), nil
}

// TestCopyOutReadsNeitherInstallNorEvict: a copy-out of a spilled block comes
// from its slot on scratch and leaves nothing resident, evicts nothing and
// counts its frame as a disk read; a copy-out of a resident block is a hit.
func TestCopyOutReadsNeitherInstallNorEvict(t *testing.T) {
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir(), Codec: compress.Default()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const blockSize = 4096
	payload := floatPayload(1, 4*blockSize/8)
	spillArray(t, st, "V", payload, blockSize)
	before := st.Stats()
	for b := 0; b < 4; b++ {
		got, err := copyOut(st, "V", b, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[b*blockSize:(b+1)*blockSize]) {
			t.Fatalf("block %d: copy-out from scratch returned other bytes", b)
		}
	}
	after := st.Stats()
	if after.MemUsed != 0 || after.BlockLoads != before.BlockLoads || after.Evictions != before.Evictions {
		t.Fatalf("copy-out from scratch: resident %d B, loads +%d, evictions +%d; want nothing resident, no load, no eviction",
			after.MemUsed, after.BlockLoads-before.BlockLoads, after.Evictions-before.Evictions)
	}
	if read := after.BytesReadDisk - before.BytesReadDisk; read == 0 || read != after.DecompressStoredBytes-before.DecompressStoredBytes {
		t.Fatalf("copy-out read %d disk bytes, %d frame bytes: a copy-out must count its frames as disk reads", read, after.DecompressStoredBytes-before.DecompressStoredBytes)
	}
	for b := 0; b < 4; b++ {
		if residentBlock(st, "V", b) {
			t.Fatalf("copy-out left block %d resident", b)
		}
	}
	// Resident: leased in, then copied out under the loop.
	if _, err := leaseRead(st, "V", 2); err != nil {
		t.Fatal(err)
	}
	hits := st.Stats().Hits
	got, err := copyOut(st, "V", 2, blockSize)
	if err != nil || !bytes.Equal(got, payload[2*blockSize:3*blockSize]) {
		t.Fatalf("copy-out of a resident block: err %v, bytes equal %v", err, bytes.Equal(got, payload[2*blockSize:3*blockSize]))
	}
	if st.Stats().Hits != hits+1 {
		t.Fatal("copy-out of a resident block did not count a hit")
	}
	// A wrong-sized destination is refused, an empty one too.
	for _, n := range []int{3, 0} {
		if err := st.ReadBlockFloat64s("V", 0, make([]float64, n)); err == nil {
			t.Fatalf("copy-out into a destination of %d values succeeded", n)
		}
	}
}

// TestDeleteThenCreateServesNewIncarnation: an array deleted and created again
// under its name serves the new bytes — through a lease and through a
// copy-out, from memory and from scratch — never the old incarnation's.
func TestDeleteThenCreateServesNewIncarnation(t *testing.T) {
	for _, codec := range []compress.Codec{nil, compress.Default()} {
		t.Run(fmt.Sprintf("codec=%v", codec != nil), func(t *testing.T) {
			st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir(), Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const blockSize = 1024
			for gen := int64(0); gen < 3; gen++ {
				payload := floatPayload(gen, 3*blockSize/8)
				spillArray(t, st, "N", payload, blockSize)
				for b := 0; b < 3; b++ {
					want := payload[b*blockSize : (b+1)*blockSize]
					if got, err := copyOut(st, "N", b, blockSize); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("incarnation %d block %d: copy-out from scratch err %v, new bytes %v", gen, b, err, bytes.Equal(got, want))
					}
					if got, err := leaseRead(st, "N", b); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("incarnation %d block %d: lease err %v, new bytes %v", gen, b, err, bytes.Equal(got, want))
					}
					if got, err := copyOut(st, "N", b, blockSize); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("incarnation %d block %d: resident copy-out err %v, new bytes %v", gen, b, err, bytes.Equal(got, want))
					}
				}
				if err := st.Delete("N"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// TestScratchFDsAreBounded: a store holds one descriptor per scratch array it
// uses, never more than maxOpenFiles at once, and none of a deleted array —
// after 1,000 spilled arrays come and go the process holds what it held.
func TestScratchFDsAreBounded(t *testing.T) {
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir(), Codec: compress.Default()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const blockSize = 512
	base := openFDs(t)
	payload := floatPayload(7, 2*blockSize/8)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("tmp%d", i)
		spillArray(t, st, name, payload, blockSize)
		if _, err := copyOut(st, name, 1, blockSize); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if n := openFDs(t); n > base {
		t.Fatalf("after 1,000 spilled arrays were deleted the process holds %d descriptors, %d before", n, base)
	}
	// Twice as many live spilled arrays as the table holds: every one reads
	// back, and the descriptors stay within the bound.
	for i := 0; i < 2*maxOpenFiles; i++ {
		spillArray(t, st, fmt.Sprintf("live%d", i), payload, blockSize)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*maxOpenFiles; i++ {
			got, err := copyOut(st, fmt.Sprintf("live%d", i), 0, blockSize)
			if err != nil || !bytes.Equal(got, payload[:blockSize]) {
				t.Fatalf("live%d: err %v", i, err)
			}
		}
	}
	if n := openFDs(t); n > base+maxOpenFiles {
		t.Fatalf("%d live spilled arrays hold %d descriptors beyond the %d before; the bound is %d", 2*maxOpenFiles, n-base, base, maxOpenFiles)
	}
}

// TestDeleteRacingCopyOutIsRefused: a Delete that arrives while a copy-out
// read of the array is in flight is refused, the read serves the bytes it was
// asked for, and the Delete succeeds once it has landed.
func TestDeleteRacingCopyOutIsRefused(t *testing.T) {
	dir := t.TempDir()
	const blockSize = 2048
	payload := floatPayload(3, blockSize/8)
	{
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Codec: compress.Default()})
		if err != nil {
			t.Fatal(err)
		}
		spillArray(t, st, "R", payload, blockSize)
		st.Close()
	}
	// Every disk operation of the reopened store stalls: the copy-out is in
	// flight for as long as the test needs.
	inj := faults.New(faults.Config{Seed: 1, IOStallRate: 1, StallDuration: 300 * time.Millisecond})
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		got, err := copyOut(st, "R", 0, blockSize)
		done <- result{got, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().ImplicitDiskReads == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the copy-out never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Delete("R"); err == nil {
		t.Fatal("Delete succeeded while a copy-out of the array was in flight")
	}
	res := <-done
	if res.err != nil || !bytes.Equal(res.data, payload) {
		t.Fatalf("copy-out raced by a Delete: err %v, bytes equal %v", res.err, bytes.Equal(res.data, payload))
	}
	if err := st.Delete("R"); err != nil {
		t.Fatalf("Delete after the copy-out landed: %v", err)
	}
	if _, err := copyOut(st, "R", 0, blockSize); err == nil {
		t.Fatal("copy-out of a deleted array succeeded")
	}
}

// TestSlottedArraySurvivesRestartWithoutCodec: a slotted array — frames the
// codec kept and frames it bailed out of — reads back byte-identically after
// a restart with no codec configured, through copy-outs and leases, and the
// reads leave its file as it was.
func TestSlottedArraySurvivesRestartWithoutCodec(t *testing.T) {
	dir := t.TempDir()
	const blockSize = 4096
	payload := floatPayload(5, 5*blockSize/8-3) // a short last block
	{
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Codec: compress.Default()})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteArray("P", payload, blockSize); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush("P"); err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if s.CompressBailouts == 0 || s.CompressBailouts == 5 {
			t.Fatalf("%d of 5 blocks bailed out to raw; the test wants both kinds of frame", s.CompressBailouts)
		}
		st.Close()
	}
	seg := filepath.Join(dir, "P"+segFileSuffix)
	onDisk, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 2; restart++ {
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadAll("P")
		if err != nil || !bytes.Equal(got, payload) {
			st.Close()
			t.Fatalf("restart %d: copy-out ReadAll err %v, identical %v", restart, err, bytes.Equal(got, payload))
		}
		info, err := st.Info("P")
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < info.NumBlocks(); b++ {
			bs := info.BlockSpan(b)
			if got, err := leaseRead(st, "P", b); err != nil || !bytes.Equal(got, payload[bs.Lo:bs.Hi]) {
				st.Close()
				t.Fatalf("restart %d block %d: lease err %v", restart, b, err)
			}
		}
		st.Close()
		if now, err := os.ReadFile(seg); err != nil || !bytes.Equal(now, onDisk) {
			t.Fatalf("restart %d: the slot file changed under reads (err %v)", restart, err)
		}
	}
}

// TestSlotIOConsultsFaults: the fault injector is asked before every slot
// write and every slot read, copy-out or install; transient faults are
// retried; a corrupt frame fails with ErrCorrupt after one attempt, naming
// the array, the block and the file.
func TestSlotIOConsultsFaults(t *testing.T) {
	dir := t.TempDir()
	const blockSize, blocks = 1024, 4
	payload := floatPayload(9, blocks*blockSize/8)
	// A stall of a nanosecond on every consultation counts them.
	count := faults.New(faults.Config{Seed: 1, IOStallRate: 1, StallDuration: time.Nanosecond})
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Codec: compress.Default(), Faults: count})
	if err != nil {
		t.Fatal(err)
	}
	spillArray(t, st, "F", payload, blockSize)
	if got := count.Counts().IOStalls; got != blocks {
		t.Fatalf("%d slot writes consulted the injector %d times", blocks, got)
	}
	for b := 0; b < blocks; b++ {
		if _, err := copyOut(st, "F", b, blockSize); err != nil {
			t.Fatal(err)
		}
		if _, err := leaseRead(st, "F", b); err != nil {
			t.Fatal(err)
		}
	}
	if got := count.Counts().IOStalls; got != 3*blocks {
		t.Fatalf("%d slot writes, %d copy-outs and %d installs consulted the injector %d times", blocks, blocks, blocks, got)
	}
	st.Close()

	// Transient faults, on reads of both kinds: retried, and they heal.
	for _, install := range []bool{false, true} {
		flaky := faults.New(faults.Config{Seed: 2, IOErrorRate: 1, MaxInjections: 2})
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Faults: flaky, IORetries: 3, IORetryBackoff: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		got, err := copyOut(st, "F", 1, blockSize)
		if install {
			got, err = leaseRead(st, "F", 1)
		}
		if err != nil || !bytes.Equal(got, payload[blockSize:2*blockSize]) {
			t.Fatalf("install %v: read under transient faults: err %v", install, err)
		}
		if r := st.Stats().IORetries; r != 2 {
			t.Fatalf("install %v: IORetries %d, want the 2 injected faults retried", install, r)
		}
		st.Close()
	}

	// A flipped byte in block 2's frame.
	seg := filepath.Join(dir, "F"+segFileSuffix)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := 2 * (blockSize + slotHeaderLen)
	frameLen := int(binary.LittleEndian.Uint32(raw[at:]))
	raw[at+slotHeaderLen+(frameLen-compress.FrameHeaderLen)/2] ^= 0x08
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, install := range []bool{false, true} {
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, IORetries: 3, IORetryBackoff: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		_, err = copyOut(st, "F", 2, blockSize)
		if install {
			_, err = leaseRead(st, "F", 2)
		}
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("install %v: read of a corrupt frame: %v, want ErrCorrupt", install, err)
		}
		for _, want := range []string{`"F"`, "block 2", seg, "1 attempt(s)"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("install %v: error %q does not name %q", install, err, want)
			}
		}
		if r := st.Stats().IORetries; r != 0 {
			t.Fatalf("install %v: a corrupt frame was retried %d times", install, r)
		}
		st.Close()
	}
}

// TestOlderBuildBlockDirIsNotRead: the per-block frame directory an older
// build spilled is not an array to this one, even beside its sidecar.
func TestOlderBuildBlockDirIsNotRead(t *testing.T) {
	dir := t.TempDir()
	frame, _ := compress.EncodeAdaptive(compress.Default(), smoothPayload(512))
	if err := os.MkdirAll(filepath.Join(dir, "old.blk"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.blk", "000000"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old"+metaFileSuffix), []byte(`{"size":512,"block_size":512,"codec":"fshuf"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if info, err := st.Info("old"); err == nil {
		t.Fatalf("the scan registered an older build's .blk directory as %+v", info)
	}
}
