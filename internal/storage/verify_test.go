package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dooc/internal/compress"
)

// countingVerify is a Config.VerifyBlock that vouches for every block whose
// first byte is not 'x', with the block's CRC32, and counts its calls; a
// block starting with 'x' it refuses with a plain error.
func countingVerify(calls *atomic.Int64) func([]byte) (uint32, bool, error) {
	return func(block []byte) (uint32, bool, error) {
		calls.Add(1)
		if block[0] == 'x' {
			return 0, false, errors.New("block starts with x")
		}
		return crc32.ChecksumIEEE(block), true, nil
	}
}

// stageFlat writes data as a flat array of blockSize blocks with its
// sidecar, through a store that is closed again, and returns the array's
// path on scratch.
func stageFlat(t *testing.T, dir, name string, data []byte, blockSize int64) string {
	t.Helper()
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteArray(name, data, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(name); err != nil {
		t.Fatal(err)
	}
	st.Close()
	return filepath.Join(dir, name+arrayFileSuffix)
}

// TestVerifiedResidencyReportsItsChecksum: a block the I/O filter installed
// carries what VerifyBlock vouched for on every read lease of that
// residency; evicted and read back, it is verified again under a new Gen. A
// block that never came from scratch is not verified.
func TestVerifiedResidencyReportsItsChecksum(t *testing.T) {
	for _, codec := range []compress.Codec{nil, compress.Default()} {
		name := "flat"
		if codec != nil {
			name = "slotted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			data := bytes.Repeat([]byte("verified-block.."), 64) // 1 KiB: two 512-byte blocks
			st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteArray("M", data, 512); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush("M"); err != nil {
				t.Fatal(err)
			}
			st.Close()

			var calls atomic.Int64
			st, err = NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1, VerifyBlock: countingVerify(&calls)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			lease := func(array string) *Lease {
				t.Helper()
				l, err := st.RequestBlock(array, 1, PermRead)
				if err != nil {
					t.Fatal(err)
				}
				l.Release()
				return l
			}
			want := crc32.ChecksumIEEE(data[512:])
			first := lease("M")
			if !first.Verified || first.CRC != want {
				t.Fatalf("lease of a block read from scratch: Verified %v CRC %08x, want true %08x", first.Verified, first.CRC, want)
			}
			again := lease("M")
			if again.Gen != first.Gen || !again.Verified || again.CRC != want || calls.Load() != 1 {
				t.Fatalf("second lease of one residency: Gen %d→%d, Verified %v, CRC %08x, %d checks", first.Gen, again.Gen, again.Verified, again.CRC, calls.Load())
			}
			if err := st.Evict("M", 1); err != nil {
				t.Fatal(err)
			}
			reread := lease("M")
			if reread.Gen == first.Gen || !reread.Verified || reread.CRC != want || calls.Load() != 2 {
				t.Fatalf("after eviction: Gen %d→%d, Verified %v, CRC %08x, %d checks", first.Gen, reread.Gen, reread.Verified, reread.CRC, calls.Load())
			}

			if err := st.WriteArray("W", data, 512); err != nil {
				t.Fatal(err)
			}
			if l := lease("W"); l.Verified || l.CRC != 0 {
				t.Fatalf("a written block reports Verified %v CRC %08x", l.Verified, l.CRC)
			}
			if calls.Load() != 2 {
				t.Fatalf("VerifyBlock ran %d times, want 2: a written block is not read", calls.Load())
			}
			// A copy-out read installs nothing and is not checked.
			if got, err := st.ReadAll("M"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("copy-out read: %v", err)
			}
			if calls.Load() != 2 {
				t.Fatalf("VerifyBlock ran %d times, want 2: a copy-out read installs nothing", calls.Load())
			}
		})
	}
}

// TestVerifyFailureIsAttributedCorrupt: a block VerifyBlock refuses fails
// its read like a corrupt frame — attributed, wrapping compress.ErrCorrupt
// though VerifyBlock's error did not, and not retried.
func TestVerifyFailureIsAttributedCorrupt(t *testing.T) {
	dir := t.TempDir()
	data := append(bytes.Repeat([]byte("a"), 256), bytes.Repeat([]byte("x"), 256)...)
	stageFlat(t, dir, "V", data, 256)
	var calls atomic.Int64
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           2,
		IORetries:      2,
		IORetryBackoff: 100 * time.Microsecond,
		VerifyBlock:    countingVerify(&calls),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.RequestBlock("V", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	_, err = st.RequestBlock("V", 1, PermRead)
	if err == nil {
		t.Fatal("a block VerifyBlock refused was installed")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("error does not wrap compress.ErrCorrupt: %v", err)
	}
	for _, want := range []string{`"V"`, "block 1", "1 attempt(s)", "starts with x"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if got := st.Stats().IORetries; got != 0 {
		t.Fatalf("Stats.IORetries = %d for a refused block, want 0", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("VerifyBlock ran %d times, want once a block", calls.Load())
	}
}

// TestTruncatedFlatBlockIsAttributed: a flat scratch file whose sidecar says
// it is longer than it is was cut short on disk — corrupt, as a cut slot is
// (TestTruncatedCompressedBlockIsAttributed) — whether the block is read to
// be installed or copied out.
func TestTruncatedFlatBlockIsAttributed(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("truncate-the-flat-file.."), 64)
	path := stageFlat(t, dir, "T", payload, int64(len(payload)))
	if err := os.Truncate(path, int64(len(payload)/3)); err != nil {
		t.Fatal(err)
	}
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           2,
		IORetries:      2,
		IORetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, installErr := st.RequestBlock("T", 0, PermRead)
	_, copyErr := st.ReadAll("T")
	for _, err := range []error{installErr, copyErr} {
		if err == nil {
			t.Fatal("read of a truncated flat block succeeded")
		}
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("error does not wrap compress.ErrCorrupt: %v", err)
		}
		for _, want := range []string{`"T"`, "block 0", "1 attempt(s)", "cut short"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
	}
	if got := st.Stats().IORetries; got != 0 {
		t.Fatalf("Stats.IORetries = %d for a truncated flat file, want 0", got)
	}
}

// TestVerifyAllocatesNothingPerLoad: checking a block in the I/O filter
// costs no allocation. A block evicted and leased again — one read from
// scratch each time — takes as many allocations with VerifyBlock set as
// without it.
func TestVerifyAllocatesNothingPerLoad(t *testing.T) {
	perLoad := func(verify func([]byte) (uint32, bool, error)) float64 {
		dir := t.TempDir()
		stageFlat(t, dir, "L", bytes.Repeat([]byte("load"), 4096), 16384)
		st, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1, VerifyBlock: verify})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var failed error
		load := func() {
			l, err := st.RequestBlock("L", 0, PermRead)
			if err != nil {
				failed = err
				return
			}
			if verify != nil && !l.Verified {
				failed = fmt.Errorf("a block read from scratch is not verified")
			}
			l.Release()
			if err := st.Evict("L", 0); err != nil {
				failed = err
			}
		}
		load() // open the file, warm the pools
		n := testing.AllocsPerRun(200, load)
		if failed != nil {
			t.Fatal(failed)
		}
		return n
	}
	var calls atomic.Int64
	without, with := perLoad(nil), perLoad(countingVerify(&calls))
	t.Logf("allocations a load: %.2f with VerifyBlock, %.2f without", with, without)
	if with > without {
		t.Fatalf("a load takes %.2f allocations with VerifyBlock, %.2f without", with, without)
	}
}
