package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
)

// stageArray writes a raw array file into dir so the store's startup scan
// discovers it.
func stageArray(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name+arrayFileSuffix), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestIOReadSurvivesTransientInjectedErrors(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("dooc"), 64)
	stageArray(t, dir, "A", payload)
	inj := faults.New(faults.Config{Seed: 5, IOErrorRate: 1, MaxInjections: 2})
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           1,
		IORetries:      3,
		IORetryBackoff: 100 * time.Microsecond,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.ReadAll("A")
	if err != nil {
		t.Fatalf("read under injected faults: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by retries")
	}
	if inj.Counts().IOErrors == 0 {
		t.Fatal("injector never fired")
	}
	if got := st.Stats().IORetries; got < 1 {
		t.Fatalf("Stats.IORetries = %d, want >= 1", got)
	}
}

func TestIOReadErrorIsAttributed(t *testing.T) {
	dir := t.TempDir()
	stageArray(t, dir, "B", bytes.Repeat([]byte{7}, 128))
	// Unlimited injections: every retry fails too, so the error is terminal.
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           1,
		IORetries:      1,
		IORetryBackoff: 100 * time.Microsecond,
		Faults:         faults.New(faults.Config{Seed: 5, IOErrorRate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.ReadAll("B")
	if err == nil {
		t.Fatal("read succeeded under permanent injected errors")
	}
	if !faults.IsInjected(err) {
		t.Fatalf("injected cause lost: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{`"B"`, "block 0", "B" + arrayFileSuffix, "attempt"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestIOWriteErrorIsAttributed(t *testing.T) {
	dir := t.TempDir()
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           1,
		IORetries:      1,
		IORetryBackoff: 100 * time.Microsecond,
		Faults:         faults.New(faults.Config{Seed: 8, IOErrorRate: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteArray("W", make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	err = st.Flush("W")
	if err == nil {
		t.Fatal("flush succeeded under permanent injected errors")
	}
	msg := err.Error()
	for _, want := range []string{`"W"`, "block 0", "W" + arrayFileSuffix} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestIOFlushSurvivesTransientInjectedErrors(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(faults.Config{Seed: 3, IOErrorRate: 1, MaxInjections: 1})
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           1,
		IORetries:      3,
		IORetryBackoff: 100 * time.Microsecond,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := bytes.Repeat([]byte("fl"), 32)
	if err := st.WriteArray("F", payload, 64); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("F"); err != nil {
		t.Fatalf("flush under injected faults: %v", err)
	}
	disk, err := os.ReadFile(filepath.Join(dir, "F"+arrayFileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, payload) {
		t.Fatal("flushed bytes wrong")
	}
	if got := st.Stats().IORetries; got < 1 {
		t.Fatalf("Stats.IORetries = %d, want >= 1", got)
	}
}

// stageCompressedArray spills payload through a codec-configured store so
// the scratch dir holds the slotted frame layout, then returns with the
// store closed.
func stageCompressedArray(t *testing.T, dir, name string, payload []byte, blockSize int64) {
	t.Helper()
	st, err := NewLocal(Config{
		MemoryBudget: 1 << 20,
		ScratchDir:   dir,
		Seed:         1,
		Codec:        compress.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteArray(name, payload, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(name); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestCorruptCompressedBlockIsAttributed bit-flips a compressed scratch
// block on disk: the framed read must surface an attributed, non-transient
// error through the retry path — never decode garbage into the cache, and
// never burn retries on corruption.
func TestCorruptCompressedBlockIsAttributed(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("compressible-block-data."), 64)
	stageCompressedArray(t, dir, "C", payload, int64(len(payload)))

	// Block 0's slot: a 4-byte length, then the frame.
	blockFile := filepath.Join(dir, "C"+segFileSuffix)
	record, err := os.ReadFile(blockFile)
	if err != nil {
		t.Fatal(err)
	}
	frame := record[4:]
	frame[len(frame)/2] ^= 0x20
	if err := os.WriteFile(blockFile, record, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           2,
		IORetries:      3,
		IORetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.ReadAll("C")
	if err == nil {
		t.Fatal("read of a bit-flipped compressed block succeeded")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("error does not wrap compress.ErrCorrupt: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{`"C"`, "block 0", "C" + segFileSuffix, "1 attempt(s)"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	// Corruption is non-transient: the retry policy must not have spun.
	if got := st.Stats().IORetries; got != 0 {
		t.Fatalf("Stats.IORetries = %d for a corrupt frame, want 0", got)
	}
}

// TestTruncatedCompressedBlockIsAttributed truncates a compressed scratch
// block: same contract as corruption — attributed error, no garbage, no
// retries.
func TestTruncatedCompressedBlockIsAttributed(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("truncate-me-please......"), 64)
	stageCompressedArray(t, dir, "T", payload, int64(len(payload)))

	blockFile := filepath.Join(dir, "T"+segFileSuffix)
	record, err := os.ReadFile(blockFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blockFile, record[:len(record)/3], 0o644); err != nil {
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
	_, err = st.ReadAll("T")
	if err == nil {
		t.Fatal("read of a truncated compressed block succeeded")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("error does not wrap compress.ErrCorrupt: %v", err)
	}
	for _, want := range []string{`"T"`, "block 0", "1 attempt(s)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	if got := st.Stats().IORetries; got != 0 {
		t.Fatalf("Stats.IORetries = %d for a truncated frame, want 0", got)
	}
}

// TestCompressedReadSurvivesTransientInjectedErrors checks the PR 1 retry
// path still heals flaky devices when the payload is framed.
func TestCompressedReadSurvivesTransientInjectedErrors(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("retry-framed-data-12345!"), 64)
	stageCompressedArray(t, dir, "F", payload, int64(len(payload)))

	inj := faults.New(faults.Config{Seed: 5, IOErrorRate: 1, MaxInjections: 2})
	st, err := NewLocal(Config{
		MemoryBudget:   1 << 20,
		ScratchDir:     dir,
		Seed:           2,
		IORetries:      3,
		IORetryBackoff: 100 * time.Microsecond,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.ReadAll("F")
	if err != nil {
		t.Fatalf("framed read under injected faults: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("framed payload corrupted by retries")
	}
	if got := st.Stats().IORetries; got < 1 {
		t.Fatalf("Stats.IORetries = %d, want >= 1", got)
	}
}

func TestAbandonWriteLeaseAllowsRewrite(t *testing.T) {
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Create("ab", 16, 16); err != nil {
		t.Fatal(err)
	}
	l, err := st.Request("ab", 0, 8, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(l.Data, "GARBAGE!")
	l.Abandon()
	if !l.Released() {
		t.Fatal("Released() false after Abandon")
	}
	l.Abandon() // idempotent

	// A reader must still block: the abandoned interval was never published.
	read := make(chan []byte, 1)
	go func() {
		rl, err := st.Request("ab", 0, 8, PermRead)
		if err != nil {
			read <- nil
			return
		}
		data := append([]byte(nil), rl.Data...)
		rl.Release()
		read <- data
	}()
	select {
	case <-read:
		t.Fatal("abandoned write became readable")
	case <-time.After(30 * time.Millisecond):
	}

	// The same interval is writable again — no immutability violation.
	l2, err := st.Request("ab", 0, 8, PermWrite)
	if err != nil {
		t.Fatalf("rewrite after abandon: %v", err)
	}
	copy(l2.Data, "GOODDATA")
	l2.Release()
	select {
	case data := <-read:
		if string(data) != "GOODDATA" {
			t.Fatalf("read %q after abandon+rewrite (garbage leak?)", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never woke after rewrite")
	}
}

func TestAbandonAfterReleaseIsNoop(t *testing.T) {
	st, err := NewLocal(Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Create("nr", 8, 8); err != nil {
		t.Fatal(err)
	}
	l, err := st.Request("nr", 0, 8, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(l.Data, "12345678")
	l.Release()
	l.Abandon() // must not unpublish or panic
	got, err := st.ReadAll("nr")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "12345678" {
		t.Fatalf("read %q", got)
	}
}
