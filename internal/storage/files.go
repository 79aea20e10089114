package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dooc/internal/compress"
)

// Scratch layout. A raw-persisted array is one flat `<name>.arr` file, block i
// at byte i × BlockSize. A codec-framed array is one `<name>.seg` file of
// fixed-size slots: block i's record — a 4-byte little-endian frame length,
// then the DOZ1 frame — starts at i × (BlockSize + slotHeaderLen). The
// adaptive encoder never writes a frame longer than its block plus the frame
// header, so a record always fits its slot; a retried write lands on the same
// bytes, and no index is needed to find a block after a restart. The sidecar
// `<name>.meta` records the array's shape and, for a slotted array, its codec.
const (
	metaFileSuffix  = ".meta"
	arrayFileSuffix = ".arr"
	segFileSuffix   = ".seg"
	// slotHeaderLen is what a slot holds beyond its block's bytes: the record's
	// length prefix and the frame header.
	slotHeaderLen = 4 + compress.FrameHeaderLen
)

// maxOpenFiles bounds the scratch files one store keeps open at once. Past
// it, opening another closes the one idle longest; a store with fewer
// scratch arrays than this opens each of them once.
const maxOpenFiles = 64

// arrayFile is one array's scratch file on this node: its path, built once,
// and the descriptor the I/O filters share from the array's first scratch
// I/O until its Delete or the store's Close (or until the file table needs
// the slot for another array; the next I/O opens it again).
type arrayFile struct {
	path string
	// slotted marks the `.seg` layout; otherwise the file is a flat `.arr`.
	slotted bool
	// writable opens the file read-write, creating it: this store writes
	// it. A file the startup scan found is only ever read.
	writable bool

	// Guarded by fileTable.mu.
	f       *os.File
	users   int   // I/O jobs between acquire and release
	lastUse int64 // fileTable.tick at the last acquire
	closed  bool  // the array was deleted
}

// slotOffset is where block bi's record starts in a slotted file.
func slotOffset(info ArrayInfo, bi int) int64 {
	return int64(bi) * (info.BlockSize + slotHeaderLen)
}

// fileTable holds the scratch files a store has open. The actor loop creates
// and closes entries; the I/O filters acquire and release descriptors.
type fileTable struct {
	mu   sync.Mutex
	open []*arrayFile // every entry with f != nil
	tick int64
}

// newArrayFile returns the scratch file of array name under dir, not yet
// opened.
func newArrayFile(dir, name string, slotted, writable bool) *arrayFile {
	return &arrayFile{path: scratchPath(dir, name, slotted), slotted: slotted, writable: writable}
}

// scratchPath is the payload file of array name in one layout.
func scratchPath(dir, name string, slotted bool) string {
	if slotted {
		return filepath.Join(dir, name+segFileSuffix)
	}
	return filepath.Join(dir, name+arrayFileSuffix)
}

// acquire returns af's descriptor, opening it on first use; release it after
// the I/O. A deleted array's file fails as a missing file does.
func (t *fileTable) acquire(af *arrayFile) (*os.File, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if af.closed {
		return nil, fmt.Errorf("%s: %w", af.path, os.ErrNotExist)
	}
	if af.f == nil {
		flag := os.O_RDONLY
		if af.writable {
			flag = os.O_RDWR | os.O_CREATE
		}
		f, err := os.OpenFile(af.path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		t.makeRoom()
		af.f = f
		t.open = append(t.open, af)
	}
	af.users++
	t.tick++
	af.lastUse = t.tick
	return af.f, nil
}

// release ends one acquire.
func (t *fileTable) release(af *arrayFile) {
	t.mu.Lock()
	af.users--
	t.mu.Unlock()
}

// makeRoom closes the longest-idle descriptor no I/O holds while the table is
// full. Called with mu held.
func (t *fileTable) makeRoom() {
	for len(t.open) >= maxOpenFiles {
		victim := -1
		for i, af := range t.open {
			if af.users == 0 && (victim < 0 || af.lastUse < t.open[victim].lastUse) {
				victim = i
			}
		}
		if victim < 0 {
			return // every open file is mid-I/O: more I/O filters than slots
		}
		t.drop(victim)
	}
}

// drop closes open entry i. Called with mu held. Its Close error is
// dropped: scratch is never synced, every write's own error was checked when
// it was made, and a slot that did not reach the disk reads back as corrupt.
func (t *fileTable) drop(i int) {
	af := t.open[i]
	af.f.Close()
	af.f = nil
	last := len(t.open) - 1
	t.open[i] = t.open[last]
	t.open[last] = nil
	t.open = t.open[:last]
}

// close closes af for good: its array is being deleted, and no I/O of it is
// in flight (Delete refuses an array with I/O in flight).
func (t *fileTable) close(af *arrayFile) {
	t.mu.Lock()
	defer t.mu.Unlock()
	af.closed = true
	for i, o := range t.open {
		if o == af {
			t.drop(i)
			return
		}
	}
}

// closeAll closes every descriptor, once the I/O filters have stopped.
func (t *fileTable) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.open) > 0 {
		t.drop(len(t.open) - 1)
	}
}
