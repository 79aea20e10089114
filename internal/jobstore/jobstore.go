// Package jobstore is a dependency-free, crash-safe embedded store for the
// job manager's control plane. The design mirrors the paper's premise one
// layer up: just as iterative solver state is cheap to externalize to
// scratch disk, the control plane's state — which jobs exist, where each is
// in its lifecycle, where its result lives — is cheap to journal, and doing
// so turns a doocserve restart from "every job silently dropped" into
// "queued jobs re-queue, interrupted jobs resume from their checkpoints,
// finished results stay addressable".
//
// The layout under one directory:
//
//	wal.log       append-only journal of length-prefixed, CRC32-C-framed
//	              gob entries, fsynced per append (every append is a job
//	              state transition, acknowledged only after the sync)
//	snapshot.gob  periodic compaction of the journal: the latest record
//	              per job, in submission order, written atomically
//	              (tmp + rename) so it is never observed torn
//	results/      one framed file per done job's result payload, named by
//	              the job's ID (job<id>.res)
//
// Replay applies the snapshot, then the WAL on top. Entries carry the full
// job record, so re-applying a WAL that was already compacted (a crash
// between the snapshot rename and the WAL truncate) is idempotent. A torn
// final WAL record — the expected signature of a crash mid-append — is
// detected by its frame CRC, dropped, and the file repaired to the last
// good boundary.
package jobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dooc/internal/obs"
)

// Record is the durable snapshot of one job. Entries journal the whole
// record, so the newest entry for an ID is the job's state; there is no
// delta encoding to mis-apply.
type Record struct {
	ID int64
	// Key is the client-supplied idempotency key ("" when the submission
	// was not keyed). Replay rebuilds the dedup index from it, so a
	// duplicate submit across a restart still returns the original job.
	Key      string
	Tenant   string
	Priority int

	MemoryBytes  int64
	ScratchBytes int64

	// Payload is the service-level job specification, opaque to the store;
	// recovery hands it back to the service to rebuild the job's work
	// function.
	Payload []byte

	State       string
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	Err         string

	// ResultSHA is the SHA-256 hex of a done job's result payload, whose
	// file the job's ID names (Store.LoadResult). Records written when the
	// file's name was journaled beside it still replay: gob skips the field.
	ResultSHA string

	// Resumed counts how many times recovery re-admitted this job after a
	// crash or an interrupted drain.
	Resumed int

	// TraceID/RootSpan are the job's causal identity (hex; empty for
	// records written before tracing existed — gob omits zero values, so
	// old journals replay unchanged).
	TraceID  string
	RootSpan string

	// Events is the job's flight-recorder snapshot at the time the record
	// was journaled. The recorder ring is bounded, so the journal entry
	// stays within the WAL frame cap; after a crash these are the only
	// surviving account of what the job did.
	Events []obs.FlightEvent
}

// Terminal reports whether the record's state is final.
func (r Record) Terminal() bool {
	return r.State == "done" || r.State == "failed" || r.State == "cancelled"
}

// ProxyRecord is the durable state of one proxy handle — a pass-by-reference
// job result registered by the proxy registry (internal/proxy). Like job
// records, entries journal the whole record: the newest entry for a
// (Name, Epoch) pair is the handle's state, and a Released entry is a
// tombstone that removes it. Tombstones live only in the WAL — a released
// handle is simply absent from the next snapshot — so the proxy namespace
// never accretes dead entries across compactions.
type ProxyRecord struct {
	// Name/Epoch identify the handle; Epoch disambiguates re-registrations
	// under a reused name (a re-run job) so a stale handle can never resolve
	// to fresh bytes.
	Name  string
	Epoch uint64
	// SHA256 (hex) and Length pin the payload's identity; resolvers verify
	// bytes against them end to end.
	SHA256 string
	Length int64
	// Scope is the origin node's cluster scope (doocserve's node ID), so a
	// foreign handle routes to its owner for resolution.
	Scope  string
	Tenant string
	// JobID is the owning job — the result the handle names, and so the
	// result file a recovered handle resolves from. Records written when a
	// handle also retained the job's storage arrays still replay: gob skips
	// the names.
	JobID int64
	// Refs counts anonymous (wire addref) references; Owners are named
	// references (the origin lease, downstream consumer jobs). The handle is
	// live while Refs+len(Owners) > 0.
	Refs   int
	Owners []string
	// Deadline is the origin lease's TTL expiry (zero = no expiry).
	Deadline time.Time
	// Released marks a tombstone: the last reference dropped and the handle
	// was reclaimed.
	Released bool
}

// ---- frame codec ----

// Every journal and snapshot entry travels as one frame:
//
//	[4B LE payload length][4B LE CRC32-C of payload][payload]
//
// The CRC makes a torn or bit-flipped entry self-evident; the length prefix
// bounds the read so a forged header cannot balloon an allocation past the
// file's own size.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxWALFrameLen bounds one journal/snapshot entry; a record is a few
	// hundred bytes plus the service payload, so anything near this is
	// corruption.
	maxWALFrameLen = 16 << 20
	// maxResultLen bounds a result file's payload — the uint32 length
	// prefix's ceiling. Result frames are one-per-file, so the read side is
	// additionally bounded by the file's own size.
	maxResultLen = 1<<32 - 1
)

// errTorn reports a frame that ends early or fails its CRC — the shape of a
// crash mid-append.
var errTorn = errors.New("jobstore: torn journal record")

// writeFrame frames payload onto w. The size is validated against max (and
// the uint32 length prefix) before anything is written, so an oversized
// payload is rejected cleanly rather than persisted as a frame the reader
// will treat as corrupt.
func writeFrame(w io.Writer, payload []byte, max int64) error {
	if int64(len(payload)) > max || int64(len(payload)) > maxResultLen {
		return fmt.Errorf("jobstore: frame payload %d bytes exceeds limit %d", len(payload), max)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame returns the next payload, io.EOF at a clean end of stream, or
// errTorn for a partial or corrupt trailing frame. remaining bounds the
// declared length against the bytes actually left in the file; max is the
// writer-side cap for this frame kind.
func readFrame(r io.Reader, remaining, max int64) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:]))
	if n == 0 || n > max || n > remaining-frameHeaderLen {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, errTorn
	}
	return payload, nil
}

// ---- journal entries ----

type entryKind uint8

const (
	entryRecord entryKind = iota + 1
	entryMeta
	entryDrain
	entryProxy
)

// entry is the unit both the WAL and the snapshot are made of. Meta
// entries persist the ID high-water mark (so pruning old history never
// recycles an ID); drain entries mark a graceful shutdown's start, which
// recovery reports so an operator can tell a drain-interrupted boot from a
// crash; proxy entries journal proxy-handle state (gob omits the zero
// value, so journals written before the proxy plane replay unchanged).
type entry struct {
	Kind  entryKind
	Rec   Record
	MaxID int64
	At    time.Time
	Proxy ProxyRecord
}

func encodeEntry(e *entry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeEntry(payload []byte) (*entry, error) {
	var e entry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// ---- store ----

// Options tunes a Store.
type Options struct {
	// CompactEvery is the number of appends between snapshot compactions
	// (default 512). Compaction also applies the history retention policy.
	CompactEvery int
	// RetainHistory bounds the terminal records kept across compactions
	// (DefaultRetainHistory when 0). The oldest terminal jobs beyond it are
	// pruned and their result files removed; live (non-terminal) records,
	// and the records of jobs a live proxy handle names, are never pruned.
	RetainHistory int
	// Obs receives the store's metric series (nil disables).
	Obs *obs.Registry
}

// DefaultRetainHistory is the number of terminal records a store keeps when
// Options.RetainHistory is 0 — and the bound the job manager applies to its
// in-memory history when it runs without a store.
const DefaultRetainHistory = 1024

func (o *Options) fill() {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 512
	}
	if o.RetainHistory <= 0 {
		o.RetainHistory = DefaultRetainHistory
	}
}

// ReplayStats summarizes what Open reconstructed.
type ReplayStats struct {
	// Entries is the total journal+snapshot entries applied.
	Entries int
	// Jobs is the number of distinct job records recovered.
	Jobs int
	// Torn reports that the WAL ended in a partial or corrupt record
	// (dropped and repaired) — the expected signature of a crash.
	Torn bool
	// LastDrain is the newest graceful-drain marker, zero if none.
	LastDrain time.Time
	// Duration is the wall time of the replay.
	Duration time.Duration
}

// ErrClosed reports an append to a closed (or crash-simulated) store.
var ErrClosed = errors.New("jobstore: store closed")

// ErrPoisoned reports a store that refused further appends after a journal
// write or fsync failure it could not repair: accepting more entries after
// garbage bytes (or an fsync of unknown effect) would ack transitions that
// replay silently drops at the first torn frame.
var ErrPoisoned = errors.New("jobstore: store poisoned by unrepairable journal write failure")

// Store is the crash-safe job journal. All methods are safe for concurrent
// use; Append returns only after the entry is fsynced, so an acknowledged
// transition survives a kill -9.
type Store struct {
	dir  string
	opts Options
	m    storeMetrics

	mu       sync.Mutex
	wal      *os.File
	walSize  int64 // bytes of intact, fsynced frames in the WAL
	byID     map[int64]*Record
	order    []int64 // submission order of byID keys
	byProxy  map[string]*ProxyRecord
	prxOrder []string // registration order of byProxy keys
	maxID    int64
	appends  int // since the last compaction
	stats    ReplayStats
	closed   bool
	poisoned bool // a journal write failed and could not be rolled back
}

const (
	walName      = "wal.log"
	snapshotName = "snapshot.gob"
	resultsDir   = "results"
)

// Open creates or replays the store under dir.
func Open(dir string, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(filepath.Join(dir, resultsDir), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		m:       newStoreMetrics(opts.Obs),
		byID:    make(map[int64]*Record),
		byProxy: make(map[string]*ProxyRecord),
	}
	start := time.Now()
	if err := s.replaySnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.stats.Jobs = len(s.byID)
	s.stats.Duration = time.Since(start)
	s.m.replaySeconds.Observe(s.stats.Duration.Seconds())
	return s, nil
}

func (s *Store) replaySnapshot() error {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	remaining := fi.Size()
	for remaining > 0 {
		payload, err := readFrame(f, remaining, maxWALFrameLen)
		if err == io.EOF {
			break
		}
		if err != nil {
			// The snapshot is written atomically, so a bad frame is real
			// corruption, not a crash artifact — refuse to guess.
			return fmt.Errorf("jobstore: corrupt snapshot %s: %w", snapshotName, err)
		}
		remaining -= frameHeaderLen + int64(len(payload))
		e, err := decodeEntry(payload)
		if err != nil {
			return fmt.Errorf("jobstore: corrupt snapshot entry: %w", err)
		}
		s.apply(e)
	}
	return nil
}

// replayWAL applies journal entries up to the first torn record, then
// truncates the file back to the last good boundary so subsequent appends
// extend a clean journal.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := fi.Size()
	var good int64
	for good < size {
		payload, err := readFrame(f, size-good, maxWALFrameLen)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.stats.Torn = true
			break
		}
		e, derr := decodeEntry(payload)
		if derr != nil {
			// Framed but undecodable: same treatment as torn — drop the
			// tail rather than the store.
			s.stats.Torn = true
			break
		}
		good += frameHeaderLen + int64(len(payload))
		s.apply(e)
	}
	f.Close()
	if s.stats.Torn {
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("jobstore: repairing torn WAL: %w", err)
		}
	}
	s.walSize = good
	return nil
}

func (s *Store) apply(e *entry) {
	s.stats.Entries++
	switch e.Kind {
	case entryMeta:
		if e.MaxID > s.maxID {
			s.maxID = e.MaxID
		}
	case entryDrain:
		if e.At.After(s.stats.LastDrain) {
			s.stats.LastDrain = e.At
		}
	case entryRecord:
		rec := e.Rec
		if existing, ok := s.byID[rec.ID]; ok {
			*existing = rec
		} else {
			cp := rec
			s.byID[rec.ID] = &cp
			s.order = append(s.order, rec.ID)
		}
		if rec.ID > s.maxID {
			s.maxID = rec.ID
		}
	case entryProxy:
		rec := e.Proxy
		key := proxyKey(rec.Name, rec.Epoch)
		if rec.Released {
			// Tombstone: the handle was reclaimed. Drop it; the next snapshot
			// simply omits it.
			if _, ok := s.byProxy[key]; ok {
				delete(s.byProxy, key)
				for i, k := range s.prxOrder {
					if k == key {
						s.prxOrder = append(s.prxOrder[:i], s.prxOrder[i+1:]...)
						break
					}
				}
			}
			return
		}
		if existing, ok := s.byProxy[key]; ok {
			*existing = rec
		} else {
			cp := rec
			s.byProxy[key] = &cp
			s.prxOrder = append(s.prxOrder, key)
		}
	}
}

func proxyKey(name string, epoch uint64) string {
	return fmt.Sprintf("%s@%d", name, epoch)
}

// Append journals one job record: framed, written, fsynced — only then is
// the in-memory state updated and the call acknowledged. Every CompactEvery
// appends the journal is folded into the snapshot.
func (s *Store) Append(rec Record) error {
	return s.append(&entry{Kind: entryRecord, Rec: rec})
}

// MarkDrain journals the start of a graceful drain, so a restart can tell
// an interrupted drain from a crash (both resume the interrupted jobs).
func (s *Store) MarkDrain() error {
	return s.append(&entry{Kind: entryDrain, At: time.Now()})
}

// AppendProxy journals one proxy-handle record (same fsync-before-ack
// contract as Append). A record with Released set is a tombstone that
// removes the handle from replayed state.
func (s *Store) AppendProxy(rec ProxyRecord) error {
	return s.append(&entry{Kind: entryProxy, Proxy: rec})
}

// ProxyRecords returns the live (non-released) proxy handles in
// registration order — what the proxy registry rebuilds its refcounts from
// after a restart.
func (s *Store) ProxyRecords() []ProxyRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProxyRecord, 0, len(s.prxOrder))
	for _, key := range s.prxOrder {
		out = append(out, *s.byProxy[key])
	}
	return out
}

func (s *Store) append(e *entry) error {
	payload, err := encodeEntry(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned {
		return ErrPoisoned
	}
	if err := writeFrame(s.wal, payload, maxWALFrameLen); err != nil {
		// The frame may be partially on disk (e.g. ENOSPC after the header).
		// Roll the file back to the last intact boundary; if that fails the
		// garbage would tear every later append off replay, so poison the
		// store rather than keep acknowledging doomed entries.
		if terr := s.wal.Truncate(s.walSize); terr != nil {
			s.poisoned = true
			return fmt.Errorf("jobstore: appending journal entry: %w (rollback failed: %v; store poisoned)", err, terr)
		}
		return fmt.Errorf("jobstore: appending journal entry: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty pages;
		// what is durable is unknowable, so no further append may be
		// acknowledged on top of it.
		s.poisoned = true
		return fmt.Errorf("jobstore: syncing journal: %w; store poisoned", err)
	}
	s.walSize += frameHeaderLen + int64(len(payload))
	s.apply(e)
	s.m.appends.Inc()
	s.appends++
	if s.appends >= s.opts.CompactEvery {
		if err := s.compactLocked(); err != nil {
			// The journal itself is intact; a failed compaction only means
			// replay stays longer. Surface it without failing the append.
			s.m.compactErrors.Inc()
		}
	}
	return nil
}

// Records returns the replayed/current records in submission order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.byID[id])
	}
	return out
}

// MaxID is the ID high-water mark ever journaled — the floor for new IDs,
// immune to history pruning.
func (s *Store) MaxID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxID
}

// RetainHistory is the number of terminal records the store keeps across
// compactions — the bound the job manager also applies in memory, so a live
// process and a restarted one know the same jobs.
func (s *Store) RetainHistory() int { return s.opts.RetainHistory }

// ReplayInfo reports what Open reconstructed.
func (s *Store) ReplayInfo() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Compact folds the journal into the snapshot immediately (it also runs
// automatically every CompactEvery appends).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked writes the retained records to a fresh snapshot (atomic via
// tmp + rename + directory sync), then truncates the WAL. A crash between
// the rename and the truncate replays WAL entries that are already in the
// snapshot — harmless, because entries carry full records.
func (s *Store) compactLocked() error {
	s.pruneLocked()
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	write := func(e *entry) error {
		payload, err := encodeEntry(e)
		if err != nil {
			return err
		}
		return writeFrame(f, payload, maxWALFrameLen)
	}
	err = write(&entry{Kind: entryMeta, MaxID: s.maxID})
	for _, id := range s.order {
		if err != nil {
			break
		}
		err = write(&entry{Kind: entryRecord, Rec: *s.byID[id]})
	}
	// Live proxy handles compact alongside the job records; released
	// handles were dropped at their tombstone and are simply absent.
	for _, key := range s.prxOrder {
		if err != nil {
			break
		}
		err = write(&entry{Kind: entryProxy, Proxy: *s.byProxy[key]})
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	s.walSize = 0
	if err := s.wal.Sync(); err != nil {
		return err
	}
	// The snapshot now holds exactly the acknowledged state and the WAL is
	// verifiably empty, so a store poisoned by an unrepairable append is
	// whole again.
	s.poisoned = false
	s.appends = 0
	s.m.compactions.Inc()
	return nil
}

// pruneLocked applies the history retention policy: the oldest terminal
// records beyond RetainHistory are dropped and their result files removed.
// A record due for pruning whose job a live proxy handle names stays, with
// its file, until the first compaction after the handle's release: a
// recovered handle resolves from that file.
func (s *Store) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.byID[id].Terminal() {
			terminal++
		}
	}
	if terminal <= s.opts.RetainHistory {
		return
	}
	named := make(map[int64]bool, len(s.byProxy))
	for _, p := range s.byProxy {
		named[p.JobID] = true
	}
	excess := terminal - s.opts.RetainHistory
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.byID[id].Terminal() {
			excess--
			if !named[id] {
				os.Remove(s.resultPath(id))
				delete(s.byID, id)
				s.m.pruned.Inc()
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// resultPath is the one name of job id's result file.
func (s *Store) resultPath(id int64) string {
	return filepath.Join(s.dir, resultsDir, fmt.Sprintf("job%d.res", id))
}

// SaveResult persists a done job's result payload as job id's framed result
// file, atomically, and returns its SHA-256 hex. Callers journal the SHA
// with the done transition, so a journaled "done" always has a durable
// result. Results are one frame per file and may exceed the journal's
// per-entry cap (bounded only by the uint32 length prefix).
func (s *Store) SaveResult(id int64, data []byte) (shaHex string, err error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// After Abort (the kill -9 simulation) or Close, durable state must
		// stay exactly what the last acknowledged Append left — a racing
		// worker must not keep adding result files.
		return "", ErrClosed
	}
	abs := s.resultPath(id)
	tmp := abs + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	err = writeFrame(f, data, maxResultLen)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, abs); err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(filepath.Join(s.dir, resultsDir))
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum), nil
}

// LoadResult reads job id's durable result payload, verifying the frame CRC
// and the SHA-256 hex shaHex journaled with it.
func (s *Store) LoadResult(id int64, shaHex string) ([]byte, error) {
	if shaHex == "" {
		return nil, fmt.Errorf("jobstore: job %d has no durable result", id)
	}
	path := s.resultPath(id)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := readFrame(f, fi.Size(), maxResultLen)
	if err != nil {
		return nil, fmt.Errorf("jobstore: result %s corrupt: %w", path, err)
	}
	if sum := sha256.Sum256(data); fmt.Sprintf("%x", sum) != shaHex {
		return nil, fmt.Errorf("jobstore: result %s fails its journaled SHA-256", path)
	}
	return data, nil
}

// Close compacts and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.compactLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Abort simulates a crash for tests and the kill-and-recover experiment:
// the WAL handle closes without compaction or further syncs, and every
// subsequent Append fails with ErrClosed. Durable state is exactly what the
// last acknowledged Append left — the same contract as a kill -9.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
