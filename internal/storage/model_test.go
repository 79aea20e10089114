package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dooc/internal/compress"
)

// Model-based property test: a random sequence of storage operations is
// checked against a trivial in-memory oracle. The storage layer may cache,
// evict, flush, and fetch however it likes — every read, through a lease or
// a copy-out, must still return exactly the bytes the oracle says were
// written.

// accountingError recomputes what the loop keeps incrementally from its
// definition by a full walk — the walk the bookkeeping replaced — and reports
// the first disagreement: st.resident against Σ len(buf), st.reserved against
// the full size of every block that is leased, in flight or prefetched and
// unread, and each block's cached reserved flag against the same definition.
// It also checks the heap a resident block costs beyond what the budget
// counts: a buffer of at least the arena's smallest class has at most a
// quarter more capacity than length.
func accountingError(st *loopState) error {
	var resident, reserved int64
	for name, ast := range st.arrays {
		for idx, b := range ast.blocks {
			resident += int64(len(b.buf))
			if n := len(b.buf); n >= 1<<arenaMinShift && cap(b.buf) > n+n/4 {
				return fmt.Errorf("%s[%d]: %d resident bytes hold a %d-byte buffer, more than 1.25 ×", name, idx, n, cap(b.buf))
			}
			want := b.refcnt > 0 || b.fetching || b.probing || b.prefetched
			if b.reserved != want {
				return fmt.Errorf("%s[%d]: reserved flag %v, definition says %v (refcnt %d fetching %v probing %v prefetched %v)",
					name, idx, b.reserved, want, b.refcnt, b.fetching, b.probing, b.prefetched)
			}
			if want {
				bs := ast.info.BlockSpan(idx)
				reserved += bs.Hi - bs.Lo
			}
			if b.refcnt > 0 && b.prefetched {
				return fmt.Errorf("%s[%d]: leased and still marked prefetched-unread", name, idx)
			}
		}
	}
	if st.resident != resident {
		return fmt.Errorf("resident counter %d, blocks hold %d bytes", st.resident, resident)
	}
	if st.reserved != reserved {
		return fmt.Errorf("reserved counter %d, definition sums to %d", st.reserved, reserved)
	}
	return nil
}

// residentError answers a Resident question through the loop's dispatch and
// holds every answer to the same full walk, not to the loop's lookup: a
// block is resident when it has a buffer that holds all of it. The caller's
// done is signalled only after the check, so the answers are read while the
// asker still waits.
func residentError(s *Store, st *loopState, q *cmdResident) error {
	done := q.done
	q.done = make(chan struct{}, 1)
	s.dispatch(st, q)
	<-q.done
	defer func() { done <- struct{}{} }()
	for i, r := range q.refs {
		want := false
		for name, ast := range st.arrays {
			for idx, b := range ast.blocks {
				if bs := ast.info.BlockSpan(idx); name == r.Array && idx == r.Block {
					want = b.buf != nil && b.resident.full(bs.Hi-bs.Lo)
				}
			}
		}
		if q.out[i] != want {
			return fmt.Errorf("Resident(%s block %d) = %v, the blocks say %v", r.Array, r.Block, q.out[i], want)
		}
	}
	return nil
}

// newCheckedLocal is NewLocal with the test playing the actor loop: the same
// dispatch, and after every single message the accounting invariants; a
// Resident question's answers are checked too. The first violation fails the
// test.
func newCheckedLocal(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.NodeID = 0
	s, err := newStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.peers = []*Store{s}
	s.io.start()
	go func() {
		st := newLoopState()
		defer close(s.done)
		failed := false
		for {
			m, ok := s.inbox.get()
			if !ok {
				s.teardown(st)
				return
			}
			kind := fmt.Sprintf("%T", m) // before dispatch recycles a pooled message
			var err error
			if q, ok := m.(*cmdResident); ok {
				err = residentError(s, st, q)
			} else {
				s.dispatch(st, m)
			}
			if err == nil {
				err = accountingError(st)
			}
			if err != nil && !failed {
				failed = true
				t.Errorf("after %s: %v", kind, err)
			}
		}
	}()
	s.announceScanned()
	return s
}

// cellBytes is the granularity of the modeled intervals.
const cellBytes = 16

// modelArray is the oracle's view of one array.
type modelArray struct {
	info    ArrayInfo
	data    []byte
	written []bool // per cell
}

func (ma *modelArray) cellsPerBlock() int { return int(ma.info.BlockSize) / cellBytes }

// randomUnwrittenRun picks a run of unwritten cells inside one block.
func (ma *modelArray) randomUnwrittenRun(rng *rand.Rand) (lo, hi int64, ok bool) {
	blocks := ma.info.NumBlocks()
	for attempt := 0; attempt < 8; attempt++ {
		b := rng.Intn(blocks)
		cpb := ma.cellsPerBlock()
		start := b*cpb + rng.Intn(cpb)
		if ma.written[start] {
			continue
		}
		end := start
		maxEnd := (b + 1) * cpb
		for end+1 < maxEnd && !ma.written[end+1] && rng.Intn(3) > 0 {
			end++
		}
		return int64(start) * cellBytes, int64(end+1) * cellBytes, true
	}
	return 0, 0, false
}

// randomWrittenRun picks a run of written cells inside one block.
func (ma *modelArray) randomWrittenRun(rng *rand.Rand) (lo, hi int64, ok bool) {
	blocks := ma.info.NumBlocks()
	for attempt := 0; attempt < 8; attempt++ {
		b := rng.Intn(blocks)
		cpb := ma.cellsPerBlock()
		start := b*cpb + rng.Intn(cpb)
		if !ma.written[start] {
			continue
		}
		end := start
		maxEnd := (b + 1) * cpb
		for end+1 < maxEnd && ma.written[end+1] && rng.Intn(3) > 0 {
			end++
		}
		return int64(start) * cellBytes, int64(end+1) * cellBytes, true
	}
	return 0, 0, false
}

// fullBlock reports whether every cell of block b has been written.
func (ma *modelArray) fullBlock(b int) bool {
	bs := ma.info.BlockSpan(b)
	for c := bs.Lo / cellBytes; c < bs.Hi/cellBytes; c++ {
		if !ma.written[c] {
			return false
		}
	}
	return true
}

// randomFullBlock picks a fully written block of the array.
func (ma *modelArray) randomFullBlock(rng *rand.Rand) (int, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		if b := rng.Intn(ma.info.NumBlocks()); ma.fullBlock(b) {
			return b, true
		}
	}
	return 0, false
}

func TestStorageAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cfg := Config{
			MemoryBudget: 512, // tiny: constant eviction churn
			ScratchDir:   dir,
			Seed:         seed,
		}
		if seed%2 != 0 {
			cfg.Codec = compress.Default() // spills go to slotted files
		}
		s := newCheckedLocal(t, cfg)
		defer s.Close()

		oracle := map[string]*modelArray{}
		names := []string{}
		var deleted []string
		created := 0
		// copyOut reads a fully written block through the copy-out path and
		// holds it against the oracle.
		copyOut := func(ma *modelArray, b int, how string) {
			bs := ma.info.BlockSpan(b)
			dst := make([]byte, bs.Hi-bs.Lo)
			if err := s.readBlockInto(ma.info.Name, b, dst); err != nil {
				t.Fatalf("copy-out (%s) %s block %d: %v", how, ma.info.Name, b, err)
			}
			if !bytes.Equal(dst, ma.data[bs.Lo:bs.Hi]) {
				t.Fatalf("seed %d: copy-out (%s) %s block %d mismatch", seed, how, ma.info.Name, b)
			}
		}
		var answers []bool
		const ops = 160
		for op := 0; op < ops; op++ {
			switch choice := rng.Intn(17); {
			case choice == 0 || len(names) == 0: // create
				name := fmt.Sprintf("m%d", created)
				created++
				blocks := 1 + rng.Intn(3)
				blockSize := int64(cellBytes * (1 + rng.Intn(4)))
				if rng.Intn(3) == 0 {
					blockSize *= 37 // 592 to 2,368 B: past the arena's smallest class
				}
				size := blockSize * int64(blocks)
				if err := s.Create(name, size, blockSize); err != nil {
					t.Fatalf("create %s: %v", name, err)
				}
				oracle[name] = &modelArray{
					info:    ArrayInfo{Name: name, Size: size, BlockSize: blockSize},
					data:    make([]byte, size),
					written: make([]bool, size/cellBytes),
				}
				names = append(names, name)
			case choice <= 3: // write an unwritten interval
				ma := oracle[names[rng.Intn(len(names))]]
				lo, hi, ok := ma.randomUnwrittenRun(rng)
				if !ok {
					continue
				}
				l, err := s.Request(ma.info.Name, lo, hi, PermWrite)
				if err != nil {
					t.Fatalf("write %s [%d,%d): %v", ma.info.Name, lo, hi, err)
				}
				rng.Read(l.Data)
				copy(ma.data[lo:hi], l.Data)
				for c := lo / cellBytes; c < hi/cellBytes; c++ {
					ma.written[c] = true
				}
				l.Release()
			case choice <= 6: // read a written interval
				ma := oracle[names[rng.Intn(len(names))]]
				lo, hi, ok := ma.randomWrittenRun(rng)
				if !ok {
					continue
				}
				l, err := s.Request(ma.info.Name, lo, hi, PermRead)
				if err != nil {
					t.Fatalf("read %s [%d,%d): %v", ma.info.Name, lo, hi, err)
				}
				if !bytes.Equal(l.Data, ma.data[lo:hi]) {
					t.Fatalf("seed %d: %s [%d,%d) mismatch", seed, ma.info.Name, lo, hi)
				}
				l.Release()
			case choice == 7: // flush
				name := names[rng.Intn(len(names))]
				if err := s.Flush(name); err != nil {
					t.Fatalf("flush %s: %v", name, err)
				}
			case choice == 8: // double-write attempt must fail
				ma := oracle[names[rng.Intn(len(names))]]
				lo, hi, ok := ma.randomWrittenRun(rng)
				if !ok {
					continue
				}
				if _, err := s.Request(ma.info.Name, lo, hi, PermWrite); err == nil {
					t.Fatalf("double write of %s [%d,%d) accepted", ma.info.Name, lo, hi)
				}
			case choice == 9: // explicit evict of a random block (best effort)
				ma := oracle[names[rng.Intn(len(names))]]
				_ = s.Evict(ma.info.Name, rng.Intn(ma.info.NumBlocks()))
			case choice <= 11: // prefetch a random block: admitted, deferred or moot
				ma := oracle[names[rng.Intn(len(names))]]
				s.PrefetchBlock(ma.info.Name, rng.Intn(ma.info.NumBlocks()))
			case choice == 12: // copy-out, wherever the block happens to be
				ma := oracle[names[rng.Intn(len(names))]]
				if b, ok := ma.randomFullBlock(rng); ok {
					copyOut(ma, b, "any")
				}
			case choice == 13: // copy-out from scratch: flushed and evicted first
				ma := oracle[names[rng.Intn(len(names))]]
				b, ok := ma.randomFullBlock(rng)
				if !ok {
					continue
				}
				if err := s.Flush(ma.info.Name); err != nil {
					t.Fatalf("flush %s: %v", ma.info.Name, err)
				}
				_ = s.Evict(ma.info.Name, b) // refused while a prefetch is in flight
				copyOut(ma, b, "scratch")
			case choice == 14: // copy-out behind the fetch a prefetch started
				ma := oracle[names[rng.Intn(len(names))]]
				if b, ok := ma.randomFullBlock(rng); ok {
					s.PrefetchBlock(ma.info.Name, b)
					copyOut(ma, b, "fetching")
				}
			case choice == 15: // delete; a copy-out of it then fails
				i := rng.Intn(len(names))
				name := names[i]
				var err error
				for try := 0; try < 1000; try++ { // a prefetch may still be reading it
					if err = s.Delete(name); err == nil || !strings.Contains(err.Error(), "in flight") {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				if err != nil {
					t.Fatalf("delete %s: %v", name, err)
				}
				names = slices.Delete(names, i, i+1)
				delete(oracle, name)
				deleted = append(deleted, name)
				if err := s.readBlockInto(name, 0, make([]byte, cellBytes)); err == nil {
					t.Fatalf("copy-out of deleted array %s succeeded", name)
				}
			case choice == 16: // ask whether random blocks are resident; the loop checks each answer
				var refs []BlockRef
				for n := 1 + rng.Intn(6); len(refs) < n; {
					ma := oracle[names[rng.Intn(len(names))]]
					ref := BlockRef{ma.info.Name, rng.Intn(ma.info.NumBlocks())} // often partly written
					switch rng.Intn(6) {
					case 0: // an unknown array: deleted, or not created yet
						ref.Array = fmt.Sprintf("m%d", created)
						if len(deleted) > 0 && rng.Intn(2) == 0 {
							ref.Array = deleted[rng.Intn(len(deleted))]
						}
					case 1: // a block out of range
						ref.Block = []int{-1, ma.info.NumBlocks()}[rng.Intn(2)]
					case 2: // a block with a fetch in flight, when it has to come from scratch
						s.PrefetchBlock(ref.Array, ref.Block)
					}
					refs = append(refs, ref)
				}
				answers = s.Resident(refs, answers)
				for i, r := range refs {
					if ma := oracle[r.Array]; answers[i] && (ma == nil || r.Block < 0 || r.Block >= ma.info.NumBlocks() || !ma.fullBlock(r.Block)) {
						t.Fatalf("seed %d: %s block %d answered resident; it is unknown or not fully written", seed, r.Array, r.Block)
					}
				}
			}
		}
		for _, name := range deleted {
			if _, err := s.Info(name); err == nil {
				t.Fatalf("deleted array %s still known", name)
			}
		}
		// Final sweep: every fully-written block must read back verbatim.
		for _, name := range names {
			ma := oracle[name]
			for b := 0; b < ma.info.NumBlocks(); b++ {
				bs := ma.info.BlockSpan(b)
				if !ma.fullBlock(b) {
					continue
				}
				copyOut(ma, b, "final")
				l, err := s.Request(name, bs.Lo, bs.Hi, PermRead)
				if err != nil {
					t.Fatalf("final read %s block %d: %v", name, b, err)
				}
				if !bytes.Equal(l.Data, ma.data[bs.Lo:bs.Hi]) {
					t.Fatalf("seed %d: final sweep mismatch %s block %d", seed, name, b)
				}
				l.Release()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
