package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Model-based property test: a random sequence of storage operations is
// checked against a trivial in-memory oracle. The storage layer may cache,
// evict, flush, and fetch however it likes — every read must still return
// exactly the bytes the oracle says were written.

// accountingError recomputes what the loop keeps incrementally from its
// definition by a full walk — the walk the bookkeeping replaced — and reports
// the first disagreement: st.resident against Σ len(buf), st.reserved against
// the full size of every block that is leased, in flight or prefetched and
// unread, each block's cached reserved flag against the same definition, and
// each array's readable list — with the array's place in st.readable —
// against the blocks whose buffer holds all of them, in ascending order.
func accountingError(st *loopState) error {
	var resident, reserved int64
	withReadable := 0
	for name, ast := range st.arrays {
		var readable []int
		for idx, b := range ast.blocks {
			if bs := ast.info.BlockSpan(idx); b.buf != nil && b.resident.full(bs.Hi-bs.Lo) {
				readable = append(readable, idx)
			}
			resident += int64(len(b.buf))
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
		sort.Ints(readable)
		if !slices.Equal(ast.readable, readable) {
			return fmt.Errorf("%s: readable list %v, the blocks say %v", name, ast.readable, readable)
		}
		if len(readable) > 0 {
			withReadable++
			if ast.slot >= len(st.readable) || st.readable[ast.slot] != ast {
				return fmt.Errorf("%s: has readable blocks %v and is not at its slot %d of st.readable", name, readable, ast.slot)
			}
		}
	}
	if len(st.readable) != withReadable {
		return fmt.Errorf("st.readable lists %d arrays, %d have a readable block", len(st.readable), withReadable)
	}
	if st.resident != resident {
		return fmt.Errorf("resident counter %d, blocks hold %d bytes", st.resident, resident)
	}
	if st.reserved != reserved {
		return fmt.Errorf("reserved counter %d, definition sums to %d", st.reserved, reserved)
	}
	return nil
}

// newCheckedLocal is NewLocal with the test playing the actor loop: the same
// dispatch, and after every single message the accounting invariants. The
// first violation fails the test.
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
			s.dispatch(st, m)
			if err := accountingError(st); err != nil && !failed {
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

func TestStorageAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := newCheckedLocal(t, Config{
			MemoryBudget: 512, // tiny: constant eviction churn
			ScratchDir:   dir,
			Seed:         seed,
		})
		defer s.Close()

		oracle := map[string]*modelArray{}
		names := []string{}
		const ops = 120
		for op := 0; op < ops; op++ {
			switch choice := rng.Intn(12); {
			case choice == 0 || len(names) == 0: // create
				name := fmt.Sprintf("m%d", len(names))
				blocks := 1 + rng.Intn(3)
				blockSize := int64(cellBytes * (1 + rng.Intn(4)))
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
			case choice >= 10: // prefetch a random block: admitted, deferred or moot
				ma := oracle[names[rng.Intn(len(names))]]
				s.PrefetchBlock(ma.info.Name, rng.Intn(ma.info.NumBlocks()))
			}
		}
		// Final sweep: every fully-written block must read back verbatim.
		for _, name := range names {
			ma := oracle[name]
			for b := 0; b < ma.info.NumBlocks(); b++ {
				bs := ma.info.BlockSpan(b)
				full := true
				for c := bs.Lo / cellBytes; c < bs.Hi/cellBytes; c++ {
					if !ma.written[c] {
						full = false
						break
					}
				}
				if !full {
					continue
				}
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
