package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dooc/internal/dag"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

func shaOf(x []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// requireNoMatrixLeases fails unless every block of the staged matrix can be
// deleted: a delete is refused on every node while any lease on the array is
// outstanding anywhere.
func requireNoMatrixLeases(t *testing.T, sys *System, k int) {
	t.Helper()
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			if err := sys.Store(0).Delete(spmv.MatrixArray(u, v)); err != nil {
				t.Errorf("after the run: %v", err)
			}
		}
	}
}

// stageRaw writes m into s as the DOOCCRS1 array name.
func stageRaw(t *testing.T, s *storage.Store, name string, m *sparse.CSR) {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArray(name, buf.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
}

func testMatrix(t *testing.T, seed int64) *sparse.CSR {
	t.Helper()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 60, Cols: 60, D: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInCoreAndOutOfCoreRunsMatch: a block is multiplied one way, out of a
// view of its resident bytes, and the iterate is the one the decoded-copy path
// gave — the SHA is what the last commit with a decode cache printed for its
// cached run — whether the matrix stays resident (a budget of twice the staged
// set) or passes through two blocks of memory a node; for V1 and V2 blocks,
// whole and split multiplies, one and two computing filters per node. The
// in-core system's second run is warm: it reads nothing, prefetches nothing
// and its views copy nothing. Afterwards no lease on a matrix block is left.
func TestInCoreAndOutOfCoreRunsMatch(t *testing.T) {
	const dim, k, nodes, iters = 420, 3, 2, 3
	const want = "b67bf4377e4b693c44248936ccc62e4b6c7ff86839aa2ccf01d654f2c4370506"
	// Rows long enough that StageMatrix leaves every section raw, as on the
	// benchmark's matrix: a view of such a block aliases all of it.
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rand.New(rand.NewSource(3)), dim)
	ref := referenceIterate(m, x0, iters)

	run := func(t *testing.T, compressed, inCore bool, split, workers int) {
		root := t.TempDir()
		cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes, SplitWays: split}
		stage := stageV1
		if compressed {
			stage = StageMatrix
		}
		if err := stage(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		budget := 2*info.Bytes/int64(k*k) + 1<<13
		if inCore {
			budget = 2 * info.Bytes
		}
		reg := obs.NewRegistry()
		sys, err := NewSystem(Options{
			Nodes:          nodes,
			WorkersPerNode: workers,
			MemoryBudget:   budget,
			ScratchRoot:    root,
			PrefetchWindow: 2,
			Reorder:        true,
			Obs:            reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, err := RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.X, ref); d > 1e-9 {
			t.Fatalf("iterate diverges from the in-core reference by %v", d)
		}
		if got := shaOf(res.X); got != want {
			t.Errorf("iterate %s, pinned %s", got[:16], want[:16])
		}
		if !inCore && res.Stats.BytesReadDisk() <= info.Bytes {
			t.Errorf("tight run read %d bytes for a %d-byte matrix: it was not out of core", res.Stats.BytesReadDisk(), info.Bytes)
		}
		if inCore {
			copied := reg.Sum("dooc_kernel_view_copied_bytes_total")
			cfg.Tag = "warm"
			warm, err := RunIteratedSpMV(sys, cfg, x0)
			if err != nil {
				t.Fatal(err)
			}
			if got := shaOf(warm.X); got != want {
				t.Errorf("warm iterate %s, pinned %s", got[:16], want[:16])
			}
			if rd, pf := warm.Stats.BytesReadDisk(), warm.Stats.PrefetchLoads(); rd != 0 || pf != 0 {
				t.Errorf("warm in-core run read %d bytes from disk and prefetched %d blocks, want 0 and 0", rd, pf)
			}
			if got := reg.Sum("dooc_kernel_view_copied_bytes_total") - copied; got != 0 && !viewsAreCopies() {
				t.Errorf("warm in-core run's views copied %d bytes, want 0", got)
			}
		}
		requireNoMatrixLeases(t, sys, k)
	}

	for _, compressed := range []bool{false, true} {
		for _, split := range []int{1, 2} {
			for _, workers := range []int{1, 2, 4} {
				for _, inCore := range []bool{true, false} {
					t.Run(fmt.Sprintf("v2=%v/split=%d/workers=%d/incore=%v", compressed, split, workers, inCore), func(t *testing.T) {
						run(t, compressed, inCore, split, workers)
					})
				}
			}
		}
	}
}

// TestInCoreRunHoldsOneCopy: after a warm in-core run the arena holds the
// staged blocks and nothing of their size beside them — no decoded copy, no
// second buffer — and the Go heap holds none of them. The arena bound is
// 1.25 × the staged bytes over its live bytes before the system existed, so
// it also bounds what the arena's size classes add to a resident block. The
// two shapes sit at either end of a class step: at 2202 a block nearly
// fills a power of two, at 2407 it is 1.11 × one, which classes of whole
// powers of two held in buffers 1.8 × the staged bytes. With a decoded copy
// kept beside every block, as the decode cache did, the arena and heap
// together grow 2.4 × the staged bytes. The heap bound is heapSlack: block
// bytes live in the arena's mapped classes, so a heap that grew by a block
// holds one it should not.
func TestInCoreRunHoldsOneCopy(t *testing.T) {
	for _, dim := range []int{2202, 2407} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) { holdsOneCopy(t, dim) })
	}
}

func holdsOneCopy(t *testing.T, dim int) {
	const k, nodes, iters = 3, 1, 2
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	info, err := DiscoverStagedMatrix(root)
	if err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rand.New(rand.NewSource(2)), dim)
	base := takeMemory()
	sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, MemoryBudget: 2 * info.Bytes, PrefetchWindow: 2, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, tag := range []string{"cold", "warm"} {
		cfg.Tag = tag
		res, err := RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		if tag == "warm" && res.Stats.BytesReadDisk() != 0 {
			t.Fatalf("warm run read %d bytes: the matrix is not resident", res.Stats.BytesReadDisk())
		}
		DeleteSpMVArrays(sys, cfg)
	}
	grew := takeMemory().since(base)
	if limit := info.Bytes * 5 / 4; grew.arena > limit {
		t.Errorf("the arena holds %d more bytes over a resident matrix of %d staged bytes (limit %d): a block is held more than once, or in a buffer too large for it", grew.arena, info.Bytes, limit)
	}
	if grew.heap > heapSlack {
		t.Errorf("the Go heap grew %d bytes over a resident matrix of %d staged bytes (limit %d): a block, or a copy of one, is on the heap", grew.heap, info.Bytes, heapSlack)
	}
	runtime.KeepAlive(m)
}

// viewTestSystem is a one-node system holding the matrix array "M", in the
// format write emits, and the written vector "x".
func viewTestSystem(t *testing.T, m *sparse.CSR, x []float64, write func(io.Writer, *sparse.CSR) error) *System {
	t.Helper()
	sys, err := NewSystem(Options{Nodes: 1, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	var buf bytes.Buffer
	if err := write(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store(0).WriteArray("M", buf.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 8*len(x))
	storage.EncodeFloat64s(raw, x)
	if err := sys.Store(0).WriteArray("x", raw, 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestViewLeaseReturnedOnEveryExit: an executor that fails after taking the
// matrix view, and one that panics with it, leave no lease behind; the third
// execution multiplies and the answer is the in-core one.
func TestViewLeaseReturnedOnEveryExit(t *testing.T) {
	m := testMatrix(t, 3)
	x := randVec(rand.New(rand.NewSource(9)), m.Cols)
	sys := viewTestSystem(t, m, x, sparse.WriteCRS)
	st := sys.Store(0)
	if err := st.Create("y", int64(8*m.Rows), int64(8*m.Rows)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := 0
	flaky := func(ctx *ExecContext) error {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			a, err := ctx.Matrix("M")
			if err != nil {
				return err
			}
			if a.Rows != m.Rows {
				return fmt.Errorf("view has %d rows, want %d", a.Rows, m.Rows)
			}
			if n == 1 {
				return errors.New("injected failure with the view held")
			}
			panic("injected panic with the view held")
		}
		return execMultiply(ctx)
	}
	tasks := []*dag.Task{{
		ID: "mult", Kind: "multiply",
		Inputs:  []dag.Ref{{Array: "M", Block: 0, Bytes: 1}, {Array: "x", Block: 0, Bytes: 1}},
		Outputs: []dag.Ref{{Array: "y", Block: 0, Bytes: 1}},
	}}
	stats, err := sys.Run(RunSpec{Tasks: tasks, Executors: map[string]Executor{"multiply": flaky}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TaskRetries != 2 {
		t.Errorf("TaskRetries = %d, want 2", stats.TaskRetries)
	}
	got := make([]float64, m.Rows)
	if err := st.ReadFloat64s("y", got); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, m.Rows)
	sparse.MulVec(m, x, want)
	if shaOf(got) != shaOf(want) {
		t.Fatal("result after two failed executions differs from the in-core product")
	}
	for _, name := range []string{"M", "x", "y"} {
		if err := st.Delete(name); err != nil {
			t.Errorf("lease left behind: %v", err)
		}
	}
}

// TestSecondViewInOneTaskIsACopy: the scratch backs one view; a second
// Matrix call in the same task must not invalidate the first.
func TestSecondViewInOneTaskIsACopy(t *testing.T) {
	m := testMatrix(t, 4)
	sys := viewTestSystem(t, m, make([]float64, m.Cols), sparse.WriteCRS)
	ctx := &ExecContext{Store: sys.Store(0), valid: &sys.valid, view: sys.takeScratch()}
	first, err := ctx.Matrix("M")
	if err != nil {
		t.Fatal(err)
	}
	second, err := ctx.Matrix("M")
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("second Matrix call returned the first call's view")
	}
	if first.Validate() != nil || second.Validate() != nil || first.NNZ() != m.NNZ() || second.NNZ() != m.NNZ() {
		t.Fatal("one of two views taken in one task is damaged")
	}
	ctx.releaseMatrix()
	if err := sys.Store(0).Delete("M"); err != nil {
		t.Fatalf("lease left behind: %v", err)
	}
}

// corruptStructure returns block bytes that pass the CRC but name a column
// outside the matrix.
func corruptStructure(t *testing.T, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	binary.LittleEndian.PutUint32(enc[sparse.HeaderBytes+8*(m.Rows+1):], uint32(m.Cols+7))
	body := len(enc) - 4
	binary.LittleEndian.PutUint32(enc[body:], crc32.Checksum(enc[:body], crc32.MakeTable(crc32.Castagnoli)))
	return enc
}

// TestValidateOncePerContent: the structural walk is skipped only for bytes
// already walked under that name. An invalid block with a correct CRC is
// refused on first sight; a name deleted and rewritten with other bytes is
// walked again though the memo was not told; a repeat view costs its lease.
func TestValidateOncePerContent(t *testing.T) {
	m := testMatrix(t, 5)
	sys := viewTestSystem(t, m, make([]float64, m.Cols), sparse.WriteCRS)
	st := sys.Store(0)
	ctx := &ExecContext{Store: st, valid: &sys.valid, view: sys.takeScratch()}
	view := func(name string) error {
		_, err := ctx.Matrix(name)
		ctx.releaseMatrix()
		return err
	}

	if err := st.WriteArray("bad", corruptStructure(t, m), 0); err != nil {
		t.Fatal(err)
	}
	if err := view("bad"); err == nil || !strings.Contains(err.Error(), "invalid CRS payload") {
		t.Fatalf("invalid block with a correct CRC on first sight: %v", err)
	}
	if sys.valid.get(0, "bad") != (validRec{}) {
		t.Fatal("a refused block was remembered as validated")
	}

	if err := view("M"); err != nil {
		t.Fatal(err)
	}
	rec := sys.valid.get(0, "M")
	if rec.gen == 0 || rec.trust(rec.gen+1, rec.crc, false) != sparse.TrustStructure || rec.trust(rec.gen+1, rec.crc+1, false) != sparse.TrustNothing {
		t.Fatal("memo does not hold exactly M's checksum after a successful view")
	}
	// A lease whose CRC the I/O filter checked skips the walk only for the
	// checksum walked before.
	if rec.trust(rec.gen+1, rec.crc, true) != sparse.TrustBytes || rec.trust(rec.gen+1, rec.crc+1, true) != sparse.TrustChecksum ||
		(validRec{}).trust(rec.gen+1, rec.crc, true) != sparse.TrustChecksum {
		t.Fatal("memo vouches for a verified lease's structure without having walked its checksum")
	}
	if sys.valid.get(1, "M") != (validRec{}) {
		t.Fatal("node 0's view vouches for node 1's bytes")
	}
	if err := view("M"); err != nil {
		t.Fatalf("second view of validated bytes: %v", err)
	}
	// A repeat view of a resident block allocates its read lease and nothing
	// of its own (the doocdebug build's views are private copies). Totals over
	// many runs, with a tenth of slack: under the race detector sync.Pool drops
	// at random what the store hands it, on both sides of the comparison.
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	lease := mallocs(func() {
		if l, err := st.RequestBlock("M", 0, storage.PermRead); err == nil {
			l.Release()
		}
	})
	if got := mallocs(func() { view("M") }); got > lease+lease/10 && !viewsAreCopies() {
		t.Errorf("1000 repeat Matrix calls on a resident block allocate %d times, their leases alone %d", got, lease)
	}

	// Same name, other bytes, memo not told: the checksum differs, so the
	// walk runs and refuses.
	if err := st.Delete("M"); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteArray("M", corruptStructure(t, m), 0); err != nil {
		t.Fatal(err)
	}
	if err := view("M"); err == nil {
		t.Fatal("rewritten invalid bytes under a validated name were accepted")
	}

	if err := view("x"); err == nil {
		t.Fatal("a vector passed for a CRS block")
	}
}

// TestMemoHoldsLiveArraysOnly: whichever path deletes a viewed array — the
// proxy registry's DropArray, the orphan sweep recovery runs over a crashed
// job's namespace — takes its entry out of the validation memo, so the map is
// as large as the set of live matrix arrays, not as the history of the process.
func TestMemoHoldsLiveArraysOnly(t *testing.T) {
	m := testMatrix(t, 7)
	sys, err := NewSystem(Options{Nodes: 1, Reorder: true, ScratchRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	st := sys.Store(0)
	ctx := &ExecContext{Store: st, valid: &sys.valid, view: sys.takeScratch()}
	for name, remove := range map[string]func(){
		"dropped:M": func() { DropArray(sys, "dropped:M") },
		"crashed:M": func() { PurgeTaggedArtifacts(sys, "crashed:") },
	} {
		stageRaw(t, st, name, m)
		if err := st.Flush(name); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Matrix(name); err != nil {
			t.Fatal(err)
		}
		ctx.releaseMatrix()
		if sys.valid.get(0, name) == (validRec{}) {
			t.Fatalf("%s: a view left nothing in the memo", name)
		}
		remove()
		if _, err := st.Info(name); err == nil {
			t.Fatalf("%s is still registered", name)
		}
		if n := len(sys.valid.recs); n != 0 {
			t.Errorf("%s is gone and the memo still holds %d entries", name, n)
		}
	}
}

// TestChecksumOncePerResidency: the CRC pass runs when a block's bytes come
// to rest in memory — a load, a reload after eviction, a new array under an
// old name — and not again while they stay there. The test plays the fault
// itself: a byte flipped in the resident buffer between two views goes
// unseen, which is what "not again" means; a byte flipped on scratch between
// two residencies is a checksum error at the next view. Both hold wherever
// the CRC runs, in the computing filter or in the I/O filter.
func TestChecksumOncePerResidency(t *testing.T) {
	for _, site := range verifySites {
		t.Run(site.name, func(t *testing.T) {
			forceVerifySite(t, site.inIOFilter)
			m := testMatrix(t, 6)
			var enc bytes.Buffer
			if err := sparse.WriteCRS(&enc, m); err != nil {
				t.Fatal(err)
			}
			root := t.TempDir()
			path := filepath.Join(root, "node0", "M.arr")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(Options{Nodes: 1, Reorder: true, ScratchRoot: root})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			st := sys.Store(0)
			ctx := &ExecContext{Store: st, valid: &sys.valid, view: sys.takeScratch()}
			var verified bool // by the I/O filter, the last view's lease
			view := func() (int64, error) {
				a, err := ctx.Matrix("M")
				if err != nil {
					return 0, err
				}
				defer ctx.releaseMatrix()
				if a.NNZ() != m.NNZ() {
					t.Fatalf("view has %d nonzeros, want %d", a.NNZ(), m.NNZ())
				}
				verified = ctx.matLease.Verified
				return ctx.matLease.Gen, nil
			}
			// flipResident flips one bit of a value where the block lies in memory.
			flipResident := func() {
				l, err := st.RequestBlock("M", 0, storage.PermRead)
				if err != nil {
					t.Fatal(err)
				}
				l.Data[len(l.Data)-12] ^= 1
				l.Release()
			}
			evict := func() {
				t.Helper()
				if err := st.Evict("M", 0); err != nil {
					t.Fatal(err)
				}
			}

			first, err := view()
			if err != nil {
				t.Fatal(err)
			}
			flipResident()
			if gen, err := view(); err != nil || gen != first {
				t.Fatalf("second view of a still-resident block: generation %d (first %d), err %v; want the same residency and no second CRC pass", gen, first, err)
			}
			flipResident() // back

			// Evicted and read back unchanged: a new residency, checksummed again (it
			// passes), not walked again.
			evict()
			second, err := view()
			if err != nil || second == first {
				t.Fatalf("view after evict + reload: generation %d (first %d), err %v", second, first, err)
			}
			if verified != site.inIOFilter {
				t.Fatalf("a reloaded block's lease reports Verified %v with the I/O-filter site %v", verified, site.inIOFilter)
			}

			// Damaged on scratch between two residencies.
			damaged := append([]byte(nil), enc.Bytes()...)
			damaged[len(damaged)-12] ^= 1
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			evict()
			if _, err := view(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("view of a block damaged on scratch: %v", err)
			}
			if _, err := view(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("second view of the damaged residency: %v", err)
			}

			// Deleted and created again under the same name, the memo not told: the
			// new bytes are checksummed on first sight.
			if err := st.Delete("M"); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteArray("M", damaged, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := view(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("view of damaged bytes under a verified name: %v", err)
			}
		})
	}
}

// TestMixedFormatStagedSetRuns: a staged directory holding DOOCCRS1 files —
// a set staged before DOOCCRS2 became the one staging format — beside blocks
// StageMatrix wrote runs out of core to the bits of the all-DOOCCRS1 set, and
// discovery tells the two kinds of file apart. On a matrix like the
// benchmark's StageMatrix leaves no int32 column section behind. A mirrored
// set with DOOCCRS1 triangles keeps its count of entries too.
func TestMixedFormatStagedSetRuns(t *testing.T) {
	const dim, k, nodes, iters = 360, 3, 2, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
	x0 := randVec(rand.New(rand.NewSource(4)), dim)
	old := func(u, v int) bool { return (u+v)%2 == 0 }
	var allV1 string
	for _, c := range []struct {
		name  string
		stage func(root string) error
		forms map[string]int
	}{
		{"all v1", func(root string) error { return stageV1(root, m, cfg) }, map[string]int{"int32": k * k}},
		{"as staged", func(root string) error { return StageMatrix(root, m, cfg) }, map[string]int{"gap8": k * k}},
		{"mixed", func(root string) error {
			if err := StageMatrix(root, m, cfg); err != nil {
				return err
			}
			return stageV1Where(root, m, cfg, old)
		}, map[string]int{"int32": 5, "gap8": 4}},
	} {
		root := t.TempDir()
		if err := c.stage(root); err != nil {
			t.Fatal(err)
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		if info.Dim != dim || info.K != k || info.NNZ != m.NNZ() || !maps.Equal(info.ColumnForms, c.forms) {
			t.Errorf("%s: discovered %+v, want dim %d, K %d, %d nnz, column forms %v", c.name, info, dim, k, m.NNZ(), c.forms)
		}
		sys, err := NewSystem(Options{
			Nodes: nodes, ScratchRoot: root, PrefetchWindow: 2, Reorder: true,
			MemoryBudget: 2*info.Bytes/int64(k*k) + 1<<13,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunIteratedSpMV(sys, cfg, x0)
		sys.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Stats.BytesReadDisk() <= info.Bytes {
			t.Errorf("%s: read %d bytes for a %d-byte matrix: the run was not out of core", c.name, res.Stats.BytesReadDisk(), info.Bytes)
		}
		if got := shaOf(res.X); allV1 == "" {
			allV1 = got
		} else if got != allV1 {
			t.Errorf("%s: result %s, the all-v1 set's %s", c.name, got[:16], allV1[:16])
		}
	}

	// A mirrored set whose diagonal triangles are DOOCCRS1 files beside
	// StageMatrix's other blocks: discovery counts each triangle's diagonal
	// from its int32 columns as it does from the gap form's first columns,
	// and the set runs to the bits of the set as staged. Every fifth
	// diagonal entry is missing, so some rows of a triangle open above the
	// diagonal.
	full := symmetricTestMatrix(t, dim, 22)
	var ts []sparse.Triplet
	for i := 0; i < dim; i++ {
		for e := full.RowPtr[i]; e < full.RowPtr[i+1]; e++ {
			if j := int(full.ColIdx[e]); j != i || i%5 != 0 {
				ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: full.Val[e]})
			}
		}
	}
	sym, err := sparse.FromTriplets(dim, dim, ts)
	if err != nil {
		t.Fatal(err)
	}
	var mirroredSHA string
	for _, oldTriangles := range []bool{false, true} {
		root := t.TempDir()
		if err := StageMatrix(root, sym, cfg); err != nil {
			t.Fatal(err)
		}
		forms := map[string]int{"gap8": k * (k + 1) / 2}
		if oldTriangles {
			p, err := cfg.Partition()
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < k; u++ {
				b, err := sparse.Block(sym, p, u, u)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(root, fmt.Sprintf("node%d", cfg.OwnerOf(u)), spmv.MatrixArray(u, u)+".arr")
				if err := sparse.WriteCRSFile(path, b.UpperTriangle()); err != nil {
					t.Fatal(err)
				}
			}
			forms = map[string]int{"int32": k, "gap8": k * (k - 1) / 2}
		}
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Mirrored || info.Dim != dim || info.NNZ != sym.NNZ() || !maps.Equal(info.ColumnForms, forms) {
			t.Errorf("mirrored, DOOCCRS1 triangles %v: discovered %+v, want mirrored, dim %d, %d nnz, column forms %v", oldTriangles, info, dim, sym.NNZ(), forms)
		}
		sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunIteratedSpMV(sys, cfg, x0)
		sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := shaOf(res.X); mirroredSHA == "" {
			mirroredSHA = got
		} else if got != mirroredSHA {
			t.Errorf("mirrored set with DOOCCRS1 triangles: result %s, as staged %s", got[:16], mirroredSHA[:16])
		}
	}
}

// TestViewScratchOutlivesRun: a worker's view scratch goes back to the system
// when its run ends and the next run's worker takes it, grown, so a solver
// that submits a run per step decodes every step into the same memory; runs
// in flight at once each hold their own, and the list never grows past the
// most workers that ran together.
func TestViewScratchOutlivesRun(t *testing.T) {
	const dim, k, nodes = 240, 2, 2
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: nodes}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: nodes, ScratchRoot: root, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	x := randVec(rand.New(rand.NewSource(2)), dim)
	want := make([]float64, dim)
	sparse.MulVec(m, x, want)

	parked := func() map[*sparse.ViewScratch]bool {
		sys.scratchMu.Lock()
		defer sys.scratchMu.Unlock()
		set := make(map[*sparse.ViewScratch]bool)
		for _, s := range sys.scratches {
			set[s] = true
		}
		if len(set) != len(sys.scratches) {
			t.Fatalf("a scratch is on the free list twice: %d entries, %d distinct", len(sys.scratches), len(set))
		}
		return set
	}
	apply := func(op *Operator) {
		y, err := op.Apply(x)
		if err != nil {
			t.Error(err)
			return
		}
		if d := maxAbsDiff(y, want); d > 1e-12 {
			t.Errorf("A·x is off by %v", d)
		}
	}

	op := &Operator{Sys: sys, Cfg: cfg}
	apply(op)
	first := parked()
	if len(first) != nodes {
		t.Fatalf("%d scratches parked after a run of %d workers", len(first), nodes)
	}
	apply(op)
	for s := range parked() {
		if !first[s] {
			t.Fatal("the second run grew a scratch of its own instead of taking a parked one")
		}
	}

	const concurrent = 3
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		op := &Operator{Sys: sys, Cfg: cfg}
		op.Cfg.Tag = fmt.Sprintf("job%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 3; step++ {
				apply(op)
			}
		}()
	}
	wg.Wait()
	if n := len(parked()); n < nodes || n > concurrent*nodes {
		t.Fatalf("%d scratches parked after %d concurrent runs of %d workers", n, concurrent, nodes)
	}
}
