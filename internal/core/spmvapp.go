package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dooc/internal/dag"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// SpMVConfig describes one out-of-core iterated SpMV run (Section IV of the
// paper): a Dim×Dim matrix partitioned into a K×K grid of sub-matrices, with
// node OwnerOf(u) responsible for sub-matrix row u.
type SpMVConfig struct {
	Dim   int
	K     int
	Iters int
	Nodes int
	// Tag namespaces the run's transient arrays (vectors, partials) so
	// successive runs over the same staged matrix do not collide.
	Tag string
	// Trace, when valid, is the causal parent (a job's running-phase span)
	// the engine attaches this run's per-iteration and per-task spans
	// under. Zero leaves task spans unannotated, exactly as before.
	Trace obs.SpanContext
}

// A run is a chain of segments, each one engine run over the program of
// whole iterations: as many as fit in segmentTasks tasks, and at least one.
// A segment's program and arrays cost ≈ 2.2–2.6 KB a task (measured on a
// 512², 2-node in-memory run at K = 2 and K = 4), so a run holds about a
// megabyte of them whatever its Iters. At K ≤ 4 a segment holds 25
// iterations or more, so a run of up to that many is one segment.
const segmentTasks = 1 << 9

// MaxProgramTasks bounds the tasks of one iteration: a segment holds at
// least one, so the bound keeps a segment's program under ≈ 0.7 GB.
const MaxProgramTasks = 1 << 18

// ErrProgramTooLarge refuses a configuration one iteration of which would
// exceed MaxProgramTasks.
var ErrProgramTooLarge = errors.New("core: program too large")

// iterTasks is the tasks of one iteration over the full grid: a multiply for
// every block and K sums.
func (c SpMVConfig) iterTasks() int { return c.K*c.K + c.K }

// Validate checks the configuration, the size of one iteration's program
// included.
func (c SpMVConfig) Validate() error {
	if c.Dim <= 0 || c.K <= 0 || c.Iters <= 0 || c.Nodes <= 0 {
		return fmt.Errorf("core: invalid SpMV config %+v", c)
	}
	if c.K > c.Dim {
		return fmt.Errorf("core: K=%d exceeds dimension %d", c.K, c.Dim)
	}
	if c.K > MaxProgramTasks || c.iterTasks() > MaxProgramTasks {
		return fmt.Errorf("%w: an iteration at K = %d exceeds %d tasks", ErrProgramTooLarge, c.K, MaxProgramTasks)
	}
	return nil
}

// prefix is the name prefix of the run's vectors and partials.
func (c SpMVConfig) prefix() string {
	if c.Tag == "" {
		return ""
	}
	return c.Tag + ":"
}

// OwnerOf maps sub-matrix row u to its owning node.
func (c SpMVConfig) OwnerOf(u int) int { return u % c.Nodes }

// Partition returns the row/column partition.
func (c SpMVConfig) Partition() (sparse.GridPartition, error) {
	return sparse.NewGridPartition(c.Dim, c.K)
}

// StageMatrix writes the blocks of m's K×K grid as storage arrays in each
// owner node's scratch directory under scratchRoot (the layout NewSystem's
// ScratchRoot option expects). A subsequent NewSystem over the same root
// discovers them via the storage layer's startup scan — this is the
// out-of-core staging step, the analogue of the paper's sub-matrix files on
// GPFS. Every block is a DOOCCRS2 block (sparse.WriteCRS2), the one format
// blocks are staged in; a set staged earlier as DOOCCRS1 files, or a mix of
// the two, runs as it is, the reader telling them apart. A symmetric m is
// staged mirrored, K(K+1)/2 blocks (stageMatrix).
func StageMatrix(scratchRoot string, m *sparse.CSR, cfg SpMVConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if m.Rows != cfg.Dim || m.Cols != cfg.Dim {
		return fmt.Errorf("core: matrix is %dx%d, config says %d", m.Rows, m.Cols, cfg.Dim)
	}
	blockFile := func(u, v int) string {
		return filepath.Join(scratchRoot, fmt.Sprintf("node%d", cfg.OwnerOf(u)), spmv.MatrixArray(u, v)+".arr")
	}
	layout, err := stageMatrix(m, cfg, func(u, v int, block []byte) error {
		if err := os.MkdirAll(filepath.Dir(blockFile(u, v)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(blockFile(u, v), block, 0o644)
	})
	if err != nil {
		return err
	}
	// A full grid staged here earlier left the mirror of every staged pair
	// behind; discovery would take those stale blocks for a full grid.
	for u := 0; u < cfg.K; u++ {
		for v := 0; v < cfg.K; v++ {
			if layout.Staged(u, v) {
				continue
			}
			if err := os.Remove(blockFile(u, v)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// StageMatrixCompressed is StageMatrix under the name it had while staging
// came in two formats; bench/ still calls it.
func StageMatrixCompressed(scratchRoot string, m *sparse.CSR, cfg SpMVConfig) error {
	return StageMatrix(scratchRoot, m, cfg)
}

// stageMatrix hands put the staged blocks of m's K×K grid, encoded the one
// way blocks are staged: every block, or — for a matrix that equals its
// transpose bit for bit, on a grid of K ≥ 2 — the blocks of its mirrored
// layout (mirroredLayout), a diagonal block as its upper triangle. The
// symmetry check of a matrix that is not symmetric stops at its first
// asymmetric entry. It returns the layout it staged.
//
// Each block row is validated and split once (sparse.SplitBlockRow): the
// split counts the entries of every block for the layout, and each staged
// block is encoded from the matrix's own arrays through it into one reused
// image. No block is built, and a block the layout leaves to its mirror is
// not touched.
func stageMatrix(m *sparse.CSR, cfg SpMVConfig, put func(u, v int, block []byte) error) (spmv.Layout, error) {
	var layout spmv.Layout
	p, err := cfg.Partition()
	if err != nil {
		return layout, err
	}
	rows := make([]*sparse.BlockRow, cfg.K)
	for u := range rows {
		if rows[u], err = sparse.SplitBlockRow(m, p, u); err != nil {
			return layout, err
		}
	}
	if cfg.K >= 2 && m.IsSymmetric(0) {
		layout = mirroredLayout(rows, cfg)
	}
	var img []byte
	for u, row := range rows {
		for v := 0; v < cfg.K; v++ {
			if !layout.Staged(u, v) {
				continue
			}
			if layout.Mirrored() && u == v {
				img = row.AppendUpperTriangleCRS2(img[:0])
			} else {
				img = row.AppendBlockCRS2(img[:0], v)
			}
			if err := put(u, v, img); err != nil {
				return layout, err
			}
		}
	}
	return layout, nil
}

// mirroredLayout picks which block of each mirrored pair (u,v)/(v,u) a
// symmetric matrix, split into its block rows, stages — a block lives with
// its row owner — so that the nodes hold about as many entries each.
// Greedily, in row order, each pair goes to the owner holding fewer entries
// so far ((u,v) on a tie); then, while moving a pair to its other owner
// brings the two nodes closer than it found them, it moves: the greedy pass
// alone can leave a node with nothing but its triangles. Every move lowers
// the sum of the squared loads, so this ends. Both blocks of a pair hold the
// same entries, so the choice changes no result.
func mirroredLayout(rows []*sparse.BlockRow, cfg SpMVConfig) spmv.Layout {
	k := cfg.K
	held := make([]int64, cfg.Nodes)
	for u, row := range rows {
		held[cfg.OwnerOf(u)] += row.UpperNNZ() // the upper triangle
	}
	nnz := make([]int64, k*k) // of pair (u,v), u < v
	lower := make([]bool, k*k)
	// holder returns the node holding pair (u,v), u < v, and the one it
	// could move to.
	holder := func(u, v int) (int, int) {
		if lower[u*k+v] {
			return cfg.OwnerOf(v), cfg.OwnerOf(u)
		}
		return cfg.OwnerOf(u), cfg.OwnerOf(v)
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			nnz[u*k+v] = rows[u].NNZ(v)
			lower[u*k+v] = held[cfg.OwnerOf(v)] < held[cfg.OwnerOf(u)]
			a, _ := holder(u, v)
			held[a] += nnz[u*k+v]
		}
	}
	for moved := true; moved; {
		moved = false
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				a, b := holder(u, v)
				if w := nnz[u*k+v]; w > 0 && held[a]-held[b] > w {
					lower[u*k+v] = !lower[u*k+v]
					held[a], held[b] = held[a]-w, held[b]+w
					moved = true
				}
			}
		}
	}
	return spmv.MirroredLayout(k, func(u, v int) bool { return lower[u*k+v] })
}

// StagedMatrixInfo describes a staged block set discovered on disk.
type StagedMatrixInfo struct {
	Dim   int
	K     int
	Nodes int
	// Mirrored says the set is a symmetric matrix staged as K(K+1)/2 blocks
	// (spmv.Layout).
	Mirrored bool
	// NNZ is the matrix's nonzero count, the mirrored half counted twice.
	NNZ int64
	// Bytes is the total staged size.
	Bytes int64
	// ColumnForms counts the blocks by how they store their column indices
	// (sparse.ReadCRSColumnForm): "gap8", "gap16", "delta32" or "raw" for a
	// block StageMatrix wrote, each chosen from the block itself; "int32"
	// for a DOOCCRS1 file, which no stager writes any more.
	ColumnForms map[string]int
}

// DiscoverStagedMatrix inspects a StageMatrix layout under scratchRoot and
// reconstructs its dimensions from the CRS block headers — what doocrun
// uses so callers need not repeat generator parameters.
func DiscoverStagedMatrix(scratchRoot string) (StagedMatrixInfo, error) {
	var info StagedMatrixInfo
	entries, err := os.ReadDir(scratchRoot)
	if err != nil {
		return info, err
	}
	blockPath := make(map[[2]int]string)
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node") {
			continue
		}
		var node int
		if _, err := fmt.Sscanf(e.Name(), "node%d", &node); err != nil {
			continue
		}
		if node+1 > info.Nodes {
			info.Nodes = node + 1
		}
		files, err := os.ReadDir(filepath.Join(scratchRoot, e.Name()))
		if err != nil {
			return info, err
		}
		for _, f := range files {
			var u, v int
			if _, err := fmt.Sscanf(f.Name(), "A_%d_%d.arr", &u, &v); err != nil {
				continue
			}
			blockPath[[2]int{u, v}] = filepath.Join(scratchRoot, e.Name(), f.Name())
			if u+1 > info.K {
				info.K = u + 1
			}
			if v+1 > info.K {
				info.K = v + 1
			}
		}
	}
	if info.K == 0 {
		return info, fmt.Errorf("core: no staged blocks under %s", scratchRoot)
	}
	layout, err := spmv.DiscoverLayout(info.K, func(u, v int) bool {
		_, ok := blockPath[[2]int{u, v}]
		return ok
	})
	if err != nil {
		return info, fmt.Errorf("core: %s: %w", scratchRoot, err)
	}
	info.Mirrored = layout.Mirrored()
	info.ColumnForms = make(map[string]int)
	for u := 0; u < info.K; u++ {
		for v := 0; v < info.K; v++ {
			if !layout.Staged(u, v) {
				continue
			}
			path := blockPath[[2]int{u, v}]
			rows, _, nnz, err := sparse.ReadCRSHeader(path)
			if err != nil {
				return info, err
			}
			if u == v {
				info.Dim += rows
			}
			switch {
			case !info.Mirrored:
				info.NNZ += nnz
			case u != v:
				info.NNZ += 2 * nnz
			default:
				diag, err := diagonalNNZ(path)
				if err != nil {
					return info, err
				}
				info.NNZ += 2*nnz - diag
			}
			form, err := sparse.ReadCRSColumnForm(path)
			if err != nil {
				return info, err
			}
			info.ColumnForms[form]++
			// Stat rather than compute: V2 files are section-compressed, so
			// their size is not a function of (rows, nnz).
			fi, err := os.Stat(path)
			if err != nil {
				return info, err
			}
			info.Bytes += fi.Size()
		}
	}
	return info, nil
}

// diagonalNNZ counts the stored diagonal entries of the triangle block file
// at path: a row of an upper triangle holds its diagonal entry first, so
// each row's first column, on a view of the block, tells.
func diagonalNNZ(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	b, _, err := sparse.ViewCRSBytes(data, new(sparse.ViewScratch), nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	first := func(i int) int32 { return b.ColIdx[b.RowPtr[i]] }
	if b.RowFirst != nil { // the gap form
		first = func(i int) int32 { return b.RowFirst[i] }
	}
	var n int64
	for i := 0; i < b.Rows; i++ {
		if b.RowPtr[i] < b.RowPtr[i+1] && int(first(i)) == i {
			n++
		}
	}
	return n, nil
}

// LoadMatrixInMemory stages the blocks directly into the running system's
// stores (for scratch-less tests and small examples).
func LoadMatrixInMemory(sys *System, m *sparse.CSR, cfg SpMVConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	_, err := stageMatrix(m, cfg, func(u, v int, block []byte) error {
		return sys.Store(cfg.OwnerOf(u)).WriteArray(spmv.MatrixArray(u, v), block, 0)
	})
	return err
}

// MatrixLayout reads off sys's stores which blocks of the K×K grid are
// staged (spmv.DiscoverLayout): all of them, or — for a symmetric matrix
// StageMatrix or LoadMatrixInMemory staged — one of each mirrored pair. A
// grid holding both blocks of pair (0,1) is taken to be full without probing
// the rest: a run finds a missing block at the task that needs it, as it
// always has.
func MatrixLayout(sys *System, k int) (spmv.Layout, error) {
	st := sys.Store(0)
	staged := func(u, v int) bool {
		_, err := st.Info(spmv.MatrixArray(u, v))
		return err == nil
	}
	if k < 2 || staged(0, 1) && staged(1, 0) {
		return spmv.Layout{}, nil
	}
	layout, err := spmv.DiscoverLayout(k, staged)
	if err != nil {
		return layout, fmt.Errorf("core: %w", err)
	}
	return layout, nil
}

// SpMVResult carries the outcome of an iterated SpMV run.
type SpMVResult struct {
	X     []float64
	Stats *RunStats
}

// RunIteratedSpMV executes Iters power iterations y = A x out-of-core and
// returns the final vector. Matrix blocks must already be staged (via
// StageMatrix + system scan, or LoadMatrixInMemory). A run leaves no array
// behind: the engine reclaims each as its last reader retires and the final
// vector is deleted once read, and a failed run deletes what it created.
func RunIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64) (*SpMVResult, error) {
	return runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{})
}

// RunIteratedSpMVCancel is RunIteratedSpMV with a cancellation channel:
// closing cancel aborts the engine run (Run returns ErrCancelled), and the
// run deletes its arrays before returning, as any failed run does. This is
// the entry point the multi-tenant job layer uses.
func RunIteratedSpMVCancel(sys *System, cfg SpMVConfig, x0 []float64, cancel <-chan struct{}) (*SpMVResult, error) {
	return runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{cancel: cancel})
}

// deleteArrays best-effort deletes the vectors x[first … last] and the
// partials of iterations first+1 … last of cfg's run. Arrays already
// reclaimed, never created, or still leased are skipped silently: callers
// invoke it after the engine run has returned, when no executor holds
// leases.
func deleteArrays(sys *System, cfg SpMVConfig, first, last int) {
	prefix := cfg.prefix()
	for u := 0; u < cfg.K; u++ {
		owner := sys.Store(cfg.OwnerOf(u))
		for t := first; t <= last; t++ {
			_ = owner.Delete(prefix + spmv.VecArray(t, u))
			for v := 0; v < cfg.K && t > first; v++ {
				_ = owner.Delete(prefix + spmv.PartialArray(t, u, v))
			}
		}
	}
}

// DropArray removes one named array from whichever store holds it.
// Best-effort.
func DropArray(sys *System, name string) {
	for node := 0; node < sys.Nodes(); node++ {
		if sys.Store(node).Delete(name) == nil {
			return
		}
	}
}

// RunIteratedSpMVWithAssignment bypasses the affinity scheduler with a
// forced task placement — the data-oblivious baseline of the placement
// ablation.
func RunIteratedSpMVWithAssignment(sys *System, cfg SpMVConfig, x0 []float64, assign map[string]int) error {
	_, err := runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{assignment: assign})
	return err
}

// RunIteratedSpMVKeepAll disables dead-generation reclamation — the
// baseline of the immutable-array memory-management ablation. Transient
// arrays are left resident; the caller inspects storage stats afterwards.
func RunIteratedSpMVKeepAll(sys *System, cfg SpMVConfig, x0 []float64) error {
	_, err := runIteratedSpMV(sys, cfg, 0, x0, spmvRunOpts{keepEphemeral: true})
	return err
}

// spmvRunOpts are the internal knobs behind the ablation and checkpoint
// entry points.
type spmvRunOpts struct {
	assignment    map[string]int
	keepEphemeral bool
	cancel        <-chan struct{}

	// sum, when set, replaces the reduction executor (a checkpointed run's,
	// checkpointSumExecutor).
	sum Executor
}

// runIteratedSpMV runs iterations first+1 … cfg.Iters from x = x[first] as a
// chain of segments (segmentTasks). Every array and task is named by its
// absolute iteration, so segment k+1 starts from x[end] of segment k, which
// stays in storage; only the first segment seeds its x from the driver. On
// error the failing segment's arrays — all the run still holds — are
// deleted.
func runIteratedSpMV(sys *System, cfg SpMVConfig, first int, x []float64, opts spmvRunOpts) (*SpMVResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(x) != cfg.Dim {
		return nil, fmt.Errorf("core: x0 has %d entries, want %d", len(x), cfg.Dim)
	}
	p, err := cfg.Partition()
	if err != nil {
		return nil, err
	}

	// Block (0,0)'s size is every block's scheduling weight.
	a00, err := sys.Store(0).Info(spmv.MatrixArray(0, 0))
	if err != nil {
		return nil, fmt.Errorf("core: matrix block %s not staged: %w", spmv.MatrixArray(0, 0), err)
	}
	layout, err := MatrixLayout(sys, cfg.K)
	if err != nil {
		return nil, err
	}
	pcfg := spmv.ProgramConfig{
		K:        cfg.K,
		SubBytes: a00.Size,
		VecBytes: 8 * int64(p.Size(0)),
		Prefix:   cfg.prefix(),
		Layout:   layout,
	}
	per := max(segmentTasks/cfg.iterTasks(), 1)
	var stats *RunStats
	for pcfg.First = first; pcfg.First < cfg.Iters; pcfg.First += pcfg.Iters {
		pcfg.Iters = min(per, cfg.Iters-pcfg.First)
		seg, err := runSegment(sys, cfg, pcfg, p, x, opts)
		if err != nil {
			deleteArrays(sys, cfg, pcfg.First, pcfg.First+pcfg.Iters)
			return nil, err
		}
		stats = stats.then(seg)
		x = nil
	}

	// Collect the final vector, then retire it (results live in the caller's
	// memory; keeping dead generations would defeat the reclamation story).
	// The result is sized once and each sub-vector decodes straight into its
	// place — no per-chunk staging buffers.
	x = make([]float64, cfg.Dim)
	for u := 0; u < cfg.K; u++ {
		name := pcfg.Prefix + spmv.VecArray(cfg.Iters, u)
		st := sys.Store(cfg.OwnerOf(u))
		if err := st.ReadFloat64s(name, x[p.Start(u):p.Start(u+1)]); err != nil {
			deleteArrays(sys, cfg, cfg.Iters, cfg.Iters)
			return nil, err
		}
		if !opts.keepEphemeral {
			// Best effort: a straggling lease elsewhere just delays
			// reclamation.
			_ = st.Delete(name)
		}
	}
	return &SpMVResult{X: x, Stats: stats}, nil
}

// runSegment runs the iterations of pcfg: it creates their arrays — and,
// when x is not nil, x[First], seeded from x — and runs their program. The
// engine reclaims x[First] and every partial as its last reader retires;
// x[First+Iters] stays for the next segment or the driver.
func runSegment(sys *System, cfg SpMVConfig, pcfg spmv.ProgramConfig, p sparse.GridPartition, x []float64, opts spmvRunOpts) (*RunStats, error) {
	tasks, err := spmv.Program(pcfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	first, last := pcfg.First, pcfg.First+pcfg.Iters
	ephemeral := make(map[string]bool)
	for u := 0; u < cfg.K; u++ {
		sz := int64(8 * p.Size(u))
		owner := sys.Store(cfg.OwnerOf(u))
		for t := first; t <= last; t++ {
			name := pcfg.Prefix + spmv.VecArray(t, u)
			// x[First] is the previous segment's x[last] unless seeded here.
			if t > first || x != nil {
				if err := owner.Create(name, sz, sz); err != nil {
					return nil, err
				}
			}
			if t < last {
				ephemeral[name] = true
			}
		}
		for t := first + 1; t <= last; t++ {
			for v := 0; v < cfg.K; v++ {
				name := pcfg.Prefix + spmv.PartialArray(t, u, v)
				if err := owner.Create(name, sz, sz); err != nil {
					return nil, err
				}
				ephemeral[name] = true
			}
		}
		if x == nil {
			continue
		}
		w, err := owner.RequestBlock(pcfg.Prefix+spmv.VecArray(first, u), 0, storage.PermWrite)
		if err != nil {
			return nil, err
		}
		storage.PutFloat64s(w, x[p.Start(u):p.Start(u+1)])
		w.Release()
	}

	locate := func(r dag.Ref) (int, bool) {
		if u, ok := spmv.OwnerIndex(strings.TrimPrefix(r.Array, pcfg.Prefix)); ok {
			return cfg.OwnerOf(u), true
		}
		return 0, false
	}
	if opts.keepEphemeral {
		ephemeral = nil
	}
	executors := SpMVExecutors()
	if opts.sum != nil {
		executors["sum"] = opts.sum
	}
	spec := RunSpec{
		Tasks:      tasks,
		Executors:  executors,
		Locate:     locate,
		Assignment: opts.assignment,
		Ephemeral:  ephemeral,
		Cancel:     opts.cancel,
		Span:       cfg.Trace,
	}
	if cfg.Trace.Valid() {
		spec.IterOf = spmv.TaskIter
	}
	return sys.Run(spec)
}

// Operator adapts the out-of-core iterated SpMV to the lanczos.Operator
// interface: each Apply is one full DOoC run (program build, affinity
// placement, out-of-core execution) over the staged matrix.
type Operator struct {
	Sys *System
	Cfg SpMVConfig

	calls int
}

// Dim returns the operator dimension.
func (o *Operator) Dim() int { return o.Cfg.Dim }

// Apply computes A x out-of-core.
func (o *Operator) Apply(x []float64) ([]float64, error) {
	cfg := o.Cfg
	cfg.Iters = 1
	cfg.Tag = fmt.Sprintf("%s#%d", o.Cfg.Tag, o.calls)
	o.calls++
	res, err := RunIteratedSpMV(o.Sys, cfg, x)
	if err != nil {
		return nil, err
	}
	return res.X, nil
}

// Calls reports how many SpMV programs the operator has executed.
func (o *Operator) Calls() int { return o.calls }

// SpMVExecutors returns the computing-filter implementations for the
// iterated SpMV program's task kinds.
func SpMVExecutors() map[string]Executor {
	return map[string]Executor{
		"multiply":        execMultiply,
		"multiply-mirror": execMultiply,
		"sum":             execSum,
	}
}

// execMultiply computes the partials of one staged block A[u][v]:
// xp[t][u][v] = A[u][v] * x[t-1][v] for a block of the full grid; for a
// block of a mirrored set (spmv.Program), also xp[t][v][u] = A[u][v]ᵀ *
// x[t-1][u] in the same pass off the diagonal, and on it the product of the
// symmetric block whose triangle is staged. Input vectors are read through
// zero-copy views of their lease bytes and results computed directly into
// the output write leases, so the steady-state multiply moves no vector
// bytes outside the kernel itself. Leases are held for the duration of the
// compute — the view contract ties view lifetime to lease lifetime — and an
// error leaves them to the engine, which abandons what a task did not
// release.
func execMultiply(ctx *ExecContext) error {
	t := ctx.Task
	n := len(t.Outputs)
	if len(t.Inputs) != n+1 || n < 1 || n > 2 || n == 2 && t.Kind != "multiply-mirror" {
		return fmt.Errorf("%s task %s has unexpected shape", t.Kind, t.ID)
	}
	a, err := ctx.Matrix(t.Inputs[0].Array)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", t.Inputs[0].Array, err)
	}
	var (
		ins, outs [2]*storage.Lease
		x, y      [2][]float64
		direct    [2]bool
	)
	for i := 0; i < n; i++ {
		if ins[i], err = ctx.RequestBlock(t.Inputs[1+i].Array, 0, storage.PermRead); err != nil {
			return err
		}
		x[i] = storage.Float64View(ins[i])
	}
	for i := 0; i < n; i++ {
		if outs[i], err = ctx.RequestBlock(t.Outputs[i].Array, 0, storage.PermWrite); err != nil {
			return err
		}
		if y[i], direct[i] = storage.Float64WriteView(outs[i]); !direct[i] {
			y[i] = ctx.scratchFloats(i, len(outs[i].Data)/8)
		}
	}
	switch {
	case n == 2:
		sparse.MulVecPair(a, x[0], x[1], y[0], y[1])
	case t.Kind == "multiply-mirror":
		sparse.MulVecTriangle(a, x[0], y[0])
	default:
		sparse.MulVecRows(a, x[0], y[0], 0, a.Rows)
	}
	for i := 0; i < n; i++ {
		if !direct[i] {
			storage.PutFloat64s(outs[i], y[i])
		}
		outs[i].Release()
		ins[i].Release()
	}
	return nil
}

// execSum computes x[t][u] = Σ_v xp[t][u][v], in input order.
func execSum(ctx *ExecContext) error {
	t := ctx.Task
	if len(t.Outputs) != 1 || len(t.Inputs) == 0 {
		return fmt.Errorf("sum task %s has unexpected shape", t.ID)
	}
	// The accumulator is the output write lease itself: the first partial is
	// copied in, the rest added in place, in task input order.
	out, err := ctx.RequestBlock(t.Outputs[0].Array, 0, storage.PermWrite)
	if err != nil {
		return err
	}
	acc, direct := storage.Float64WriteView(out)
	if !direct {
		acc = ctx.ScratchFloats(len(out.Data) / 8)
	}
	for i, in := range t.Inputs {
		l, err := ctx.RequestBlock(in.Array, 0, storage.PermRead)
		if err != nil {
			out.Abandon()
			return err
		}
		if i == 0 {
			storage.DecodeFloat64sInto(acc, l.Data)
		} else {
			sparse.Sum(acc, storage.Float64View(l))
		}
		l.Release()
	}
	if !direct {
		storage.PutFloat64s(out, acc)
	}
	out.Release()
	return nil
}
