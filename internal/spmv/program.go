// Package spmv builds the iterated sparse matrix-vector multiplication task
// program of the paper's Section IV: the matrix is partitioned into a K×K
// grid of sub-matrices; iteration t computes intermediate products
// x[t][u][v] = A[u][v] * x[t-1][v] followed by reductions
// x[t][u] = Σ_v x[t][u][v]. The resulting task list (Fig. 3) and its derived
// dependency DAG (Fig. 4) are consumed by the DOoC engine for real
// execution and by the schedule simulator for plan studies.
package spmv

import (
	"fmt"
	"strconv"

	"dooc/internal/dag"
)

// ProgramConfig sizes the generated task program.
type ProgramConfig struct {
	// K is the grid order: K×K sub-matrices, K sub-vector parts.
	K int
	// Iters is the number of SpMV iterations.
	Iters int
	// SubBytes is the size of one sub-matrix block (the heavy, cache-driving
	// datum).
	SubBytes int64
	// VecBytes is the size of one sub-vector part.
	VecBytes int64
	// FlopsPerMult estimates one sub-matrix multiply (2*nnz of the block).
	FlopsPerMult float64
	// Prefix namespaces the vector and partial arrays of this program run,
	// so repeated programs (e.g. successive Lanczos steps) over the same
	// matrix never collide. Matrix array names are never prefixed: the
	// matrix is shared across runs.
	Prefix string
	// SplitWays, when > 1, splits every multiply into that many sub-tasks
	// over disjoint row ranges of its output — the paper's local-scheduler
	// task decomposition ("splits them (if possible) to match the
	// parallelism available on the node"). Each sub-task writes its row
	// range through an interval write lease on the shared partial array.
	// A mirrored Layout refuses it (ErrMirroredSplit).
	SplitWays int
	// Layout says which blocks are staged; the zero Layout is all K².
	Layout Layout
}

// Naming helpers shared by the engine, the simulator, and the benches.

// MatrixRef returns the heavy datum for sub-matrix A[u][v].
func (c ProgramConfig) MatrixRef(u, v int) dag.Ref {
	return dag.Ref{Array: MatrixArray(u, v), Block: 0, Bytes: c.SubBytes}
}

// VecRef returns the datum for sub-vector part u of iteration t
// (t == 0 is the seed vector).
func (c ProgramConfig) VecRef(t, u int) dag.Ref {
	return dag.Ref{Array: c.Prefix + VecArray(t, u), Block: 0, Bytes: c.VecBytes}
}

// PartialRef returns the datum for intermediate product x[t][u][v].
func (c ProgramConfig) PartialRef(t, u, v int) dag.Ref {
	return dag.Ref{Array: c.Prefix + PartialArray(t, u, v), Block: 0, Bytes: c.VecBytes}
}

// MatrixArray names the storage array holding A[u][v].
func MatrixArray(u, v int) string {
	b := make([]byte, 0, 12)
	b = append(b, 'A', '_')
	b = appendPad3(b, u)
	b = append(b, '_')
	b = appendPad3(b, v)
	return string(b)
}

// VecArray names the storage array holding x[t][u].
func VecArray(t, u int) string {
	b := make([]byte, 0, 16)
	b = append(b, 'x', '_')
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(u), 10)
	return string(b)
}

// PartialArray names the storage array holding x[t][u][v].
func PartialArray(t, u, v int) string {
	b := make([]byte, 0, 20)
	b = append(b, 'x', 'p', '_')
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(v), 10)
	return string(b)
}

// PartialPartRef returns the datum for row-part p of intermediate product
// x[t][u][v] under a ways-way split.
func (c ProgramConfig) PartialPartRef(t, u, v, p, ways int) dag.Ref {
	return dag.Ref{
		Array: c.Prefix + PartialArray(t, u, v),
		Block: 0,
		Part:  p + 1, // Part 0 means "undivided"
		Bytes: c.VecBytes / int64(ways),
	}
}

// MultTaskID and ReduceTaskID name the generated tasks.
func MultTaskID(t, u, v int) string {
	b := make([]byte, 0, 24)
	b = append(b, "mult:"...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(v), 10)
	return string(b)
}

// MultPartTaskID names row-part p (of `ways`) of a split multiply.
func MultPartTaskID(t, u, v, p, ways int) string {
	b := make([]byte, 0, 32)
	b = append(b, MultTaskID(t, u, v)...)
	b = append(b, ":part"...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(ways), 10)
	return string(b)
}

// ParseMultPart recovers (t, u, v, p, ways) from a split-multiply task ID.
func ParseMultPart(id string) (t, u, v, p, ways int, err error) {
	bad := func() (int, int, int, int, int, error) {
		return 0, 0, 0, 0, 0, fmt.Errorf("spmv: bad split-multiply id %q", id)
	}
	rest, ok := cutPrefix(id, "mult:")
	if !ok {
		return bad()
	}
	if t, rest, ok = parseIntSep(rest, ':'); !ok {
		return bad()
	}
	if u, rest, ok = parseIntSep(rest, ':'); !ok {
		return bad()
	}
	if v, rest, ok = parseIntSep(rest, ':'); !ok {
		return bad()
	}
	if rest, ok = cutPrefix(rest, "part"); !ok {
		return bad()
	}
	if p, rest, ok = parseIntSep(rest, '/'); !ok {
		return bad()
	}
	if ways, rest, ok = parseIntSep(rest, 0); !ok || rest != "" {
		return bad()
	}
	return t, u, v, p, ways, nil
}

// ReduceTaskID names the reduction producing x[t][u].
func ReduceTaskID(t, u int) string {
	b := make([]byte, 0, 20)
	b = append(b, "reduce:"...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(u), 10)
	return string(b)
}

// Program emits the task list for cfg: one multiply per staged block and K
// reductions per iteration. Over the full grid at K=3 this is the paper's
// Fig. 3 command list — 9 sub-matrix multiplications per iteration plus the
// reductions (the paper counts "6 sub-vector additions" because each K-way
// reduction is K-1 binary adds).
//
// Over a mirrored layout a multiply has kind "multiply-mirror". Off the
// diagonal it reads its block and both vector parts and writes two partials,
// x[t][u][v] and x[t][v][u]; on it, one partial from the block's triangle.
// Every partial still lives under its own name and every reduction sums the
// same K of them in the same order, so only the multiplies change.
func Program(cfg ProgramConfig) ([]*dag.Task, error) {
	if cfg.K <= 0 || cfg.Iters <= 0 {
		return nil, fmt.Errorf("spmv: invalid program K=%d iters=%d", cfg.K, cfg.Iters)
	}
	ways := cfg.SplitWays
	if ways < 1 {
		ways = 1
	}
	mirrored := cfg.Layout.Mirrored()
	if mirrored && cfg.Layout.k != cfg.K {
		return nil, fmt.Errorf("spmv: a %d×%d layout for a K=%d program", cfg.Layout.k, cfg.Layout.k, cfg.K)
	}
	if mirrored && ways > 1 {
		return nil, ErrMirroredSplit
	}
	// Tasks and refs come from two exactly-sized backing arrays: per
	// iteration one multiply per staged block and row part (4 refs each, 6
	// for a mirrored pair) and K reductions (K*ways inputs + 1 output each).
	// The capacities must be exact — task pointers and ref sub-slices alias
	// the backing arrays, so growth would strand earlier entries.
	staged, pairs := cfg.K*cfg.K, 0
	if mirrored {
		pairs = cfg.K * (cfg.K - 1) / 2
		staged = cfg.K + pairs
	}
	nTasks := cfg.Iters * (staged*ways + cfg.K)
	nRefs := cfg.Iters * (staged*ways*4 + pairs*2 + cfg.K*(cfg.K*ways+1))
	taskBuf := make([]dag.Task, 0, nTasks)
	refs := make([]dag.Ref, 0, nRefs)
	tasks := make([]*dag.Task, 0, nTasks)
	cut := func(start int) []dag.Ref { return refs[start:len(refs):len(refs)] }
	// Each distinct array name is built exactly once: every name is
	// referenced several times per build (a matrix block 2×ways×Iters
	// times), and the prefix concatenation in the Ref helpers would
	// otherwise re-allocate the same strings throughout the loop.
	matNames := make([]string, cfg.K*cfg.K)
	for u := 0; u < cfg.K; u++ {
		for v := 0; v < cfg.K; v++ {
			matNames[u*cfg.K+v] = MatrixArray(u, v)
		}
	}
	vecNames := make([]string, (cfg.Iters+1)*cfg.K)
	for t := 0; t <= cfg.Iters; t++ {
		for u := 0; u < cfg.K; u++ {
			vecNames[t*cfg.K+u] = cfg.Prefix + VecArray(t, u)
		}
	}
	partNames := make([]string, cfg.Iters*cfg.K*cfg.K)
	for t := 1; t <= cfg.Iters; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				partNames[((t-1)*cfg.K+u)*cfg.K+v] = cfg.Prefix + PartialArray(t, u, v)
			}
		}
	}
	matRef := func(u, v int) dag.Ref {
		return dag.Ref{Array: matNames[u*cfg.K+v], Block: 0, Bytes: cfg.SubBytes}
	}
	vecRef := func(t, u int) dag.Ref {
		return dag.Ref{Array: vecNames[t*cfg.K+u], Block: 0, Bytes: cfg.VecBytes}
	}
	// partRef is row part p of partial x[t][u][v]; Part 0 means undivided.
	partRef := func(t, u, v, p int) dag.Ref {
		r := dag.Ref{Array: partNames[((t-1)*cfg.K+u)*cfg.K+v], Block: 0, Bytes: cfg.VecBytes}
		if ways > 1 {
			r.Part, r.Bytes = p+1, cfg.VecBytes/int64(ways)
		}
		return r
	}
	for t := 1; t <= cfg.Iters; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				if !cfg.Layout.Staged(u, v) {
					continue
				}
				pair := mirrored && u != v
				for p := 0; p < ways; p++ {
					s := len(refs)
					refs = append(refs, matRef(u, v), vecRef(t-1, v))
					if pair {
						refs = append(refs, vecRef(t-1, u))
					}
					in := cut(s)
					s = len(refs)
					refs = append(refs, partRef(t, u, v, p))
					if pair {
						refs = append(refs, partRef(t, v, u, p))
					}
					out := cut(s)
					s = len(refs)
					refs = append(refs, matRef(u, v))
					heavy := cut(s)
					task := dag.Task{
						ID:      MultTaskID(t, u, v),
						Kind:    "multiply",
						Inputs:  in,
						Outputs: out,
						Heavy:   heavy,
						Flops:   cfg.FlopsPerMult,
					}
					switch {
					case ways > 1:
						task.ID, task.Kind = MultPartTaskID(t, u, v, p, ways), "multiply-part"
						task.Flops /= float64(ways)
					case mirrored:
						task.Kind = "multiply-mirror"
						if pair {
							task.Flops *= 2
						}
					}
					taskBuf = append(taskBuf, task)
					tasks = append(tasks, &taskBuf[len(taskBuf)-1])
				}
			}
		}
		for u := 0; u < cfg.K; u++ {
			s := len(refs)
			for v := 0; v < cfg.K; v++ {
				for p := 0; p < ways; p++ {
					refs = append(refs, partRef(t, u, v, p))
				}
			}
			in := cut(s)
			s = len(refs)
			refs = append(refs, vecRef(t, u))
			out := cut(s)
			taskBuf = append(taskBuf, dag.Task{
				ID:      ReduceTaskID(t, u),
				Kind:    "sum",
				Inputs:  in,
				Outputs: out,
				Heavy:   refs[len(refs):len(refs):len(refs)], // explicitly empty: vector parts should not drive cache policy
				Flops:   float64(cfg.K) * float64(cfg.VecBytes) / 8,
			})
			tasks = append(tasks, &taskBuf[len(taskBuf)-1])
		}
	}
	return tasks, nil
}

// RowAssignment places mult(t,u,v) and reduce(t,u) on node u — the paper's
// Fig. 5 ownership, where node u hosts sub-matrix row u and reduces its own
// output part. K must equal the node count.
func RowAssignment(cfg ProgramConfig) map[string]int {
	assign := make(map[string]int)
	ways := cfg.SplitWays
	if ways < 1 {
		ways = 1
	}
	for t := 1; t <= cfg.Iters; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				if !cfg.Layout.Staged(u, v) {
					continue
				}
				if ways == 1 {
					assign[MultTaskID(t, u, v)] = u
					continue
				}
				for p := 0; p < ways; p++ {
					assign[MultPartTaskID(t, u, v, p, ways)] = u
				}
			}
			assign[ReduceTaskID(t, u)] = u
		}
	}
	return assign
}

// Graph builds the derived DAG for cfg (convenience).
func Graph(cfg ProgramConfig) (*dag.Graph, error) {
	tasks, err := Program(cfg)
	if err != nil {
		return nil, err
	}
	return dag.Build(tasks)
}
