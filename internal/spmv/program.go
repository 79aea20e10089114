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
	// First is the iteration the program starts from: it reads x[First] and
	// computes iterations First+1 … First+Iters, every array and task named
	// by its absolute iteration, so consecutive programs chain through
	// x[First+Iters].
	First int
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
	// Layout says which blocks are staged; the zero Layout is all K².
	Layout Layout
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
	if cfg.K <= 0 || cfg.Iters <= 0 || cfg.First < 0 {
		return nil, fmt.Errorf("spmv: invalid program K=%d iters=%d first=%d", cfg.K, cfg.Iters, cfg.First)
	}
	mirrored := cfg.Layout.Mirrored()
	if mirrored && cfg.Layout.k != cfg.K {
		return nil, fmt.Errorf("spmv: a %d×%d layout for a K=%d program", cfg.Layout.k, cfg.Layout.k, cfg.K)
	}
	// Tasks and refs come from two exactly-sized backing arrays: per
	// iteration one multiply per staged block (4 refs each, 6 for a mirrored
	// pair) and K reductions (K inputs + 1 output each).
	// The capacities must be exact — task pointers and ref sub-slices alias
	// the backing arrays, so growth would strand earlier entries.
	staged, pairs := cfg.K*cfg.K, 0
	if mirrored {
		pairs = cfg.K * (cfg.K - 1) / 2
		staged = cfg.K + pairs
	}
	nTasks := cfg.Iters * (staged + cfg.K)
	nRefs := cfg.Iters * (staged*4 + pairs*2 + cfg.K*(cfg.K+1))
	taskBuf := make([]dag.Task, 0, nTasks)
	refs := make([]dag.Ref, 0, nRefs)
	tasks := make([]*dag.Task, 0, nTasks)
	cut := func(start int) []dag.Ref { return refs[start:len(refs):len(refs)] }
	// Each distinct array name is built exactly once: every name is
	// referenced several times per build (a matrix block 2×Iters times), and
	// the prefix concatenation in the Ref helpers would otherwise re-allocate
	// the same strings throughout the loop.
	matNames := make([]string, cfg.K*cfg.K)
	for u := 0; u < cfg.K; u++ {
		for v := 0; v < cfg.K; v++ {
			matNames[u*cfg.K+v] = MatrixArray(u, v)
		}
	}
	first, last := cfg.First, cfg.First+cfg.Iters
	vecNames := make([]string, (cfg.Iters+1)*cfg.K)
	for t := first; t <= last; t++ {
		for u := 0; u < cfg.K; u++ {
			vecNames[(t-first)*cfg.K+u] = cfg.Prefix + VecArray(t, u)
		}
	}
	partNames := make([]string, cfg.Iters*cfg.K*cfg.K)
	for t := first + 1; t <= last; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				partNames[((t-first-1)*cfg.K+u)*cfg.K+v] = cfg.Prefix + PartialArray(t, u, v)
			}
		}
	}
	matRef := func(u, v int) dag.Ref {
		return dag.Ref{Array: matNames[u*cfg.K+v], Block: 0, Bytes: cfg.SubBytes}
	}
	vecRef := func(t, u int) dag.Ref {
		return dag.Ref{Array: vecNames[(t-first)*cfg.K+u], Block: 0, Bytes: cfg.VecBytes}
	}
	partRef := func(t, u, v int) dag.Ref {
		return dag.Ref{Array: partNames[((t-first-1)*cfg.K+u)*cfg.K+v], Block: 0, Bytes: cfg.VecBytes}
	}
	for t := first + 1; t <= last; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				if !cfg.Layout.Staged(u, v) {
					continue
				}
				pair := mirrored && u != v
				s := len(refs)
				refs = append(refs, matRef(u, v), vecRef(t-1, v))
				if pair {
					refs = append(refs, vecRef(t-1, u))
				}
				in := cut(s)
				s = len(refs)
				refs = append(refs, partRef(t, u, v))
				if pair {
					refs = append(refs, partRef(t, v, u))
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
				if mirrored {
					task.Kind = "multiply-mirror"
					if pair {
						task.Flops *= 2
					}
				}
				taskBuf = append(taskBuf, task)
				tasks = append(tasks, &taskBuf[len(taskBuf)-1])
			}
		}
		for u := 0; u < cfg.K; u++ {
			s := len(refs)
			for v := 0; v < cfg.K; v++ {
				refs = append(refs, partRef(t, u, v))
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
	for t := cfg.First + 1; t <= cfg.First+cfg.Iters; t++ {
		for u := 0; u < cfg.K; u++ {
			for v := 0; v < cfg.K; v++ {
				if cfg.Layout.Staged(u, v) {
					assign[MultTaskID(t, u, v)] = u
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
