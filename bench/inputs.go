package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"dooc/internal/jobs"
	"dooc/internal/sparse"
)

// genMatrix is the paper's generator driven by the run seed: the seed decides
// the sparsity pattern and the values, the program under test sees only the
// result.
func genMatrix(dim, d int, seed int64, symmetric bool) (*sparse.CSR, error) {
	return sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: d, Seed: seed, Symmetric: symmetric})
}

// startVector is the seeded standard-normal vector the job service derives
// from a SolveRequest's seed; every workload starts from it so one oracle
// serves them all.
func startVector(dim int, seed int64) []float64 { return jobs.StartVector(dim, seed) }

// shaFloats hashes a vector in its little-endian wire form.
func shaFloats(x []float64) string {
	sum := sha256.Sum256(jobs.EncodeFloat64s(x))
	return hex.EncodeToString(sum[:])
}

// matrixSHA hashes a matrix's three CSR arrays, for the same-seed-same-input
// check.
func matrixSHA(m *sparse.CSR) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %v %v", m.Rows, m.Cols, m.RowPtr, m.ColIdx)
	h.Write(jobs.EncodeFloat64s(m.Val))
	return hex.EncodeToString(h.Sum(nil))
}

// oracle is the in-core baseline every SpMV answer is held to: a plain
// single-threaded sparse.MulVec loop, no engine, no storage, no goroutines.
//
// It multiplies the K x K blocks one by one and adds the K partial products of
// a block row in ascending column-block order, because that is the summation
// order the program documents (x[t][u] = sum over v of A[u][v] x[t-1][v]) and
// floating-point addition does not associate: the engine's answer is
// bit-identical to this loop, and equal to the unpartitioned product only to
// rounding. newOracle checks that second, looser property too, so a wrong
// block sum cannot hide behind a self-consistent partition.
type oracle struct {
	part   sparse.GridPartition
	blocks [][]*sparse.CSR
	dim    int
}

func newOracle(m *sparse.CSR, k int) (*oracle, error) {
	p, err := sparse.NewGridPartition(m.Rows, k)
	if err != nil {
		return nil, err
	}
	o := &oracle{part: p, dim: m.Rows, blocks: make([][]*sparse.CSR, k)}
	for u := 0; u < k; u++ {
		o.blocks[u] = make([]*sparse.CSR, k)
		for v := 0; v < k; v++ {
			if o.blocks[u][v], err = sparse.Block(m, p, u, v); err != nil {
				return nil, err
			}
		}
	}
	x := startVector(m.Rows, 1)
	whole := make([]float64, m.Rows)
	sparse.MulVec(m, x, whole)
	blocked := o.iterate(x, 1)
	scale := sparse.Norm2(whole)
	for i := range whole {
		if math.Abs(whole[i]-blocked[i]) > 1e-12*scale {
			return nil, fmt.Errorf("oracle: blocked product differs from the unpartitioned one at row %d: %g vs %g", i, blocked[i], whole[i])
		}
	}
	return o, nil
}

// iterate returns A^iters x0.
func (o *oracle) iterate(x0 []float64, iters int) []float64 {
	k := o.part.K
	x := append([]float64(nil), x0...)
	y := make([]float64, o.dim)
	tmp := make([]float64, o.part.Size(0))
	for t := 0; t < iters; t++ {
		for u := 0; u < k; u++ {
			acc := y[o.part.Start(u):o.part.Start(u+1)]
			sparse.MulVec(o.blocks[u][0], x[:o.part.Start(1)], acc)
			for v := 1; v < k; v++ {
				part := tmp[:len(acc)]
				sparse.MulVec(o.blocks[u][v], x[o.part.Start(v):o.part.Start(v+1)], part)
				sparse.Sum(acc, part)
			}
		}
		x, y = y, x
	}
	return x
}
