package sparse

import (
	"fmt"
	"math"
	"sort"
)

// MulVec computes y = A*x sequentially. len(x) must be A.Cols and len(y)
// must be A.Rows; y is fully overwritten.
func MulVec(a *CSR, x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec shapes: A %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// MulVecAdd computes y += A*x sequentially.
func MulVecAdd(a *CSR, x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecAdd shapes: A %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		sum := y[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// nnzBalancedStripesInto returns workers+1 row boundaries such that each
// stripe holds roughly nnz/workers stored entries, reusing dst when it has
// capacity. Boundaries are located by binary search over the cumulative
// RowPtr — O(workers·log rows) instead of rescanning rows per worker. On
// pathological skew (e.g. one dense row holding most of the matrix) leading
// or trailing stripes may be empty; callers skip any stripe with lo >= hi.
func nnzBalancedStripesInto(dst []int, a *CSR, workers int) []int {
	if cap(dst) < workers+1 {
		dst = make([]int, workers+1)
	}
	bounds := dst[:workers+1]
	bounds[0] = 0
	bounds[workers] = a.Rows
	total := a.NNZ()
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		row := sort.Search(a.Rows, func(r int) bool { return a.RowPtr[r] >= target })
		if row < bounds[w-1] {
			row = bounds[w-1]
		}
		bounds[w] = row
	}
	return bounds
}

// Vector helpers used by the solvers and reduction tasks.

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Axpy lengths %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Dot returns x · y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sparse: Dot lengths %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Two-pass scaling is overkill for our well-scaled iterates; plain
	// sum-of-squares keeps summation order identical to the distributed path.
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sum accumulates src into dst element-wise (dst += src), the paper's
// sub-vector reduction operation.
func Sum(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("sparse: Sum lengths %d vs %d", len(dst), len(src)))
	}
	for i := range src {
		dst[i] += src[i]
	}
}
