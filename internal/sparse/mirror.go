package sparse

import "fmt"

// The kernels of a mirrored block set (DESIGN.md, "Mirrored staging"): a
// symmetric matrix is staged as one block of every pair (u,v)/(v,u) and the
// upper triangle of each diagonal block, and one pass over a staged block
// produces what the full grid's gathers over both blocks of the pair would.
//
// They are bit-identical to those gathers because every output element
// receives the same products in the same order, starting from +0: a gather
// folds a row's products in ascending column order, and a scatter visits the
// rows of the staged block — the columns of its mirror — in ascending order
// too. Each keeps the `s += Val[k] * x[c]` shape of mulVecRows, so whatever
// fused-multiply-add contraction the compiler applies there it applies here.
// Rows are never interleaved: two rows scattering into the same element
// would then add in the wrong order.

// MulVecPair computes y = A·x and yt = Aᵀ·xt in one pass over A: the gather
// of the staged block and the scatter that stands in for the gather of its
// mirror. len(x) and len(yt) must be A.Cols, len(xt) and len(y) A.Rows; both
// outputs are fully overwritten, each bit-identical to MulVec over A and over
// A.Transpose().
func MulVecPair(a *CSR, x, xt, y, yt []float64) {
	if len(x) != a.Cols || len(yt) != a.Cols || len(xt) != a.Rows || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecPair shapes: A %dx%d, x %d, xt %d, y %d, yt %d",
			a.Rows, a.Cols, len(x), len(xt), len(y), len(yt)))
	}
	clear(yt)
	switch {
	case !a.gapForm():
		mulVecPairIdx(a, x, xt, y, yt)
	case len(a.Gap16) != 0:
		mulVecPairGap(a, a.Gap16, x, xt, y, yt)
	default:
		mulVecPairGap(a, a.Gap8, x, xt, y, yt)
	}
}

// MulVecTriangle computes y = S·x where S is the symmetric matrix whose
// upper triangle, diagonal included, A holds — a mirrored set's diagonal
// block. Row i gathers on top of what rows above it already scattered into
// y[i], so y[i] sees S's row i in ascending column order: bit-identical to
// MulVec over S. A must be square with no entry below its diagonal; y is
// fully overwritten.
func MulVecTriangle(a *CSR, x, y []float64) {
	if a.Rows != a.Cols || len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecTriangle shapes: A %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	clear(y)
	switch {
	case !a.gapForm():
		mulVecTriangleIdx(a, x, y)
	case len(a.Gap16) != 0:
		mulVecTriangleGap(a, a.Gap16, x, y)
	default:
		mulVecTriangleGap(a, a.Gap8, x, y)
	}
}

func mulVecPairIdx(a *CSR, x, xt, y, yt []float64) {
	rp, ci, vs := a.RowPtr, a.ColIdx, a.Val
	ci = ci[:len(vs)]
	for i := 0; i < a.Rows; i++ {
		s, xi := 0.0, xt[i]
		for k, e := rp[i], rp[i+1]; k < e; k++ {
			c, v := ci[k], vs[k]
			s += v * x[c]
			yt[c] += v * xi
		}
		y[i] = s
	}
}

func mulVecPairGap[G uint8 | uint16](a *CSR, gaps []G, x, xt, y, yt []float64) {
	rp, first, vs := a.RowPtr, a.RowFirst, a.Val
	gaps = gaps[:len(vs)]
	for i := 0; i < a.Rows; i++ {
		c, s, xi := int(first[i]), 0.0, xt[i]
		for k, e := rp[i], rp[i+1]; k < e; k++ {
			c += int(gaps[k])
			v := vs[k]
			s += v * x[c]
			yt[c] += v * xi
		}
		y[i] = s
	}
}

// The triangle kernels take a row's diagonal entry — its first, if it has
// one — on its own: it is its own mirror, so it is gathered and not
// scattered.

func mulVecTriangleIdx(a *CSR, x, y []float64) {
	rp, ci, vs := a.RowPtr, a.ColIdx, a.Val
	ci = ci[:len(vs)]
	for i := 0; i < a.Rows; i++ {
		k, e := rp[i], rp[i+1]
		s, xi := y[i], x[i]
		if k < e && int(ci[k]) == i {
			s += vs[k] * x[i]
			k++
		}
		for ; k < e; k++ {
			c, v := ci[k], vs[k]
			s += v * x[c]
			y[c] += v * xi
		}
		y[i] = s
	}
}

func mulVecTriangleGap[G uint8 | uint16](a *CSR, gaps []G, x, y []float64) {
	rp, first, vs := a.RowPtr, a.RowFirst, a.Val
	gaps = gaps[:len(vs)]
	for i := 0; i < a.Rows; i++ {
		k, e := rp[i], rp[i+1]
		c, s, xi := int(first[i]), y[i], x[i]
		if k < e && c == i {
			s += vs[k] * x[i]
			k++
		}
		for ; k < e; k++ {
			c += int(gaps[k])
			v := vs[k]
			s += v * x[c]
			y[c] += v * xi
		}
		y[i] = s
	}
}

// UpperTriangle returns the entries of m on or above its diagonal — what a
// mirrored set stages for a diagonal block. m must carry ColIdx.
func (m *CSR) UpperTriangle() *CSR {
	return build(splitRows(m, 0, m.Rows, 0, []int{0, m.Cols}).rows(0, true))
}
