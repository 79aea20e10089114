package sparse

import (
	"fmt"
	"sync"
)

// This file is the persistent kernel layer behind the engine's computing
// filters: one instruction-parallel CRS traversal (over column indices or
// over in-row gaps), a striped worker pool that parks between multiplies
// instead of spawning goroutines per call, and fused SpMV+AXPY+dot kernels
// for the in-memory solvers.
//
// Everything here is constrained by bit-identity: the distributed SpMV path
// is validated by hashing its iterates, so a kernel may change the memory
// schedule and the instruction schedule but never the floating-point
// summation order of any row. Three rules follow:
//
//   - each row's products are folded left-to-right in ascending k (multiple
//     accumulators per row are forbidden);
//   - every kernel uses the same `s += Val[k] * x[ColIdx[k]]` expression
//     shape as the reference MulVec, so any fused-multiply-add contraction
//     the compiler performs applies identically everywhere;
//   - reductions across rows (the fused dot) stay one sequential pass in
//     ascending index order — per-stripe partial dots would re-associate the
//     sum.
//
// Row interleaving is the legal instruction-level win: ilpRows rows advance
// together, each with its own dependency chain, so the ~4-cycle latency of
// a chained scalar add no longer bounds throughput — but every chain is
// still one row folded in its own order.

// Pool is a persistent striped worker pool for the CRS kernels. A Pool with
// W workers runs each kernel as W nnz-balanced row stripes: W-1 helper
// goroutines park on a condition variable between calls (no per-call
// spawning) and the dispatching goroutine claims stripes alongside them. A
// nil Pool, or a Pool built with workers <= 1, runs every kernel inline
// with zero synchronization.
//
// A Pool is safe for concurrent use: concurrent kernel calls serialize on
// an internal dispatch lock. The engine holds no Pool: its lanes are a
// node's parallelism, and each multiplies through MulVecRows.
type Pool struct {
	helpers int // parked worker goroutines beyond the dispatcher

	// dispatchMu serializes dispatchers: one kernel call owns the stripe
	// state and scratch below at a time.
	dispatchMu sync.Mutex

	mu        sync.Mutex
	work      *sync.Cond // helpers park here between jobs
	idle      *sync.Cond // the dispatcher waits here for stripe completion
	job       func(stripe int)
	stripes   int
	next      int
	remaining int
	closed    bool

	bounds []int // reused stripe bounds, guarded by dispatchMu
}

// NewPool starts a pool of `workers` stripe workers (the dispatcher
// included); workers <= 1 yields an inline pool with no goroutines.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.work = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	if workers > 1 {
		p.helpers = workers - 1
		for i := 0; i < p.helpers; i++ {
			go p.helper()
		}
	}
	return p
}

// Workers reports the stripe width (1 for a nil pool: the inline path).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.helpers + 1
}

// Close releases the helper goroutines. Safe on a nil pool and idempotent;
// the pool must be idle (no kernel call in flight).
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.work.Broadcast()
}

// helper is one parked stripe worker.
func (p *Pool) helper() {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return
		}
		if p.job != nil && p.next < p.stripes {
			s := p.next
			p.next++
			job := p.job
			p.mu.Unlock()
			job(s)
			p.mu.Lock()
			p.remaining--
			if p.remaining == 0 {
				p.idle.Signal()
			}
			continue
		}
		p.work.Wait()
	}
}

// runStripes executes job(0..stripes-1) across the pool and returns when
// every stripe is done. The dispatcher claims stripes too, so a helper
// stall never idles the calling goroutine. Caller must hold dispatchMu.
func (p *Pool) runStripes(stripes int, job func(int)) {
	if p == nil || p.helpers == 0 || stripes <= 1 {
		for s := 0; s < stripes; s++ {
			job(s)
		}
		return
	}
	p.mu.Lock()
	p.job = job
	p.stripes = stripes
	p.next = 0
	p.remaining = stripes
	p.mu.Unlock()
	p.work.Broadcast()
	for {
		p.mu.Lock()
		s := -1
		if p.next < p.stripes {
			s = p.next
			p.next++
		}
		p.mu.Unlock()
		if s < 0 {
			break
		}
		job(s)
		p.mu.Lock()
		p.remaining--
		p.mu.Unlock()
	}
	p.mu.Lock()
	for p.remaining > 0 {
		p.idle.Wait()
	}
	p.job = nil
	p.mu.Unlock()
}

// MulVec computes y = A*x across the pool's stripes. Bit-identical to the
// sequential MulVec: rows are independent, so striping cannot reorder any
// row's fold.
func (p *Pool) MulVec(a *CSR, x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: Pool.MulVec shapes: A %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	p.mulVec(a, x, y)
}

// mulVec dispatches the traversal without re-checking shapes (fused kernels
// validate once).
func (p *Pool) mulVec(a *CSR, x, y []float64) {
	workers := p.Workers()
	if workers <= 1 || a.Rows < 2*workers {
		mulVecRows(a, x, y, 0, a.Rows)
		return
	}
	p.dispatchMu.Lock()
	p.bounds = nnzBalancedStripesInto(p.bounds, a, workers)
	bounds := p.bounds
	p.runStripes(workers, func(s int) {
		if lo, hi := bounds[s], bounds[s+1]; lo < hi {
			mulVecRows(a, x, y[lo:hi], lo, hi)
		}
	})
	p.dispatchMu.Unlock()
}

// MulVecDot computes y = A*x and returns the inner product y·x in one
// kernel call; A must be square. Bit-identical to MulVec followed by
// Dot(y, x): the SpMV stripes are row-independent and the reduction is one
// sequential pass in ascending index order over the just-written (still
// cache-hot) y — per-stripe partial dots would re-associate the sum and are
// deliberately not used.
func (p *Pool) MulVecDot(a *CSR, x, y []float64) float64 {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecDot shapes: A %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecDot needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	p.mulVec(a, x, y)
	return Dot(y, x)
}

// MulVecAxpyDot runs the Lanczos three-term update as one kernel:
//
//	y = A*x
//	alpha = y·x
//	y -= alpha*x;  if prev != nil, y -= beta*prev
//
// returning alpha. The two AXPYs are applied in a single striped pass over
// y while it is cache-hot, instead of re-streaming the vectors once per
// update. Each element receives exactly the operations of the composed
// sparse.Axpy(-alpha, x, y) then sparse.Axpy(-beta, prev, y) sequence, in
// the same order, so the fusion is bit-identical to the separate passes.
func (p *Pool) MulVecAxpyDot(a *CSR, x, prev []float64, beta float64, y []float64) float64 {
	if prev != nil && len(prev) != len(y) {
		panic(fmt.Sprintf("sparse: MulVecAxpyDot prev length %d, y %d", len(prev), len(y)))
	}
	alpha := p.MulVecDot(a, x, y)
	na, nb := -alpha, -beta
	n := len(y)
	seg := func(lo, hi int) {
		if prev == nil {
			for i := lo; i < hi; i++ {
				y[i] += na * x[i]
			}
			return
		}
		for i := lo; i < hi; i++ {
			y[i] += na * x[i]
			y[i] += nb * prev[i]
		}
	}
	workers := p.Workers()
	if workers <= 1 || n < 2*workers {
		seg(0, n)
		return alpha
	}
	p.dispatchMu.Lock()
	p.runStripes(workers, func(s int) {
		seg(n*s/workers, n*(s+1)/workers)
	})
	p.dispatchMu.Unlock()
	return alpha
}

// MulVecRows computes rows [lo, hi) of A*x into y (length hi-lo), each row
// bit-identical to MulVec — the kernel behind the engine's multiply tasks.
func MulVecRows(a *CSR, x, y []float64, lo, hi int) {
	if lo < 0 || hi > a.Rows || lo > hi || len(x) != a.Cols || len(y) != hi-lo {
		panic(fmt.Sprintf("sparse: MulVecRows shapes: A %dx%d, rows [%d,%d), x %d, y %d",
			a.Rows, a.Cols, lo, hi, len(x), len(y)))
	}
	mulVecRows(a, x, y, lo, hi)
}

// ilpRows is the interleave width of the row-serial kernel: four rows
// advance together, each folding its own products left-to-right, which
// breaks the single-accumulator dependency chain without touching any
// row's summation order.
const ilpRows = 4

// mulVecRows computes rows [lo, hi) of A*x into y (indexed from 0, i.e.
// y[i-lo] = row i). The common prefix of each 4-row group runs interleaved;
// the ragged tails finish per row.
func mulVecRows(a *CSR, x, y []float64, lo, hi int) {
	if a.gapForm() {
		if len(a.Gap16) != 0 {
			mulVecRowsGap(a, a.Gap16, x, y, lo, hi)
		} else {
			mulVecRowsGap(a, a.Gap8, x, y, lo, hi)
		}
		return
	}
	rp, ci, vs := a.RowPtr, a.ColIdx, a.Val
	i := lo
	for ; i+ilpRows <= hi; i += ilpRows {
		k0, k1, k2, k3 := rp[i], rp[i+1], rp[i+2], rp[i+3]
		e0, e1, e2, e3 := rp[i+1], rp[i+2], rp[i+3], rp[i+4]
		var s0, s1, s2, s3 float64
		n := e0 - k0
		if m := e1 - k1; m < n {
			n = m
		}
		if m := e2 - k2; m < n {
			n = m
		}
		if m := e3 - k3; m < n {
			n = m
		}
		for ; n > 0; n-- {
			s0 += vs[k0] * x[ci[k0]]
			s1 += vs[k1] * x[ci[k1]]
			s2 += vs[k2] * x[ci[k2]]
			s3 += vs[k3] * x[ci[k3]]
			k0++
			k1++
			k2++
			k3++
		}
		for ; k0 < e0; k0++ {
			s0 += vs[k0] * x[ci[k0]]
		}
		for ; k1 < e1; k1++ {
			s1 += vs[k1] * x[ci[k1]]
		}
		for ; k2 < e2; k2++ {
			s2 += vs[k2] * x[ci[k2]]
		}
		for ; k3 < e3; k3++ {
			s3 += vs[k3] * x[ci[k3]]
		}
		o := i - lo
		y[o] = s0
		y[o+1] = s1
		y[o+2] = s2
		y[o+3] = s3
	}
	for ; i < hi; i++ {
		var s float64
		for k, e := rp[i], rp[i+1]; k < e; k++ {
			s += vs[k] * x[ci[k]]
		}
		y[i-lo] = s
	}
}

// mulVecRowsGap is mulVecRows over a matrix in gap form: each row's running
// column is carried beside its accumulator and advanced by the entry's gap
// before the load it indexes. Every row still folds `s += Val[k] * x[column
// of k]` left to right in ascending k, so the result is bit-identical to
// mulVecRows over the materialised indices.
//
// Three rows advance together, not ilpRows: a row here costs a cursor, a
// column and a sum, and amd64 has thirteen integer registers to give — with
// four rows the compiler keeps the loop counter and two base pointers on the
// stack and reloads them every pass. The common prefix runs four entries to a
// pass, which spares three of four cursor updates and limit checks (together
// 10–17 % under the int32 kernel on a 750-column block of 94 entries a row,
// L2-hot, where the four-row form ran 8–14 % over it); what is left of it
// runs one entry to a pass, so rows shorter than four still interleave; the
// ragged tails finish per row.
func mulVecRowsGap[G uint8 | uint16](a *CSR, gaps []G, x, y []float64, lo, hi int) {
	rp, first, vs := a.RowPtr, a.RowFirst, a.Val
	// One gap per value: said this way, the bounds check on gaps[k] covers
	// vs[k].
	gaps = gaps[:len(vs)]
	i := lo
	for ; i+3 <= hi; i += 3 {
		k0, k1, k2 := rp[i], rp[i+1], rp[i+2]
		e0, e1, e2 := rp[i+1], rp[i+2], rp[i+3]
		c0, c1, c2 := int(first[i]), int(first[i+1]), int(first[i+2])
		var s0, s1, s2 float64
		n := min(e0-k0, e1-k1, e2-k2)
		for lim := k0 + n&^3; k0 < lim; k0, k1, k2 = k0+4, k1+4, k2+4 {
			c0, c1, c2 = c0+int(gaps[k0]), c1+int(gaps[k1]), c2+int(gaps[k2])
			s0, s1, s2 = s0+vs[k0]*x[c0], s1+vs[k1]*x[c1], s2+vs[k2]*x[c2]
			c0, c1, c2 = c0+int(gaps[k0+1]), c1+int(gaps[k1+1]), c2+int(gaps[k2+1])
			s0, s1, s2 = s0+vs[k0+1]*x[c0], s1+vs[k1+1]*x[c1], s2+vs[k2+1]*x[c2]
			c0, c1, c2 = c0+int(gaps[k0+2]), c1+int(gaps[k1+2]), c2+int(gaps[k2+2])
			s0, s1, s2 = s0+vs[k0+2]*x[c0], s1+vs[k1+2]*x[c1], s2+vs[k2+2]*x[c2]
			c0, c1, c2 = c0+int(gaps[k0+3]), c1+int(gaps[k1+3]), c2+int(gaps[k2+3])
			s0, s1, s2 = s0+vs[k0+3]*x[c0], s1+vs[k1+3]*x[c1], s2+vs[k2+3]*x[c2]
		}
		for lim := k0 + n&3; k0 < lim; k0, k1, k2 = k0+1, k1+1, k2+1 {
			c0, c1, c2 = c0+int(gaps[k0]), c1+int(gaps[k1]), c2+int(gaps[k2])
			s0, s1, s2 = s0+vs[k0]*x[c0], s1+vs[k1]*x[c1], s2+vs[k2]*x[c2]
		}
		for ; k0 < e0; k0++ {
			c0 += int(gaps[k0])
			s0 += vs[k0] * x[c0]
		}
		for ; k1 < e1; k1++ {
			c1 += int(gaps[k1])
			s1 += vs[k1] * x[c1]
		}
		for ; k2 < e2; k2++ {
			c2 += int(gaps[k2])
			s2 += vs[k2] * x[c2]
		}
		o := i - lo
		y[o], y[o+1], y[o+2] = s0, s1, s2
	}
	for ; i < hi; i++ {
		c, s := int(first[i]), 0.0
		for k, e := rp[i], rp[i+1]; k < e; k++ {
			c += int(gaps[k])
			s += vs[k] * x[c]
		}
		y[i-lo] = s
	}
}
