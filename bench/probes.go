package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/dag"
	"dooc/internal/jobstore"
	"dooc/internal/remote"
	"dooc/internal/scheduler"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// Probes time one layer's public function directly, on the workload's own
// matrix and blocks, after the measured window, on an otherwise idle process.
// Each reports the median of its repetitions.

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timeReps runs f reps times and returns the median wall of one call.
func timeReps(reps int, f func()) time.Duration {
	walls := make([]float64, reps)
	for i := range walls {
		start := time.Now()
		f()
		walls[i] = float64(time.Since(start))
	}
	return time.Duration(median(walls))
}

const kernelReps = 9

// kernelProbe times one iteration's worth of kernel calls exactly as the
// engine's computing filters make them — Pool.MulVec at width 1 on each of the
// K x K blocks in turn — in ms: what one iteration cannot go below on one
// thread. It is well above one multiply of the unpartitioned matrix (a
// block row is a quarter as long, so the per-row cost weighs four times more).
func kernelProbe(m *sparse.CSR, k int) (float64, error) {
	o, err := newOracle(m, k)
	if err != nil {
		return 0, err
	}
	x := startVector(m.Cols, 2)
	y := make([]float64, o.part.Size(0))
	pool := sparse.NewPool(1)
	defer pool.Close()
	sweep := func() {
		for u := range o.blocks {
			for v, b := range o.blocks[u] {
				pool.MulVec(b, x[o.part.Start(v):o.part.Start(v+1)], y[:b.Rows])
			}
		}
	}
	sweep()
	return ms(timeReps(kernelReps, sweep)), nil
}

// probeSparse fills the kernel metrics, on the unpartitioned matrix. Bytes are computed from array sizes,
// not measured: 12 per stored entry (value + column index), 8 per row pointer
// and per vector element read or written once. GB is 1e9 bytes.
func probeSparse(l *ledger, m *sparse.CSR) {
	nnz, n := float64(m.NNZ()), float64(m.Rows)
	x, prev := startVector(m.Cols, 2), startVector(m.Cols, 3)
	y := make([]float64, m.Rows)
	narrow, pool := sparse.NewPool(1), sparse.NewPool(machineProcs)
	defer narrow.Close()
	defer pool.Close()
	pool.MulVec(m, x, y) // the stripe plan is built on first use
	poolMs := ms(timeReps(kernelReps, func() { pool.MulVec(m, x, y) }))
	narrowMs := ms(timeReps(kernelReps, func() { narrow.MulVec(m, x, y) }))
	oneThreadMs := ms(timeReps(kernelReps, func() { sparse.MulVec(m, x, y) }))
	bytesMul := 12*nnz + 8*(n+float64(m.Cols))
	flops := 2 * nnz
	l.set("sparse.mulvec_gbps", bytesMul/poolMs/1e6, kernelReps)
	l.set("sparse.mulvec_gflops", flops/poolMs/1e6, kernelReps)
	l.set("sparse.mulvec_1t_gbps", bytesMul/oneThreadMs/1e6, kernelReps)
	l.set("sparse.pool_speedup", narrowMs/poolMs, kernelReps)
	l.set("sparse.flops_per_byte", flops/bytesMul, 0)

	// The fused Lanczos update: the SpMV plus one more pass that reads y, x
	// and prev and writes y.
	pool.MulVecAxpyDot(m, x, prev, 0.5, y)
	fused := ms(timeReps(kernelReps, func() { pool.MulVecAxpyDot(m, x, prev, 0.5, y) }))
	l.set("sparse.fused_axpydot_gbps", (bytesMul+32*n)/fused/1e6, kernelReps)

	stream := streamTriad()
	l.set("sparse.stream_gbps", stream, streamReps)
	l.set("sparse.roofline_frac", (flops/poolMs/1e6)/(stream*flops/bytesMul), 0)
}

const streamReps = 7

// streamTriad measures a[i] = b[i] + s*c[i] over three 32 MB arrays, nproc
// goroutines, in GB/s of the 24 bytes per element the loop names (the write
// allocate of a is not counted). It is the memory roof the kernel is held to,
// measured in the same run on the same noisy machine; the arrays are 12x the
// two L2s and fit the host's shared L3, which is also true of the matrices.
func streamTriad() float64 {
	const n = 4 << 20
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 0.5
	}
	width := machineProcs
	run := func() {
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			lo, hi := n*w/width, n*(w+1)/width
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
	}
	run()
	return 24 * n / float64(timeReps(streamReps, run)) // bytes per ns
}

// probeDecodeCRS times sparse.DecodeCRSBytes on one staged block, the work the
// out-of-core path repeats for every block it reads.
func probeDecodeCRS(l *ledger, raw []byte) error {
	if _, err := sparse.DecodeCRSBytes(raw); err != nil {
		return err
	}
	const reps = 9
	d := timeReps(reps, func() { sparse.DecodeCRSBytes(raw) })
	l.set("sparse.decode_crs_mbps", float64(len(raw))/us(d), reps)
	return nil
}

// probeCompress runs the default codec's adaptive frame over what lanczos-ooc
// moves: one matrix block in its V1 encoding and one basis vector. The ratio
// is over both together.
func probeCompress(l *ledger, block *sparse.CSR, vector []float64) error {
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, block); err != nil {
		return err
	}
	vec := make([]byte, 8*len(vector))
	storage.EncodeFloat64s(vec, vector)
	inputs := [][]byte{buf.Bytes(), vec}
	const reps = 5
	var raw, stored int
	var frames [][]byte
	enc := timeReps(reps, func() {
		raw, stored, frames = 0, 0, frames[:0]
		for _, in := range inputs {
			frame, _ := compress.EncodeAdaptive(compress.Default(), in)
			raw, stored = raw+len(in), stored+len(frame)
			frames = append(frames, frame)
		}
	})
	var decodeErr error
	dec := timeReps(reps, func() {
		for i, f := range frames {
			out, _, err := compress.DecodeFrame(f)
			if err != nil || !bytes.Equal(out, inputs[i]) {
				decodeErr = fmt.Errorf("compress probe: frame %d does not round-trip: %v", i, err)
			}
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	l.set("compress.encode_mbps", float64(raw)/us(enc), reps)
	l.set("compress.decode_mbps", float64(raw)/us(dec), reps)
	l.set("compress.ratio", float64(raw)/float64(stored), 0)
	return nil
}

// probeStorage times the lease path of one node's store: a resident block, the
// same block after Evict (a scratch read), a vector-sized write, and its
// Flush + Evict spill.
func probeStorage(l *ledger, st *storage.Store, matrixArray string, vecBytes int) error {
	read := func() error {
		lease, err := st.RequestBlock(matrixArray, 0, storage.PermRead)
		if err != nil {
			return err
		}
		lease.Release()
		return nil
	}
	info, err := st.Info(matrixArray)
	if err != nil {
		return err
	}
	if err := read(); err != nil {
		return err
	}
	const warmReps, coldReps, writeReps = 200, 11, 40
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	warm := timeReps(warmReps, func() { keep(read()) })
	colds := make([]float64, coldReps)
	for i := range colds {
		keep(st.Evict(matrixArray, 0))
		start := time.Now()
		keep(read())
		colds[i] = float64(time.Since(start))
	}
	cold := time.Duration(median(colds))
	l.set("storage.read_warm_us", us(warm), warmReps)
	l.set("storage.read_cold_us", us(cold), coldReps)
	l.set("storage.read_cold_mbps", float64(info.Size)/us(cold), coldReps)

	payload := make([]byte, vecBytes)
	writes, spills := make([]float64, writeReps), make([]float64, writeReps)
	for i := range writes {
		name := fmt.Sprintf("probe:w%d", i)
		start := time.Now()
		keep(st.WriteArray(name, payload, 0))
		writes[i] = float64(time.Since(start))
		start = time.Now()
		keep(st.Flush(name))
		keep(st.Evict(name, 0))
		spills[i] = float64(time.Since(start))
		keep(st.Delete(name))
	}
	l.set("storage.write_us", median(writes)/1e3, writeReps)
	l.set("storage.spill_mbps", float64(vecBytes)/(median(spills)/1e3), writeReps)
	if probeErr != nil {
		return fmt.Errorf("storage probe: %w", probeErr)
	}
	return nil
}

// probeScheduler times what the engine does once per run before any task
// executes — build the one-iteration program's DAG, place it — and one local
// pick among a node's ready multiplies.
func probeScheduler(l *ledger, k, nodes int, subBytes, vecBytes int64) {
	pcfg := spmv.ProgramConfig{K: k, Iters: 1, SubBytes: subBytes, VecBytes: vecBytes}
	locate := func(r dag.Ref) (int, bool) {
		u, ok := spmv.OwnerIndex(r.Array)
		return u % nodes, ok
	}
	const reps = 101
	builds, places := make([]float64, reps), make([]float64, reps)
	var tasks []*dag.Task
	for i := 0; i < reps; i++ {
		tasks, _ = spmv.Program(pcfg) // pcfg is valid by construction
		start := time.Now()
		dag.Build(tasks)
		builds[i] = float64(time.Since(start))
		start = time.Now()
		scheduler.Affinity(tasks, nodes, locate)
		places[i] = float64(time.Since(start))
	}
	l.set("dag.build_us", median(builds)/1e3, reps)
	l.set("scheduler.affinity_us", median(places)/1e3, reps)

	var ready []*dag.Task
	for _, t := range tasks {
		if t.Kind == "multiply" {
			ready = append(ready, t)
		}
	}
	pol := scheduler.NewPolicy()
	pol.Reorder = true
	resident := func(r dag.Ref) bool { return r.Block%2 == 0 }
	const picks = 2000
	start := time.Now()
	for i := 0; i < picks; i++ {
		pol.Pick(ready, resident)
	}
	l.set("scheduler.pick_ns", float64(time.Since(start).Nanoseconds())/picks, picks)
}

// probeJobstore times Store.Append — frame, write, fsync — on a journal of its
// own under dir.
func probeJobstore(l *ledger, dir string) error {
	st, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		return err
	}
	const reps = 60
	var appendErr error
	now := time.Now()
	id := int64(0)
	d := timeReps(reps, func() {
		id++
		if err := st.Append(jobstore.Record{ID: id, Tenant: "probe", State: "queued", SubmittedAt: now}); err != nil {
			appendErr = err
		}
	})
	if err := st.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	os.RemoveAll(dir)
	l.set("jobstore.append_fsync_us", us(d), reps)
	return appendErr
}

// probeRTT times the smallest round trip the protocol has, a Stats request, on
// an idle connection.
func probeRTT(l *ledger, cl *remote.Client) error {
	const reps = 300
	var rttErr error
	d := timeReps(reps, func() {
		if _, err := cl.Stats(); err != nil {
			rttErr = err
		}
	})
	l.set("remote.rtt_us", us(d), reps)
	return rttErr
}
