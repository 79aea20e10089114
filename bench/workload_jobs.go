package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/jobstore"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/remote"
)

const (
	// jobClients is the closed loop's width: each client owns one connection
	// and sends its next job only when the previous one has answered, like
	// doocrun. It never exceeds nproc.
	jobClients  = 2
	itersPerJob = 4
	jobSeeds    = 8 // distinct start vectors; each has one oracle answer
	warmJobs    = 8 // per client in set-up, both kinds: enough that set-up time is not one fsync's luck
	rxSeries    = "dooc_remote_client_bytes_in_total"
)

// jobsRunner is the service path in one process: a remote server on loopback
// in front of a durable jobs.SolverService with a proxy registry, driven by
// jobClients closed-loop remote clients that alternate between collecting the
// result by value and by reference.
type jobsRunner struct {
	engine
	storeDir string
	store    *jobstore.Store
	proxies  *proxy.Registry
	svc      *jobs.SolverService
	srv      *remote.Server
	clients  []*remote.Client
	clientRx []*obs.Registry // per client; the traced run only

	seeds []int64
	refs  map[int64][]byte
	done  []int // jobs started so far, per client

	mu  sync.Mutex // guards obs and the measurement under way: the clients report into both
	obs jobObservations
}

// jobObservations are the traced run's per-job readings.
type jobObservations struct {
	submitMs, queueMs, runMs, resultMs, resolveMs []float64
	resolveBytes                                  float64
	rxByValue, rxByRef                            []float64
	walBytes, walLast                             int64
}

func newJobsWire(c *runConfig) runner {
	p := engineParams{dim: 10000, d: 128, k: 2, nodes: 1, workers: 1}
	if c.short {
		p.dim = 2000
	}
	return &jobsRunner{engine: engine{c: c, p: p}, done: make([]int, jobClients)}
}

func (r *jobsRunner) setup(traced bool) error {
	r.begin(traced)
	m, err := genMatrix(r.p.dim, r.p.d, r.c.seed, false)
	if err != nil {
		return err
	}
	r.m, r.nnzN = m, m.NNZ()
	r.staged.Bytes = m.Bytes()
	r.cfg = core.SpMVConfig{Dim: r.p.dim, K: r.p.k, Nodes: r.p.nodes, Iters: 1}
	sp := r.c.rec.start(r.span, -1, "core", "NewSystem")
	r.sys, err = core.NewSystem(core.Options{Nodes: r.p.nodes, WorkersPerNode: r.p.workers, DecodeCacheBytes: 2 * m.Bytes(), Seed: r.c.seed, Obs: r.reg})
	sp.end()
	if err != nil {
		return err
	}
	r.budget = 1 << 30 // core.Options' default
	sp = r.c.rec.start(r.span, -1, "core", "stage")
	err = core.LoadMatrixInMemory(r.sys, m, r.cfg)
	sp.end()
	if err != nil {
		return err
	}
	if r.storeDir, err = os.MkdirTemp(r.c.scratch, "journal-"); err != nil {
		return err
	}
	if r.store, err = jobstore.Open(r.storeDir, jobstore.Options{Obs: r.reg}); err != nil {
		return err
	}
	sys := r.sys
	r.proxies = proxy.NewRegistry(proxy.Config{Store: r.store, Scope: "bench", Obs: r.reg,
		OnReclaim: func(_ proxy.Handle, arrays []string) {
			for _, a := range arrays {
				core.DropArray(sys, a)
			}
		}})
	r.svc = jobs.NewSolverService(r.sys, r.cfg, jobs.Config{MaxRunning: jobClients, QueueDepth: 64, Proxy: r.proxies, Store: r.store, Obs: r.reg})
	if r.srv, err = remote.ListenOptions(r.sys.Store(0), "127.0.0.1:0", remote.ServerOptions{Jobs: r.svc, Obs: r.reg}); err != nil {
		return err
	}
	for i := 0; i < jobClients; i++ {
		var rx *obs.Registry
		if traced {
			rx = obs.NewRegistry()
		}
		cl, err := remote.DialOptions(r.srv.Addr(), remote.Options{Handshake: true, Obs: rx})
		if err != nil {
			return err
		}
		r.clients, r.clientRx = append(r.clients, cl), append(r.clientRx, rx)
	}
	r.seeds = make([]int64, jobSeeds)
	for i := range r.seeds {
		r.seeds[i] = r.c.seed*1000 + int64(i)
	}
	for ci := range r.clients {
		for n := 0; n < warmJobs; n++ {
			if _, err := r.job(ci, noSpan, false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	r.span.end()
	return nil
}

func (r *jobsRunner) oracle(keep bool) error {
	o, err := newOracle(r.m, r.p.k)
	if err != nil {
		return err
	}
	r.refs = make(map[int64][]byte, len(r.seeds))
	for _, s := range r.seeds {
		r.refs[s] = jobs.EncodeFloat64s(o.iterate(jobs.StartVector(r.p.dim, s), itersPerJob))
	}
	if !keep {
		r.m = nil
	}
	return nil
}

func (r *jobsRunner) describe() string {
	return fmt.Sprintf("%s: dim %d, %d nnz, CSR %.1f MB loaded in memory and kept decoded; %d closed-loop clients, %d iterations per job, by value and by reference alternating",
		r.c.workload.Name, r.p.dim, r.nnzN, float64(r.staged.Bytes)/1e6, jobClients, itersPerJob)
}

// job is one unit of work for client ci: submit, then collect the result by
// value (JobResult) or by reference (JobProxy, ResolveProxy), then drop the
// result's handle. It returns the client-observed interval from submit to
// result bytes in hand; dropping the handle comes after.
func (r *jobsRunner) job(ci int, parent openSpan, observe bool) (interval, error) {
	n := r.done[ci]
	r.done[ci]++
	byRef := (n+ci)%2 == 1
	seed := r.seeds[(n*jobClients+ci)%len(r.seeds)]
	cl, rec, run := r.clients[ci], r.c.rec, ci*1_000_000+n
	rx0 := r.clientRx[ci].Sum(rxSeries)

	top := rec.start(parent, run, "bench", "job")
	defer top.end()
	start := time.Now()
	sp := rec.start(top, run, "remote", "SubmitJob")
	st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: fmt.Sprintf("client%d", ci), Iters: itersPerJob, Seed: seed})
	sp.end()
	submitted := time.Since(start)
	if err != nil {
		return interval{}, fmt.Errorf("submit: %w", err)
	}
	var (
		data    []byte
		final   jobs.JobStatus
		ref     proxy.Ref
		resolve time.Duration
	)
	if byRef {
		sp = rec.start(top, run, "remote", "JobProxy")
		h, fin, err := cl.JobProxy(st.ID)
		sp.end()
		if err != nil {
			return interval{}, fmt.Errorf("job %d proxy: %w", st.ID, err)
		}
		final, ref = fin, h.Ref()
		sp = rec.start(top, run, "proxy", "ResolveProxy")
		t := time.Now()
		data, _, err = cl.ResolveProxy(ref)
		resolve = time.Since(t)
		sp.end()
		if err != nil {
			return interval{}, fmt.Errorf("job %d resolve: %w", st.ID, err)
		}
	} else {
		sp = rec.start(top, run, "remote", "JobResult")
		data, final, err = cl.JobResult(st.ID)
		sp.end()
		if err != nil {
			return interval{}, fmt.Errorf("job %d result: %w", st.ID, err)
		}
		if ref, err = proxy.ParseRef(final.Proxy); err != nil {
			return interval{}, fmt.Errorf("job %d: no handle to drop: %w", st.ID, err)
		}
	}
	inHand := time.Now()
	if final.State != "done" {
		return interval{}, fmt.Errorf("job %d finished %s: %s", st.ID, final.State, final.Err)
	}
	rx := float64(r.clientRx[ci].Sum(rxSeries) - rx0)
	sp = rec.start(top, run, "proxy", "ProxyRelease")
	_, err = cl.ProxyRelease(ref, "")
	sp.end()
	if err != nil {
		return interval{}, fmt.Errorf("job %d release: %w", st.ID, err)
	}
	// The warm-up jobs of set-up run before the oracle has answers.
	if r.refs != nil && !bytes.Equal(data, r.refs[seed]) {
		return interval{}, fmt.Errorf("job %d (seed %d, by reference %v): result differs from the oracle", st.ID, seed, byRef)
	}
	if observe {
		r.observe(byRef, submitted, final, inHand, resolve, len(data), rx)
	}
	return interval{start, inHand}, nil
}

func (r *jobsRunner) observe(byRef bool, submitted time.Duration, final jobs.JobStatus, inHand time.Time, resolve time.Duration, size int, rx float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := &r.obs
	o.submitMs = append(o.submitMs, ms(submitted))
	o.queueMs = append(o.queueMs, final.QueueWait*1e3)
	o.runMs = append(o.runMs, ms(final.FinishedAt.Sub(final.StartedAt)))
	if byRef {
		o.resolveMs = append(o.resolveMs, ms(resolve))
		o.resolveBytes += float64(size)
		o.rxByRef = append(o.rxByRef, rx)
	} else {
		// Server and client share this process's clock, so "finished" on the
		// one and "in hand" on the other are comparable.
		o.resultMs = append(o.resultMs, ms(inHand.Sub(final.FinishedAt)))
		o.rxByValue = append(o.rxByValue, rx)
	}
	// The journal grows per record and shrinks when it is compacted into the
	// snapshot; count growth, and after a compaction what has been rewritten.
	if fi, err := os.Stat(filepath.Join(r.storeDir, "wal.log")); err == nil {
		if size := fi.Size(); size >= o.walLast {
			o.walBytes += size - o.walLast
		} else {
			o.walBytes += size
		}
		o.walLast = fi.Size()
	}
}

func (r *jobsRunner) measure(seconds float64) (*measurement, error) {
	m := &measurement{}
	r.obs = jobObservations{}
	if fi, err := os.Stat(filepath.Join(r.storeDir, "wal.log")); err == nil {
		r.obs.walLast = fi.Size()
	}
	root := r.c.rec.start(noSpan, 0, "bench", "window")
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := newWindow(seconds, 2); w.next(); {
				at, err := r.job(ci, root, r.reg != nil)
				wall := at.to.Sub(at.from)
				r.mu.Lock()
				m.attempted++
				if err != nil {
					fmt.Println("job failed:", err)
					m.failed++
				} else {
					m.unitMs = append(m.unitMs, ms(wall))
					m.iterMs = append(m.iterMs, ms(wall)/itersPerJob)
					m.iterAt = append(m.iterAt, at)
					r.c.unitDone()
					m.iters += itersPerJob
				}
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.window = interval{start, time.Now()}
	m.wall = m.window.to.Sub(start)
	root.end()
	// Every job dropped its handle, so none may be left alive.
	m.attempted++
	if live := r.proxies.List(); len(live) != 0 {
		fmt.Printf("%d proxy handles still live after the window, first %s\n", len(live), live[0].Handle)
		m.failed++
	}
	if m.iters == 0 {
		return nil, fmt.Errorf("no job of %d succeeded", m.attempted)
	}
	return m, nil
}

func (r *jobsRunner) layers(l *ledger, m *measurement) error {
	if err := r.engineLayers(l, m); err != nil {
		return err
	}
	o, njobs := &r.obs, float64(len(m.unitMs))
	l.set("jobs.job_ms_p50", median(m.unitMs), len(m.unitMs))
	level, tail := tailPercentile(m.unitMs)
	l.setNote("jobs.job_ms_tail", tail, len(m.unitMs), fmt.Sprintf("p%g", level))
	l.set("jobs.jobs_per_s", njobs/m.wall.Seconds(), len(m.unitMs))
	l.set("jobs.submit_ms_p50", median(o.submitMs), len(o.submitMs))
	l.set("jobs.queue_ms_p50", median(o.queueMs), len(o.queueMs))
	l.set("jobs.run_ms_p50", median(o.runMs), len(o.runMs))
	l.set("jobstore.records_per_job", ratio(m.counts["dooc_jobstore_appends_total"], njobs), 0)
	l.set("jobstore.wal_bytes_per_job", ratio(float64(o.walBytes), njobs), 0)
	l.set("remote.result_ms_p50", median(o.resultMs), len(o.resultMs))
	l.set("remote.client_rx_bytes_per_job.byvalue", median(o.rxByValue), len(o.rxByValue))
	l.set("remote.client_rx_bytes_per_job.byref", median(o.rxByRef), len(o.rxByRef))
	var reconnects int64
	for _, cl := range r.clients {
		reconnects += cl.Reconnects()
	}
	l.set("remote.reconnects", float64(reconnects), 0)
	l.set("proxy.resolve_ms_p50", median(o.resolveMs), len(o.resolveMs))
	var resolveMs float64
	for _, v := range o.resolveMs {
		resolveMs += v
	}
	l.set("proxy.resolve_mbps", ratio(o.resolveBytes/1e6, resolveMs/1e3), len(o.resolveMs))
	if err := probeRTT(l, r.clients[0]); err != nil {
		return err
	}
	return probeJobstore(l, filepath.Join(r.c.scratch, "journal-probe"))
}

func (r *jobsRunner) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown(time.Second)
	}
	if r.svc != nil {
		r.svc.Manager.Drain()
	}
	if r.proxies != nil {
		r.proxies.Close()
	}
	if r.store != nil {
		r.store.Close() // the journal is scratch: a failed final compaction loses nothing
	}
	r.engine.close()
	os.RemoveAll(r.storeDir)
}
