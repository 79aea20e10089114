package main

import (
	"fmt"
	"time"

	"dooc/internal/core"
)

// spmvRunner runs core.RunIteratedSpMV reps over a staged matrix. The three
// spmv-* workloads differ only in their parameters: how much memory the nodes
// get and whether the stores sit on a cluster ring.
type spmvRunner struct {
	engine
	iters    int // per rep
	warmReps int
	ring     *ring // spmv-ring only
	withRing bool

	x0     []float64
	refSHA string
	reps   int
}

func newSpMVInCore(c *runConfig) runner {
	p := engineParams{dim: 3000, d: 8, k: 4, nodes: 2, workers: 1}
	if c.short {
		p.dim = 1600
	}
	return &spmvRunner{engine: engine{c: c, p: p}, iters: 10, warmReps: 2}
}

func newSpMVOOC(c *runConfig) runner {
	p := engineParams{dim: 3000, d: 8, k: 4, nodes: 2, workers: 1, tight: true, slack: 128 << 10}
	if c.short {
		p.dim = 1600
	}
	return &spmvRunner{engine: engine{c: c, p: p}, iters: 5, warmReps: 1}
}

func newSpMVRing(c *runConfig) runner {
	// The slack is below one iteration's vectors and partials, so written
	// blocks leave memory between iterations and come back over the ring.
	p := engineParams{dim: 3000, d: 8, k: 2, nodes: 1, workers: 1, tight: true, slack: 64 << 10}
	if c.short {
		p.dim = 1500
		p.slack = 32 << 10
	}
	return &spmvRunner{engine: engine{c: c, p: p}, iters: 5, warmReps: 1, withRing: true}
}

func (r *spmvRunner) setup(traced bool) error {
	r.begin(traced)
	if r.withRing {
		var err error
		if r.ring, err = newRing(3, r.reg); err != nil {
			return err
		}
	}
	if err := r.start(r.ring.backend()); err != nil {
		return err
	}
	r.x0 = startVector(r.p.dim, r.c.seed)
	for i := 0; i < r.warmReps; i++ {
		if _, err := r.rep(noSpan); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	r.span.end()
	return nil
}

func (r *spmvRunner) oracle(keep bool) error {
	o, err := newOracle(r.m, r.p.k)
	if err != nil {
		return err
	}
	r.refSHA = shaFloats(o.iterate(r.x0, r.iters))
	if !keep {
		r.m = nil
	}
	return nil
}

// rep is one unit of work: one RunIteratedSpMV call of r.iters iterations
// under a fresh tag.
func (r *spmvRunner) rep(parent openSpan) (*core.SpMVResult, error) {
	cfg := r.cfg
	cfg.Iters = r.iters
	cfg.Tag = fmt.Sprintf("rep%d", r.reps)
	sp := r.c.rec.start(parent, r.reps, "core", "RunIteratedSpMV")
	r.reps++
	res, err := core.RunIteratedSpMV(r.sys, cfg, r.x0)
	sp.end()
	return res, err
}

func (r *spmvRunner) measure(seconds float64) (*measurement, error) {
	m := &measurement{}
	root := r.c.rec.start(noSpan, r.reps, "bench", "window")
	defer root.end()
	m.window.from = time.Now()
	for w := newWindow(seconds, 3); w.next(); {
		start := time.Now()
		res, err := r.rep(root)
		wall := time.Since(start)
		m.attempted++
		if err != nil {
			fmt.Println("rep failed:", err)
			m.failed++
			continue
		}
		if got := shaFloats(res.X); got != r.refSHA {
			fmt.Printf("rep %d: result sha %s differs from the oracle's %s\n", r.reps-1, got[:16], r.refSHA[:16])
			m.failed++
			continue
		}
		m.iterMs = append(m.iterMs, ms(wall)/float64(r.iters))
		m.iterAt = append(m.iterAt, interval{start, start.Add(wall)})
		r.c.unitDone()
		m.iters += int64(r.iters)
		m.wall += wall
	}
	m.window.to = time.Now()
	if m.iters == 0 {
		return nil, fmt.Errorf("no rep of %d succeeded", m.attempted)
	}
	return m, nil
}

func (r *spmvRunner) layers(l *ledger, m *measurement) error {
	if err := r.engineLayers(l, m); err != nil {
		return err
	}
	if r.ring != nil {
		return r.ring.layers(l, m)
	}
	return nil
}

func (r *spmvRunner) close() {
	r.engine.close()
	r.ring.close()
}
