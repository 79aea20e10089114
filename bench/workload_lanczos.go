package main

import (
	"fmt"
	"math"
	"time"

	"dooc/internal/core"
	"dooc/internal/lanczos"
	"dooc/internal/sparse"
)

// eigTolerance is how far the out-of-core lowest eigenvalue may sit from the
// in-core solve of the same matrix, seed and step count.
const eigTolerance = 1e-9

// lanczosRunner runs lanczos.Solve over core.Operator (one engine run per
// step) with the Krylov basis spilled through core.BasisStore.
type lanczosRunner struct {
	engine
	steps int

	refEig       float64
	incoreStepMs float64
	solves       int
	eigErr       float64 // worst seen in the last window
	calls        int     // Operator.Calls of the last solve
}

func newLanczosOOC(c *runConfig) runner {
	p := engineParams{dim: 3000, d: 8, k: 4, nodes: 2, workers: 1, symmetric: true, compressed: true, tight: true, slack: 128 << 10}
	steps := 40
	if c.short {
		p.dim, steps = 1200, 10
	}
	return &lanczosRunner{engine: engine{c: c, p: p}, steps: steps}
}

func (r *lanczosRunner) setup(traced bool) error {
	r.begin(traced)
	if err := r.start(nil); err != nil {
		return err
	}
	if _, _, err := r.solve(noSpan, min(4, r.steps)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.span.end()
	return nil
}

func (r *lanczosRunner) oracle(keep bool) error {
	start := time.Now()
	res, err := lanczos.Solve(lanczos.MatrixOperator{M: r.m}, lanczos.Options{Steps: r.steps, Seed: r.c.seed})
	if err != nil {
		return fmt.Errorf("in-core reference solve: %w", err)
	}
	r.incoreStepMs = ms(time.Since(start)) / float64(res.Steps)
	r.refEig = res.Lowest(1)[0]
	if !keep {
		r.m = nil
	}
	return nil
}

// timedOperator notes when each Apply starts, which cuts a solve into steps
// from outside, and records a span around the engine run.
type timedOperator struct {
	op     *core.Operator
	rec    *recorder
	parent openSpan
	run    int
	starts []time.Time
}

func (t *timedOperator) Dim() int { return t.op.Dim() }

func (t *timedOperator) Apply(x []float64) ([]float64, error) {
	t.starts = append(t.starts, time.Now())
	sp := t.rec.start(t.parent, t.run, "core", "Operator.Apply")
	y, err := t.op.Apply(x)
	sp.end()
	return y, err
}

// timedBasis records spans around the basis store's writes and reads.
type timedBasis struct {
	b      *core.BasisStore
	rec    *recorder
	parent openSpan
	run    int
}

func (t *timedBasis) Len() int { return t.b.Len() }

func (t *timedBasis) Append(v []float64) error {
	sp := t.rec.start(t.parent, t.run, "core", "BasisStore.Append")
	defer sp.end()
	return t.b.Append(v)
}

func (t *timedBasis) Vector(j int) ([]float64, error) {
	sp := t.rec.start(t.parent, t.run, "core", "BasisStore.Vector")
	defer sp.end()
	return t.b.Vector(j)
}

// solve is one unit of work: a full Lanczos solve. It returns when each step
// ran (Apply start to next Apply start; the last one to Solve's return).
func (r *lanczosRunner) solve(parent openSpan, steps int) (*lanczos.Result, []interval, error) {
	run := r.solves
	r.solves++
	cfg := r.cfg
	cfg.Tag = fmt.Sprintf("solve%d", run)
	sp := r.c.rec.start(parent, run, "lanczos", "lanczos.Solve")
	op := &timedOperator{op: &core.Operator{Sys: r.sys, Cfg: cfg}, rec: r.c.rec, parent: sp, run: run}
	basis := &core.BasisStore{Store: r.sys.Store(0), Prefix: fmt.Sprintf("krylov%d", run), Spill: true}
	res, err := lanczos.Solve(op, lanczos.Options{Steps: steps, Seed: r.c.seed,
		Basis: &timedBasis{b: basis, rec: r.c.rec, parent: sp, run: run}})
	end := time.Now()
	sp.end()
	if cerr := basis.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	r.calls = op.op.Calls()
	stepAt := make([]interval, len(op.starts))
	for i, s := range op.starts {
		next := end
		if i+1 < len(op.starts) {
			next = op.starts[i+1]
		}
		stepAt[i] = interval{s, next}
	}
	return res, stepAt, nil
}

func (r *lanczosRunner) measure(seconds float64) (*measurement, error) {
	m := &measurement{}
	r.eigErr = 0
	root := r.c.rec.start(noSpan, r.solves, "bench", "window")
	defer root.end()
	m.window.from = time.Now()
	for w := newWindow(seconds, 1); w.next(); { // one solve is already r.steps samples
		start := time.Now()
		res, stepAt, err := r.solve(root, r.steps)
		wall := time.Since(start)
		m.attempted++
		if err != nil {
			fmt.Println("solve failed:", err)
			m.failed++
			continue
		}
		eigErr := math.Abs(res.Lowest(1)[0] - r.refEig)
		r.eigErr = max(r.eigErr, eigErr)
		if eigErr > eigTolerance || res.Steps != r.steps {
			fmt.Printf("solve %d: lowest eigenvalue %.12g after %d steps, in-core reference %.12g after %d\n", r.solves-1, res.Lowest(1)[0], res.Steps, r.refEig, r.steps)
			m.failed++
			continue
		}
		m.unitMs = append(m.unitMs, ms(wall))
		for _, s := range stepAt {
			m.iterMs = append(m.iterMs, ms(s.to.Sub(s.from)))
		}
		m.iterAt = append(m.iterAt, stepAt...)
		r.c.unitDone()
		m.iters += int64(res.Steps)
		m.wall += wall
	}
	m.window.to = time.Now()
	if m.iters == 0 {
		return nil, fmt.Errorf("no solve of %d succeeded", m.attempted)
	}
	return m, nil
}

func (r *lanczosRunner) layers(l *ledger, m *measurement) error {
	if err := r.engineLayers(l, m); err != nil {
		return err
	}
	spans := r.c.rec.snapshot()
	l.set("lanczos.solve_s", median(m.unitMs)/1e3, len(m.unitMs))
	l.set("lanczos.step_ms_incore", r.incoreStepMs, r.steps)
	l.set("lanczos.operator_calls", float64(r.calls), 0)
	l.set("lanczos.eig_abs_err", r.eigErr, len(m.unitMs))
	appends, reads := spanDurations(spans, "BasisStore.Append", 0), spanDurations(spans, "BasisStore.Vector", 0)
	l.set("core.basis_append_ms", median(appends), len(appends))
	l.set("core.basis_read_ms", median(reads), len(reads))
	p, err := sparse.NewGridPartition(r.p.dim, r.p.k)
	if err != nil {
		return err
	}
	block, err := sparse.Block(r.m, p, 0, 0)
	if err != nil {
		return err
	}
	unit := startVector(r.p.dim, r.c.seed)
	sparse.Scale(1/sparse.Norm2(unit), unit)
	return probeCompress(l, block, unit)
}
