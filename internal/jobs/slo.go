package jobs

import (
	"sort"
	"sync"
	"time"

	"dooc/internal/obs"
)

// SLOConfig parameterizes a per-tenant SLO tracker. A zero objective means
// "no objective": latencies are still observed, but nothing counts as a
// breach.
type SLOConfig struct {
	// QueueObjective is the queue-wait objective (doocserve -slo-queue-ms).
	QueueObjective time.Duration
	// RunObjective is the run-latency objective (doocserve -slo-run-ms).
	RunObjective time.Duration
	// Obs receives the dooc_slo_* series (nil disables export; the tracker
	// still keeps its own counts for Summary).
	Obs *obs.Registry
}

// tenantSLO is one tenant's series plus local counts (the registry may cap
// tenant cardinality, so Summary never reads back through it).
type tenantSLO struct {
	e2e, queue, run *obs.Histogram
	jobs            *obs.Counter
	queueBurn       *obs.Counter
	runBurn         *obs.Counter

	nJobs, nQueueBreach, nRunBreach int64
	sumQueue, sumRun, sumE2E        time.Duration
}

// SLOTracker observes per-tenant end-to-end, queue-wait, and run latencies
// against configurable objectives, exporting dooc_slo_* histograms and burn
// (objective-breach) counters. A nil *SLOTracker is a no-op.
type SLOTracker struct {
	cfg SLOConfig

	mu      sync.Mutex
	tenants map[string]*tenantSLO
}

// NewSLOTracker builds a tracker.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg, tenants: make(map[string]*tenantSLO)}
}

// QueueObjective returns the configured queue-wait objective.
func (t *SLOTracker) QueueObjective() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.QueueObjective
}

// RunObjective returns the configured run-latency objective.
func (t *SLOTracker) RunObjective() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.RunObjective
}

func (t *SLOTracker) tenant(name string) *tenantSLO {
	s, ok := t.tenants[name]
	if !ok {
		l := obs.L("tenant", name)
		reg := t.cfg.Obs
		s = &tenantSLO{
			e2e:       reg.Histogram("dooc_slo_e2e_seconds", "submit-to-terminal latency per tenant", nil, l),
			queue:     reg.Histogram("dooc_slo_queue_wait_seconds", "queue-wait latency per tenant", nil, l),
			run:       reg.Histogram("dooc_slo_run_seconds", "run latency per tenant", nil, l),
			jobs:      reg.Counter("dooc_slo_jobs_total", "terminal jobs observed per tenant", l),
			queueBurn: reg.Counter("dooc_slo_queue_breaches_total", "jobs whose queue wait exceeded the objective", l),
			runBurn:   reg.Counter("dooc_slo_run_breaches_total", "jobs whose run latency exceeded the objective", l),
		}
		t.tenants[name] = s
	}
	return s
}

// Observe records one terminal job. ran is false for jobs cancelled before
// admission (no run latency to observe).
func (t *SLOTracker) Observe(tenant string, queueWait, run, e2e time.Duration, ran bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.tenant(tenant)
	s.nJobs++
	s.sumQueue += queueWait
	s.sumE2E += e2e
	s.jobs.Inc()
	s.e2e.Observe(e2e.Seconds())
	s.queue.Observe(queueWait.Seconds())
	if t.cfg.QueueObjective > 0 && queueWait > t.cfg.QueueObjective {
		s.nQueueBreach++
		s.queueBurn.Inc()
	}
	if ran {
		s.sumRun += run
		s.run.Observe(run.Seconds())
		if t.cfg.RunObjective > 0 && run > t.cfg.RunObjective {
			s.nRunBreach++
			s.runBurn.Inc()
		}
	}
}

// SLOSummary is one tenant's standing against the objectives, in the shape
// the /healthz detail reports.
type SLOSummary struct {
	Tenant        string `json:"tenant"`
	Jobs          int64  `json:"jobs"`
	QueueBreaches int64  `json:"queue_breaches"`
	RunBreaches   int64  `json:"run_breaches"`
	// Burn rates are breach fractions in [0,1]: the error budget consumed.
	QueueBurn    float64 `json:"queue_burn"`
	RunBurn      float64 `json:"run_burn"`
	MeanQueueSec float64 `json:"mean_queue_seconds"`
	MeanRunSec   float64 `json:"mean_run_seconds"`
	MeanE2ESec   float64 `json:"mean_e2e_seconds"`
}

// Summary returns per-tenant standings sorted by tenant name.
func (t *SLOTracker) Summary() []SLOSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOSummary, 0, len(t.tenants))
	for name, s := range t.tenants {
		sum := SLOSummary{
			Tenant:        name,
			Jobs:          s.nJobs,
			QueueBreaches: s.nQueueBreach,
			RunBreaches:   s.nRunBreach,
		}
		if s.nJobs > 0 {
			sum.QueueBurn = float64(s.nQueueBreach) / float64(s.nJobs)
			sum.RunBurn = float64(s.nRunBreach) / float64(s.nJobs)
			sum.MeanQueueSec = (s.sumQueue / time.Duration(s.nJobs)).Seconds()
			sum.MeanRunSec = (s.sumRun / time.Duration(s.nJobs)).Seconds()
			sum.MeanE2ESec = (s.sumE2E / time.Duration(s.nJobs)).Seconds()
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
