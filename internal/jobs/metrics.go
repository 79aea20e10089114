package jobs

import (
	"dooc/internal/obs"
)

// managerMetrics are the job layer's series. Labelled counters are
// resolved lazily (tenants and terminal states appear at runtime); the
// maps are only touched under the manager's lock, the counters themselves
// are atomics. With a nil registry everything is a no-op.
type managerMetrics struct {
	reg *obs.Registry

	queuedG  *obs.Gauge
	runningG *obs.Gauge
	resumedC *obs.Counter // dooc_jobs_resumed_total

	perTenant map[string]*obs.Counter // dooc_jobs_submitted_total
	perReason map[string]*obs.Counter // dooc_jobs_rejected_total
	perState  map[State]*obs.Counter  // dooc_jobs_completed_total
}

func newManagerMetrics(reg *obs.Registry) managerMetrics {
	return managerMetrics{
		reg:       reg,
		queuedG:   reg.Gauge("dooc_jobs_queued", "jobs waiting for a run slot"),
		runningG:  reg.Gauge("dooc_jobs_running", "jobs currently executing"),
		resumedC:  reg.Counter("dooc_jobs_resumed_total", "interrupted jobs re-admitted by recovery"),
		perTenant: make(map[string]*obs.Counter),
		perReason: make(map[string]*obs.Counter),
		perState:  make(map[State]*obs.Counter),
	}
}

func (m *managerMetrics) submitted(tenant string) *obs.Counter {
	c, ok := m.perTenant[tenant]
	if !ok {
		c = m.reg.Counter("dooc_jobs_submitted_total", "jobs accepted by admission control", obs.L("tenant", tenant))
		m.perTenant[tenant] = c
	}
	return c
}

func (m *managerMetrics) rejected(reason string) *obs.Counter {
	c, ok := m.perReason[reason]
	if !ok {
		c = m.reg.Counter("dooc_jobs_rejected_total", "submissions rejected by admission control", obs.L("reason", reason))
		m.perReason[reason] = c
	}
	return c
}

func (m *managerMetrics) completed(s State) *obs.Counter {
	c, ok := m.perState[s]
	if !ok {
		c = m.reg.Counter("dooc_jobs_completed_total", "jobs reaching a terminal state", obs.L("state", s.String()))
		m.perState[s] = c
	}
	return c
}
