package proxy

import "dooc/internal/obs"

// metrics are the registry's dooc_proxy_* series, resolved once at
// construction. With a nil registry every field is nil and every operation
// a no-op (obs types are nil-safe). The counters and gauges reconcile
// exactly with registry state:
//
//	registered - reclaimed == dooc_proxy_handles (live count)
//	resident bytes          == Σ payload bytes held by unreclaimed handles
type metrics struct {
	registered    *obs.Counter
	resolved      *obs.Counter
	resolvedBytes *obs.Counter
	released      *obs.Counter
	reclaimed     *obs.Counter
	expired       *obs.Counter
	quotaRejects  *obs.Counter

	count         *obs.Gauge
	residentBytes *obs.Gauge

	resolveSeconds *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		registered:    reg.Counter("dooc_proxy_registered_total", "proxy handles registered (including journal recovery)"),
		resolved:      reg.Counter("dooc_proxy_resolved_total", "proxy handles resolved end to end"),
		resolvedBytes: reg.Counter("dooc_proxy_resolved_bytes_total", "payload bytes materialized by proxy resolves"),
		released:      reg.Counter("dooc_proxy_released_total", "references dropped (client release, TTL expiry, owner retirement)"),
		reclaimed:     reg.Counter("dooc_proxy_reclaimed_total", "handles reclaimed after their last reference dropped"),
		expired:       reg.Counter("dooc_proxy_expired_total", "origin leases released by TTL expiry"),
		quotaRejects:  reg.Counter("dooc_proxy_quota_rejections_total", "registrations rejected by tenant proxy quotas"),

		count:         reg.Gauge("dooc_proxy_handles", "live proxy handles"),
		residentBytes: reg.Gauge("dooc_proxy_resident_bytes", "result payload bytes held in memory by unreclaimed handles (a handle recovered after a restart holds none: its bytes are in the job store's result file)"),

		resolveSeconds: reg.Histogram("dooc_proxy_resolve_seconds", "end-to-end proxy resolve latency",
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
	}
}
