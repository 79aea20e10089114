package jobstore

import "dooc/internal/obs"

// storeMetrics are the job store's series. With a nil registry every
// operation is a no-op (the obs types are nil-safe).
type storeMetrics struct {
	appends       *obs.Counter   // dooc_jobstore_appends_total
	compactErrors *obs.Counter   // dooc_jobstore_compact_errors_total
	replaySeconds *obs.Histogram // dooc_jobstore_replay_seconds
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		appends:       reg.Counter("dooc_jobstore_appends_total", "journal entries appended and fsynced"),
		compactErrors: reg.Counter("dooc_jobstore_compact_errors_total", "failed automatic compactions (the journal stays intact and grows until one succeeds)"),
		replaySeconds: reg.Histogram("dooc_jobstore_replay_seconds", "snapshot+WAL replay duration at Open", nil),
	}
}
