// Service-level metrics (docs/observability.md): job scheduling
// counters, queue gauges, and the persistence/cross-run cache series
// the acceptance smoke reads off /metrics. The shared cache, the
// persistent log and the job journal keep their own totals; their
// series read those totals at scrape time instead of keeping copies.
package service

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/wal"
)

type serviceMetrics struct {
	admitted *obs.Counter // service_jobs_admitted_total

	rejQueueFull  *obs.Counter // service_jobs_rejected_total{reason="queue_full"}
	rejDraining   *obs.Counter // service_jobs_rejected_total{reason="draining"}
	rejBadRequest *obs.Counter // service_jobs_rejected_total{reason="bad_request"}

	doneOK       *obs.Counter // service_jobs_completed_total{status="done"}
	doneFailed   *obs.Counter // service_jobs_completed_total{status="failed"}
	doneCanceled *obs.Counter // service_jobs_completed_total{status="canceled"}

	queueDepth *obs.Gauge // service_queue_depth
	running    *obs.Gauge // service_jobs_running

	// Crash safety (journal.go).
	journalRecords   *obs.Counter // service_journal_appends_total
	journalErrors    *obs.Counter // service_journal_errors_total
	checkpoints      *obs.Counter // service_checkpoints_total
	checkpointErrors *obs.Counter // service_checkpoint_errors_total
	recovered        *obs.Counter // service_jobs_recovered_total
	resumed          *obs.Counter // service_jobs_resumed_total
	restoreFailed    *obs.Counter // service_checkpoint_restore_failed_total
	stalled          *obs.Counter // service_jobs_stalled_total
	retries          *obs.Counter // service_job_retries_total
}

func newServiceMetrics(r *obs.Registry) serviceMetrics {
	rej := func(reason string) *obs.Counter {
		return r.Counter(fmt.Sprintf("service_jobs_rejected_total{reason=%q}", reason),
			"Job submissions rejected by the admission controller, by reason")
	}
	done := func(status string) *obs.Counter {
		return r.Counter(fmt.Sprintf("service_jobs_completed_total{status=%q}", status),
			"Jobs that reached a terminal state, by outcome")
	}
	return serviceMetrics{
		admitted: r.Counter("service_jobs_admitted_total", "Jobs admitted to the run queue"),

		rejQueueFull:  rej("queue_full"),
		rejDraining:   rej("draining"),
		rejBadRequest: rej("bad_request"),

		doneOK:       done("done"),
		doneFailed:   done("failed"),
		doneCanceled: done("canceled"),

		queueDepth: r.Gauge("service_queue_depth", "Admitted jobs waiting for a runner"),
		running:    r.Gauge("service_jobs_running", "Jobs currently executing"),

		journalRecords:   r.Counter("service_journal_appends_total", "Records appended to the durable job journal"),
		journalErrors:    r.Counter("service_journal_errors_total", "Job-journal appends that failed (lease lost, I/O error, injected fault)"),
		checkpoints:      r.Counter("service_checkpoints_total", "Exploration checkpoints written"),
		checkpointErrors: r.Counter("service_checkpoint_errors_total", "Exploration checkpoint writes that failed or were dropped"),
		recovered:        r.Counter("service_jobs_recovered_total", "Jobs rebuilt from the journal after a restart"),
		resumed:          r.Counter("service_jobs_resumed_total", "Recovered jobs that resumed from an exploration checkpoint"),
		restoreFailed:    r.Counter("service_checkpoint_restore_failed_total", "Checkpoints rejected at restore time (corrupt or mismatched)"),
		stalled:          r.Counter("service_jobs_stalled_total", "Jobs killed by the stall watchdog"),
		retries:          r.Counter("service_job_retries_total", "Transient job failures retried with backoff"),
	}
}

func (m *serviceMetrics) rejected(code string) {
	switch code {
	case CodeQueueFull:
		m.rejQueueFull.Inc()
	case CodeDraining:
		m.rejDraining.Inc()
	default:
		m.rejBadRequest.Inc()
	}
}

func (m *serviceMetrics) completed(status string) {
	switch status {
	case StateDone:
		m.doneOK.Inc()
	case StateCanceled:
		m.doneCanceled.Inc()
	default:
		m.doneFailed.Inc()
	}
}

// deriveMetrics registers the series read from the shared cache, the
// persistent log and the job journal. Called once both logs are open.
func (s *Server) deriveMetrics(r *obs.Registry) {
	cache, persist, journal := s.cache, s.persist, s.journal
	cs := func(f func(smt.CacheStats) int64) func() int64 {
		return func() int64 { return f(cache.Stats()) }
	}
	ps := func(f func(smt.PersistStats) int64) func() int64 {
		return func() int64 {
			if persist == nil {
				return 0
			}
			return f(persist.Stats())
		}
	}
	js := func(f func(wal.Stats) int64) func() int64 {
		return func() int64 {
			if journal == nil {
				return 0
			}
			return f(journal.Stats())
		}
	}
	r.DeriveGauge("service_cache_entries", "Entries in the shared solver-query cache",
		cs(func(st smt.CacheStats) int64 { return int64(st.Size) }))
	r.DeriveCounter("service_cache_hits_total", "Solver queries answered by the shared cache",
		cs(func(st smt.CacheStats) int64 { return st.Hits }))
	r.DeriveCounter("service_cache_misses_total", "Solver queries the shared cache could not answer",
		cs(func(st smt.CacheStats) int64 { return st.Misses }))
	r.DeriveCounter("service_cache_cross_hits_total", "Cache hits on entries loaded from the persistent log (cross-run hits)",
		cs(func(st smt.CacheStats) int64 { return st.DiskHits }))

	r.DeriveGauge("service_persist_entries", "Entries in the persistent cache file",
		ps(func(st smt.PersistStats) int64 { return st.FileEntries }))
	r.DeriveGauge("service_persist_loaded", "Entries loaded from the persistent cache at startup/reload",
		ps(func(st smt.PersistStats) int64 { return st.Loaded }))
	r.DeriveCounter("service_persist_flushed_total", "Entries appended to the persistent cache log",
		ps(func(st smt.PersistStats) int64 { return st.Flushed }))
	r.DeriveCounter("service_persist_compactions_total", "LRU compaction rewrites of the persistent cache log",
		ps(func(st smt.PersistStats) int64 { return st.Compactions }))
	r.DeriveGauge("service_persist_read_only", "1 when another process holds the cache writer lease",
		ps(func(st smt.PersistStats) int64 { return b2i(st.ReadOnly) }))
	r.DeriveCounter("cache_corrupt_total", "Corrupt entries skipped while loading the persistent cache",
		ps(func(st smt.PersistStats) int64 { return st.Corruptions }))

	r.DeriveCounter("service_journal_corrupt_total", "Corrupt job-journal entries skipped during recovery",
		js(func(st wal.Stats) int64 { return st.Corruptions }))
	r.DeriveGauge("service_journal_read_only", "1 when another process holds the job-journal writer lease",
		js(func(st wal.Stats) int64 { return b2i(st.ReadOnly) }))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
