// Package registry is the single source of truth for every
// cross-cutting string name the pipeline and the serving layer bake
// into production code: fault-injection point names, trace stage
// names, and Prometheus metric family names. The names used to live
// as bare literals scattered across ~28 files; concentrating them
// here lets the rplint static-analysis suite (cmd/rplint) verify that
// every name used anywhere in the tree resolves to a registry
// constant, is unique, and — for metric families — is documented in
// the README metric table.
//
// The package imports nothing and is imported by faults, trace,
// serve, and obs, so it can never participate in an import cycle.
package registry

// Fault-injection point names (internal/faults). One constant per
// point compiled into the pipeline or the serving layer; see
// faults.Check call sites.
const (
	FaultHPRobustSolver  = "hp/robust_solver"  // robust HP trend IRLS solve
	FaultWaveletTransfrm = "wavelet/transform" // circular MODWT pyramid
	FaultWaveletReflect  = "wavelet/reflect"   // reflection-boundary MODWT fallback
	FaultSpectrumSolver  = "spectrum/solver"   // per-frequency IRLS/ADMM regressions
	FaultSpectrumStall   = "spectrum/stall"    // latency surrogate inside the periodogram
	FaultCoreLevel       = "core/level"        // one wavelet level's detection
	FaultServeHandler    = "serve/handler"     // HTTP handler body
	FaultServeWorker     = "serve/worker"      // worker-pool job start
	FaultServeCache      = "serve/cache"       // result-cache read (corruption surrogate)
	FaultJobsStore       = "jobs/store"        // async job-store insert (submission path)
	FaultJobsExec        = "jobs/exec"         // async job execution start
	FaultWALAppend       = "wal/append"        // write-ahead-log record append
	FaultWALFsync        = "wal/fsync"         // write-ahead-log fsync
	FaultWALReplay       = "wal/replay"        // write-ahead-log startup replay
)

// FaultPoints lists every canonical fault point, in pipeline-then-
// serving order.
func FaultPoints() []string {
	return []string{
		FaultHPRobustSolver, FaultWaveletTransfrm, FaultWaveletReflect,
		FaultSpectrumSolver, FaultSpectrumStall, FaultCoreLevel,
		FaultServeHandler, FaultServeWorker, FaultServeCache,
		FaultJobsStore, FaultJobsExec,
		FaultWALAppend, FaultWALFsync, FaultWALReplay,
	}
}

// Trace stage names of the RobustPeriod pipeline (Fig. 1 of the
// paper), in execution order (internal/trace).
const (
	StageHPFilter    = "hp_filter"        // HP detrending + winsorized normalization
	StageMODWT       = "modwt"            // maximal overlap DWT decomposition
	StageRanking     = "variance_ranking" // robust wavelet-variance level ranking
	StagePeriodogram = "periodogram"      // Huber-periodogram + Fisher test (per level)
	StageValidation  = "validation"       // Huber-ACF validation + refinement
)

// TraceStages lists the canonical pipeline stages in execution order.
func TraceStages() []string {
	return []string{StageHPFilter, StageMODWT, StageRanking, StagePeriodogram, StageValidation}
}

// Trace counter names accumulated under the pipeline stages above
// (internal/trace Count call sites). Counters are per-request
// diagnostics, not Prometheus families; they surface in Result.Trace
// and the ?debug=1 response body.
const (
	CounterSolverIters    = "solver_iters"    // Newton/IRLS/ADMM iterations across all per-frequency solves
	CounterPrefilterSkips = "prefilter_skips" // frequencies certified below the Fisher floor and skipped
)

// CounterSolverWarmHits names the counter of the removed frequency
// warm starts. Nothing emits it; it is kept only because perfbench's
// layer table (spectrum.warm_hit_ratio) still reads it, and there it
// now reads 0.
const CounterSolverWarmHits = "solver_warm_hits"

// TraceCounters lists the canonical per-stage trace counter names.
func TraceCounters() []string {
	return []string{CounterSolverIters, CounterPrefilterSkips}
}

// Span names of the serving layer (internal/trace span recordings).
// Pipeline-stage spans reuse the Stage* constants above; the names
// here cover everything around the pipeline: the request root span,
// queue wait, async-job execution, coalesced-flight attachment, and
// the durability syscalls.
const (
	SpanRequest   = "request"         // root span: admission to response
	SpanQueueWait = "queue_wait"      // submit-to-start wait in the worker or fair-share queue
	SpanJobExec   = "job_exec"        // async job execution (dequeue to terminal state)
	SpanCoalesce  = "coalesce_attach" // follower attaching to an identical in-flight execution
	SpanWALAppend = "wal_append"      // write-ahead-log record append (encode + write)
	SpanWALFsync  = "wal_fsync"       // write-ahead-log fsync before admission is acknowledged
)

// SpanNames lists the canonical non-stage span names.
func SpanNames() []string {
	return []string{SpanRequest, SpanQueueWait, SpanJobExec, SpanCoalesce, SpanWALAppend, SpanWALFsync}
}

// Lock classes of the serving and durability layers, named
// "pkg.Type.field" (or "pkg.var" for a package-level mutex). The
// list is the canonical acquisition order, outermost first: code may
// acquire a class only while holding classes that appear strictly
// earlier. The rplint lockdiscipline analyzer derives every
// lock-nesting edge in the tree (including edges through calls, via
// its call-summary layer) and rejects any edge that contradicts this
// order, plus any mutex in jobs/wal/serve/obs/trace/slo that is
// missing from the catalog — so adding a mutex to those packages
// means declaring, here, where it nests.
const (
	LockServeWorkerPool  = "serve.workerPool.mu"   // worker-pool state (outermost serve lock)
	LockServeResultCache = "serve.resultCache.mu"  // LRU result cache
	LockServeBreaker     = "serve.breaker.mu"      // per-endpoint circuit breaker
	LockServeTenants     = "serve.tenantCounts.mu" // tenant-label cardinality fold
	LockServeHistogram   = "serve.histogram.mu"    // per-stage latency histograms
	LockJobsManager      = "jobs.Manager.mu"       // async job manager (flights, queues, store)
	LockWALLog           = "wal.Log.mu"            // write-ahead-log segment state
	LockSLOEngine        = "slo.Engine.mu"         // burn-rate engine windows
	LockSLOProfileRing   = "slo.ProfileRing.mu"    // on-disk pprof capture ring
	LockTraceTrace       = "trace.Trace.mu"        // per-request stage trace accumulation
	LockTraceRecording   = "trace.Recording.mu"    // per-request span recording
	LockObsScopeFault    = "obs.Scope.faultMu"     // request-scope fault annotations
	LockObsRing          = "obs.Ring.mu"           // flight-recorder dual ring (requests and traces)
	LockObsQuantiles     = "obs.Quantiles.mu"      // P2 streaming quantile estimator
)

// LockOrder returns the canonical lock acquisition order, outermost
// first. Holding a class and acquiring one at the same or an earlier
// rank is a static lockdiscipline violation.
func LockOrder() []string {
	return []string{
		LockServeWorkerPool,
		LockServeResultCache,
		LockServeBreaker,
		LockServeTenants,
		LockServeHistogram,
		LockJobsManager,
		LockWALLog,
		LockSLOEngine,
		LockSLOProfileRing,
		LockTraceTrace,
		LockTraceRecording,
		LockObsScopeFault,
		LockObsRing,
		LockObsQuantiles,
	}
}

// Prometheus metric family names exposed on GET /metrics. Every
// family emitted anywhere in the tree must be declared here and
// documented in the README metric table (rplint enforces both).
const (
	MetricBuildInfo = "rp_build_info"

	MetricRequestsTotal      = "rp_requests_total"
	MetricRequestErrorsTotal = "rp_request_errors_total"
	MetricRequestsShedTotal  = "rp_requests_shed_total"
	MetricRequestsInFlight   = "rp_requests_in_flight"
	MetricWorkerQueueDepth   = "rp_worker_queue_depth"

	MetricCacheEntries          = "rp_cache_entries"
	MetricCacheHitsTotal        = "rp_cache_hits_total"
	MetricCacheMissesTotal      = "rp_cache_misses_total"
	MetricCacheCorruptionsTotal = "rp_cache_corruptions_total"

	MetricPanicsRecoveredTotal = "rp_panics_recovered_total"
	MetricDegradedTotal        = "rp_degraded_total"
	MetricBreakerState         = "rp_breaker_state"
	MetricBreakerOpensTotal    = "rp_breaker_opens_total"

	MetricAdmissionJobTime = "rp_admission_job_time_seconds"

	MetricJobsSubmittedTotal = "rp_jobs_submitted_total"
	MetricJobsCoalescedTotal = "rp_jobs_coalesced_total"
	MetricJobsCompletedTotal = "rp_jobs_completed_total"
	MetricJobsExpiredTotal   = "rp_jobs_expired_total"
	MetricJobsShedTotal      = "rp_jobs_shed_total"
	MetricJobsQueueDepth     = "rp_jobs_queue_depth"
	MetricJobsState          = "rp_jobs_state"
	MetricJobLatencyQuantile = "rp_job_latency_seconds_quantile"

	MetricWALAppendsTotal       = "rp_wal_appends_total"
	MetricWALFsyncsTotal        = "rp_wal_fsyncs_total"
	MetricWALBytes              = "rp_wal_bytes"
	MetricWALReplayRecordsTotal = "rp_wal_replay_records_total"
	MetricJobsRecoveredTotal    = "rp_jobs_recovered_total"
	MetricJobsLostTotal         = "rp_jobs_lost_total"

	MetricRequestDuration        = "rp_request_duration_seconds"
	MetricStageDuration          = "rp_stage_duration_seconds"
	MetricRequestLatencyQuantile = "rp_request_latency_seconds_quantile"
	MetricStageLatencyQuantile   = "rp_stage_latency_seconds_quantile"

	MetricTracesSampledTotal  = "rp_traces_sampled_total"
	MetricTraceSpansTotal     = "rp_trace_spans_total"
	MetricTenantRequestsTotal = "rp_tenant_requests_total"

	MetricSLOObjective            = "rp_slo_objective"
	MetricSLOBurnRate             = "rp_slo_burn_rate"
	MetricSLOErrorBudgetRemaining = "rp_slo_error_budget_remaining"
	MetricSLOAlert                = "rp_slo_alert"
	MetricSLOProfileCapturesTotal = "rp_slo_profile_captures_total"

	MetricGoGoroutines          = "rp_go_goroutines"
	MetricGoHeapObjectsBytes    = "rp_go_heap_objects_bytes"
	MetricGoMemoryTotalBytes    = "rp_go_memory_total_bytes"
	MetricGoGCCyclesTotal       = "rp_go_gc_cycles_total"
	MetricGoHeapAllocsBytes     = "rp_go_heap_allocs_bytes_total"
	MetricGoGCPauseSeconds      = "rp_go_gc_pause_seconds"
	MetricGoSchedLatencySeconds = "rp_go_sched_latency_seconds"
)

// Metric describes one Prometheus family: its name, exposition type
// (counter, gauge, histogram) and HELP docstring. The help text lives
// here, next to the name, so the exposition and the README table
// cannot drift apart silently. Exemplars marks the histogram families
// whose buckets may carry OpenMetrics trace-ID exemplars; the rplint
// registry analyzer rejects exemplar-attaching writer calls against
// any other family.
type Metric struct {
	Name      string
	Type      string
	Help      string
	Exemplars bool
}

// metrics is the full catalog, in exposition order.
var metrics = []Metric{
	{MetricBuildInfo, "gauge", "Build metadata of the running binary (value is always 1).", false},

	{MetricRequestsTotal, "counter", "HTTP requests served, by endpoint.", false},
	{MetricRequestErrorsTotal, "counter", "Requests answered with status >= 400, by endpoint.", false},
	{MetricRequestsShedTotal, "counter", "Requests shed before compute (429 or 503), by endpoint.", false},
	{MetricRequestsInFlight, "gauge", "Requests currently inside a handler.", false},
	{MetricWorkerQueueDepth, "gauge", "Detection jobs waiting in the worker queue.", false},

	{MetricCacheEntries, "gauge", "Entries currently in the result cache.", false},
	{MetricCacheHitsTotal, "counter", "Result-cache hits.", false},
	{MetricCacheMissesTotal, "counter", "Result-cache misses.", false},
	{MetricCacheCorruptionsTotal, "counter", "Cache entries dropped by the integrity check on read.", false},

	{MetricPanicsRecoveredTotal, "counter", "Panics recovered in handlers and detection workers.", false},
	{MetricDegradedTotal, "counter", "Detections that returned graceful-degradation annotations.", false},
	{MetricBreakerState, "gauge", "Circuit-breaker state by endpoint: 0 closed, 1 open, 2 half-open.", false},
	{MetricBreakerOpensTotal, "counter", "Circuit-breaker open transitions by endpoint.", false},

	{MetricAdmissionJobTime, "gauge", "EWMA estimate of one detection's service time feeding the admission controller's Retry-After values.", false},

	{MetricJobsSubmittedTotal, "counter", "Async job submissions accepted (coalesced followers included).", false},
	{MetricJobsCoalescedTotal, "counter", "Async jobs that coalesced onto an identical in-flight execution.", false},
	{MetricJobsCompletedTotal, "counter", "Async jobs reaching a terminal state, by outcome (ok or failed).", false},
	{MetricJobsExpiredTotal, "counter", "Terminal async jobs reaped from the store after their TTL.", false},
	{MetricJobsShedTotal, "counter", "Async job submissions rejected by the fair-share admission bounds.", false},
	{MetricJobsQueueDepth, "gauge", "Async job executions waiting in the fair-share queues.", false},
	{MetricJobsState, "gauge", "Async jobs currently retained, by state (queued, running, done, failed).", false},
	{MetricJobLatencyQuantile, "gauge", "Streaming submit-to-completion job-latency quantile estimates (P2 algorithm).", false},

	{MetricWALAppendsTotal, "counter", "Records appended to the jobs write-ahead log.", false},
	{MetricWALFsyncsTotal, "counter", "Fsyncs issued by the jobs write-ahead log.", false},
	{MetricWALBytes, "gauge", "Size of the current jobs write-ahead-log segment in bytes.", false},
	{MetricWALReplayRecordsTotal, "counter", "Log records decoded during startup replay.", false},
	{MetricJobsRecoveredTotal, "counter", "Jobs restored to a pollable state by crash recovery (finished results plus re-enqueued submissions).", false},
	{MetricJobsLostTotal, "counter", "Jobs that were mid-execution at a crash and failed as lost to restart.", false},

	{Name: MetricRequestDuration, Type: "histogram", Help: "Request latency by endpoint.", Exemplars: true},
	{Name: MetricStageDuration, Type: "histogram", Help: "Pipeline stage latency by stage (microsecond-resolution low buckets).", Exemplars: true},
	{MetricRequestLatencyQuantile, "gauge", "Streaming request-latency quantile estimates (P2 algorithm) by endpoint.", false},
	{MetricStageLatencyQuantile, "gauge", "Streaming stage-latency quantile estimates (P2 algorithm) by stage.", false},

	{MetricTracesSampledTotal, "counter", "Requests whose span tree was sampled into the trace flight recorder.", false},
	{MetricTraceSpansTotal, "counter", "Spans recorded into the trace flight recorder.", false},
	{MetricTenantRequestsTotal, "counter", "Requests by tenant; unknown API keys beyond the tracked set fold into the other label.", false},

	{MetricSLOObjective, "gauge", "Configured SLO objective (target good-event fraction), by SLO.", false},
	{MetricSLOBurnRate, "gauge", "Error-budget burn rate by SLO and window (1 means burning exactly the budget).", false},
	{MetricSLOErrorBudgetRemaining, "gauge", "Fraction of the SLO error budget remaining over the long window, by SLO.", false},
	{MetricSLOAlert, "gauge", "SLO alert state by SLO and severity: 1 while the multi-window burn-rate condition holds.", false},
	{MetricSLOProfileCapturesTotal, "counter", "pprof profile captures triggered by fast-burn SLO alerts.", false},

	{MetricGoGoroutines, "gauge", "Current number of live goroutines.", false},
	{MetricGoHeapObjectsBytes, "gauge", "Bytes of memory occupied by live heap objects.", false},
	{MetricGoMemoryTotalBytes, "gauge", "All memory mapped by the Go runtime.", false},
	{MetricGoGCCyclesTotal, "gauge", "Completed GC cycles since process start.", false},
	{MetricGoHeapAllocsBytes, "gauge", "Cumulative bytes allocated on the heap.", false},
	{MetricGoGCPauseSeconds, "gauge", "Distribution of stop-the-world GC pause latencies (quantiles).", false},
	{MetricGoSchedLatencySeconds, "gauge", "Distribution of goroutine scheduling latencies (quantiles).", false},
}

// Metrics returns the full metric catalog, in exposition order. The
// returned slice is a copy.
func Metrics() []Metric {
	return append([]Metric(nil), metrics...)
}

// MetricNames returns every family name in catalog order.
func MetricNames() []string {
	out := make([]string, len(metrics))
	for i, m := range metrics {
		out[i] = m.Name
	}
	return out
}

// LookupMetric returns the catalog entry for name.
func LookupMetric(name string) (Metric, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// MustMetric is LookupMetric for compiled-in names; it panics on a
// name missing from the catalog (a programming error rplint catches
// statically anyway).
func MustMetric(name string) Metric {
	m, ok := LookupMetric(name)
	if !ok {
		panic("registry: unknown metric family " + name)
	}
	return m
}

// Validate checks the registry's own internal consistency: every
// fault point, stage, and metric family name must be non-empty and
// unique across its namespace. rplint runs this once per invocation
// and the registry tests pin it.
func Validate() []string {
	var problems []string
	check := func(kind string, names []string) {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if n == "" {
				problems = append(problems, kind+": empty name")
				continue
			}
			if seen[n] {
				problems = append(problems, kind+": duplicate name "+n)
			}
			seen[n] = true
		}
	}
	check("fault point", FaultPoints())
	check("trace stage", TraceStages())
	check("trace counter", TraceCounters())
	check("metric family", MetricNames())
	check("lock class", LockOrder())
	return problems
}
