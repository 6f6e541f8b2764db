// Package serve is the always-on serving layer over the robustperiod
// library: a JSON HTTP API with a bounded worker pool, an LRU result
// cache, per-request timeouts and cancellation, expvar metrics, and
// graceful drain on shutdown. It is the deployment shape the paper's
// motivating scenario (large-scale cloud monitoring) actually runs:
// many independent series arriving concurrently at one detector.
//
// The package is pure standard library, like everything else in this
// repository.
package serve

import (
	"context"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/jobs"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
	"robustperiod/internal/slo"
	"robustperiod/internal/trace"
	"robustperiod/internal/wal"
)

// Config tunes the service. The zero value is production-safe.
type Config struct {
	// Addr is the listen address; "" means ":8080".
	Addr string
	// DebugAddr, when non-empty, serves the debug listener
	// (net/http/pprof under /debug/pprof/, expvar under /debug/vars)
	// on a separate address — keep it on loopback or an internal
	// interface; profiling endpoints do not belong on the API port.
	// Empty disables the debug listener.
	DebugAddr string
	// RequestTimeout bounds the compute time of one request (detect
	// or batch); 0 means 30s. The deadline propagates into the robust
	// periodogram solvers via context, so a timed-out request stops
	// consuming a worker almost immediately.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain; 0 means 30s.
	DrainTimeout time.Duration
	// MaxBodyBytes caps a request body; 0 means 8 MiB.
	MaxBodyBytes int64
	// MaxSeriesLen caps the points of one series; 0 means 1<<20.
	MaxSeriesLen int
	// MaxBatch caps the series count of one batch request; 0 means 256.
	MaxBatch int
	// Workers sizes the detection worker pool; 0 means GOMAXPROCS.
	Workers int
	// QueueLen bounds the pending-job queue; 0 means 4×Workers.
	QueueLen int
	// CacheSize is the LRU result-cache capacity in entries; 0 means
	// 1024, negative disables caching.
	CacheSize int
	// BreakerThreshold is the number of consecutive internal (500)
	// failures on a compute endpoint that opens its circuit breaker;
	// 0 means 5, negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// half-opening to admit a probe request; 0 means 5s.
	BreakerCooldown time.Duration
	// Logger receives the server's structured logs (request admission,
	// degradation and fault events, access samples), each correlated by
	// request_id. Nil disables logging.
	Logger *slog.Logger
	// AccessLogEvery samples the per-request access log: every Nth
	// completed compute request is logged at info level. Requests that
	// erred, degraded, or hit a fault point are always logged
	// regardless of sampling. 0 means 64; 1 logs every request;
	// negative disables access sampling (exceptional requests still
	// log).
	AccessLogEvery int
	// RecorderSize is how many recent request records the post-mortem
	// flight recorder retains (plus as many pinned error/degraded
	// records); 0 means 256. The recorder is always on.
	RecorderSize int
	// JobsQueue bounds undispatched async job executions across all
	// tenants; 0 means 4096.
	JobsQueue int
	// JobsPerTenant bounds one API key's live (queued, coalesced,
	// running) async jobs; 0 means JobsQueue/4.
	JobsPerTenant int
	// JobsTTL is how long finished async jobs stay pollable; 0 means 5m.
	JobsTTL time.Duration
	// JobsStore bounds retained finished async jobs; 0 means 4096.
	JobsStore int
	// JobsQuantum is the fair-share deficit-round-robin budget per
	// tenant visit, in series points; 0 means 4096.
	JobsQuantum int
	// JobsDataDir enables durable async jobs: submissions, state
	// transitions, and results persist to a write-ahead log +
	// snapshot in this directory and are recovered on startup. Empty
	// keeps the job tier fully in-memory.
	JobsDataDir string
	// JobsFsync is the WAL fsync policy when JobsDataDir is set:
	// "always" (default), "never", or a positive Go duration for
	// interval fsync (e.g. "100ms").
	JobsFsync string
	// TraceSampleEvery head-samples every Nth compute request into the
	// span flight recorder; 0 means 16, 1 samples every request,
	// negative disables head sampling. A request arriving with a
	// sampled W3C traceparent header is always recorded regardless.
	TraceSampleEvery int
	// TraceStoreSize bounds the trace flight recorder (recent ring plus
	// as many pinned error/degraded traces); 0 means 256.
	TraceStoreSize int
	// SLOInterval is the burn-rate engine's sampling cadence; 0 means 10s.
	SLOInterval time.Duration
	// SLOLatencyTarget is the latency objective's threshold: the
	// latency SLO counts a request good when it finished under this
	// bound; 0 means 500ms.
	SLOLatencyTarget time.Duration
	// SLOWindows overrides the burn-rate alerting windows; nil selects
	// the SRE-workbook defaults (5m/1h at 14.4x, 30m/6h at 6x).
	SLOWindows []slo.Window
	// ProfileDir enables post-mortem profile capture: a fast-burn SLO
	// alert writes CPU and heap profiles into a bounded ring of capture
	// directories under this path. Empty disables capture.
	ProfileDir string
	// ProfileMax bounds retained capture directories; 0 means 8.
	ProfileMax int
	// ProfileCPU is the CPU-profile window of one capture; 0 means 2s.
	ProfileCPU time.Duration
	// TenantMaxLabels caps the distinct tenant labels tracked from
	// X-API-Key before unknown keys fold into "other"; 0 means 64.
	TenantMaxLabels int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSeriesLen == 0 {
		c.MaxSeriesLen = 1 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.AccessLogEvery == 0 {
		c.AccessLogEvery = 64
	}
	if c.RecorderSize <= 0 {
		c.RecorderSize = 256
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 16
	}
	if c.TraceStoreSize <= 0 {
		c.TraceStoreSize = 256
	}
	if c.SLOInterval <= 0 {
		c.SLOInterval = 10 * time.Second
	}
	if c.SLOLatencyTarget <= 0 {
		c.SLOLatencyTarget = 500 * time.Millisecond
	}
	if c.TenantMaxLabels <= 0 {
		c.TenantMaxLabels = 64
	}
	return c
}

// endpoint labels used in metrics.
const (
	epDetect    = "detect"
	epBatch     = "batch"
	epJobs      = "jobs"
	epJobStatus = "job_status"
	epHealthz   = "healthz"
	epMetrics   = "metrics"
)

// Server is one instance of the detection service. Create with New,
// serve with Run (or mount Handler in an existing server), and Close
// when done.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	pool    *workerPool
	cache   *resultCache
	metrics *metrics

	// Observability: request-ID generator, structured logger, the
	// always-on flight recorder, and the access-log sampling counter.
	idGen     *obs.IDGen
	logger    *slog.Logger
	recorder  *obs.Recorder
	accessCtr atomic.Uint64

	// jobs is the async submit-then-poll tier (POST /v1/jobs), and
	// jobLatQ its submit-to-completion latency quantile estimator.
	jobs    *jobs.Manager
	jobLatQ *obs.Quantiles

	// Span tracing: the trace flight recorder behind /debug/traces,
	// the head-sampling counter, and the tenant-label cap shared by
	// metrics and recorders.
	spans    *trace.SpanStore
	traceCtr atomic.Uint64
	tenants  *tenantCounts

	// SLO burn-rate engine, its ticker-stop channel, and the
	// post-mortem profile ring its fast-burn edge hook writes into.
	sloEng   *slo.Engine
	sloDone  chan struct{}
	sloStop  sync.Once
	profiles *slo.ProfileRing

	// breakers guard the compute endpoints (nil entries never trip).
	breakers map[string]*breaker
	// draining flips once shutdown begins: compute requests arriving
	// after that are shed with 503 instead of racing the pool close.
	draining atomic.Bool
	// jobEWMA is an exponentially-weighted moving average of one
	// detection's service time (float64 bits), feeding the admission
	// controller's queue-wait estimate.
	jobEWMA atomic.Uint64
}

// New assembles a Server from cfg. It errors when the durable job
// store cannot start: a bad fsync policy, an unusable data directory,
// or a replay failure (corrupt snapshot, injected wal/replay fault).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     newWorkerPool(cfg.Workers, cfg.QueueLen),
		cache:    newResultCache(cfg.CacheSize),
		idGen:    obs.NewIDGen(),
		logger:   cfg.Logger,
		recorder: obs.NewRecorder(cfg.RecorderSize),
		jobLatQ:  obs.NewQuantiles(),
		spans:    trace.NewSpanStore(cfg.TraceStoreSize),
		tenants:  newTenantCounts(cfg.TenantMaxLabels),
	}
	if cfg.ProfileDir != "" {
		s.profiles = slo.NewProfileRing(cfg.ProfileDir, cfg.ProfileMax, cfg.ProfileCPU)
	}
	// Everything execJob and onJobDone read must exist before jobs.Open:
	// a recovered queued job can reach a worker before Open returns.
	s.breakers = map[string]*breaker{
		epDetect: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		epBatch:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		epJobs:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	s.metrics = newMetrics(
		[]string{epDetect, epBatch, epJobs, epJobStatus, epHealthz, epMetrics},
		s.pool.depth, s.cache.len,
	)
	s.metrics.registerBreakers(s.breakers)
	s.metrics.registerCacheCorruptions(s.cache.corrupted)
	var durability *jobs.Durability
	if cfg.JobsDataDir != "" {
		policy, interval, err := wal.ParsePolicy(cfg.JobsFsync)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		durability = &jobs.Durability{
			Dir:          cfg.JobsDataDir,
			Codec:        walCodec{},
			Policy:       policy,
			SyncInterval: interval,
		}
	}
	// The async tier shares the server's ID mint (one job ID namespace
	// with request IDs) and executes exclusively on the worker pool —
	// PoolSubmit blocks while the pool is saturated, so the fair-share
	// dispatcher provides natural backpressure instead of a deep queue.
	// Recovered queued jobs from a previous process re-enter through
	// the same path during jobs.Open.
	mgr, err := jobs.Open(jobs.Config{
		Exec:               s.execJob,
		PoolSubmit:         func(run func()) error { return s.pool.submit(context.Background(), run) },
		Timeout:            cfg.RequestTimeout,
		TTL:                cfg.JobsTTL,
		StoreCap:           cfg.JobsStore,
		MaxQueued:          cfg.JobsQueue,
		MaxQueuedPerTenant: cfg.JobsPerTenant,
		Quantum:            cfg.JobsQuantum,
		OnDone:             s.onJobDone,
		IDs:                s.idGen,
		Durability:         durability,
	})
	if err != nil {
		s.pool.close()
		return nil, err
	}
	s.jobs = mgr
	// The EWMA is kept in nanoseconds (duration arithmetic in admit and
	// jobRetrySeconds); the _seconds gauge converts at the edge.
	s.metrics.registerJobs(s.jobs, s.jobLatQ, func() float64 {
		return math.Float64frombits(s.jobEWMA.Load()) / float64(time.Second)
	})
	s.metrics.registerTracing(s.tenants)
	// The SLO engine samples the metrics counters just registered:
	// availability counts every compute request not answered with an
	// error or shed status, latency counts requests finishing under the
	// configured bound. A fast-burn rising edge captures profiles.
	s.sloEng = slo.New(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Target: 0.999, Source: s.availabilitySource},
			{Name: "latency", Target: 0.99, Source: s.latencySource},
		},
		Windows:    cfg.SLOWindows,
		Interval:   cfg.SLOInterval,
		OnFastBurn: s.onFastBurn,
	})
	s.metrics.registerSLO(s.sloEng)
	s.sloDone = make(chan struct{})
	go s.sloEng.Run(s.sloDone)
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/detect", s.instrument(epDetect, s.handleDetect))
	s.mux.Handle("POST /v1/detect/batch", s.instrument(epBatch, s.handleBatch))
	s.mux.Handle("POST /v1/jobs", s.instrument(epJobs, s.handleJobSubmit))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument(epJobStatus, s.handleJobStatus))
	s.mux.Handle("GET /healthz", s.instrument(epHealthz, s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument(epMetrics, s.handleMetrics))
	return s, nil
}

// Handler returns the fully-instrumented HTTP handler, for mounting
// the service inside another server (or an httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the async job manager (failing still-queued jobs) and
// then the worker pool after draining in-flight executions. Call after
// the HTTP listener has stopped accepting requests. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.sloStop.Do(func() { close(s.sloDone) })
	// Order matters: the job manager must stop dispatching before the
	// pool closes (its dispatcher blocks in pool.submit under load);
	// executions already on the pool finish inside the pool drain.
	s.jobs.Close()
	s.pool.close()
}

// availabilitySource feeds the availability SLO: good is every
// compute-endpoint request that was not answered with an error status
// (shed 429/503 responses land in the error counters too, so a shed
// request burns budget — overload is an availability failure from the
// client's side of the wire).
func (s *Server) availabilitySource() (good, total float64) {
	for _, ep := range []string{epDetect, epBatch, epJobs} {
		req := expvarInt(s.metrics.requests, ep)
		errs := expvarInt(s.metrics.errors, ep)
		total += req
		good += req - errs
	}
	return good, total
}

// latencySource feeds the latency SLO from the compute endpoints'
// latency histograms: good is every request that finished within the
// configured target.
func (s *Server) latencySource() (good, total float64) {
	targetMS := float64(s.cfg.SLOLatencyTarget) / float64(time.Millisecond)
	for _, ep := range []string{epDetect, epBatch, epJobs} {
		g, t := s.metrics.latency[ep].countUnder(targetMS)
		good += g
		total += t
	}
	return good, total
}

// onFastBurn is the SLO engine's rising-edge hook: log the page-worthy
// event and capture post-mortem profiles. The capture blocks for the
// CPU-profile window, so it runs off the engine's tick goroutine.
func (s *Server) onFastBurn(objective string) {
	if s.logger != nil {
		s.logger.Warn("slo fast burn", slog.String("objective", objective))
	}
	if s.profiles == nil {
		return
	}
	// Not tied to the run ctx: cancelling would abort the post-mortem
	// the capture exists to take; the profile window bounds it.
	go func() {
		dir, err := s.profiles.Capture("fast_burn-" + objective)
		switch {
		case err != nil:
			if s.logger != nil {
				s.logger.Error("profile capture failed",
					slog.String("objective", objective), slog.Any("error", err))
			}
		case dir != "":
			s.metrics.profileCaptures.Add(1)
			if s.logger != nil {
				s.logger.Warn("captured post-mortem profiles",
					slog.String("objective", objective), slog.String("dir", dir))
			}
		}
	}()
}

// mintSpanID derives a fresh span ID from the server's request-ID
// mint (the low half of a 128-bit splitmix64 ID is itself uniformly
// distributed).
func (s *Server) mintSpanID() trace.SpanID {
	id := s.idGen.Next()
	var sp trace.SpanID
	copy(sp[:], id[8:])
	if sp.IsZero() { // the all-zero span ID is invalid on the wire
		sp[7] = 1
	}
	return sp
}

// sampleTrace is the head-sampling decision for a request without an
// incoming sampled trace context.
func (s *Server) sampleTrace() bool {
	n := s.cfg.TraceSampleEvery
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return s.traceCtr.Add(1)%uint64(n) == 1
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// computeEndpoint reports whether ep admits detection work (and
// therefore falls under overload protection); health, metrics, and
// job polling stay reachable while draining or broken — that is when
// they matter most (finished async results must remain retrievable
// through a drain).
func computeEndpoint(ep string) bool {
	return ep == epDetect || ep == epBatch || ep == epJobs
}

// instrument wraps a handler with the request-size limit, the
// per-endpoint metrics (request count, error count, in-flight gauge,
// latency histogram), and — on the compute endpoints — the
// observability scope (a request ID minted at admission, propagated
// via context into the pipeline, returned in X-Request-ID, and
// committed to the flight recorder at completion) plus the overload
// protections: the draining gate, the circuit breaker, and a
// panic-recovery net that turns a handler panic into a structured 500
// instead of a torn connection.
func (s *Server) instrument(ep string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		exemplarTrace := "" // trace ID riding the latency histogram, sampled requests only
		defer func() { s.metrics.observe(ep, time.Since(start), rec.status, exemplarTrace) }()

		if computeEndpoint(ep) {
			// Mint the correlation ID at admission — before any gate can
			// reject the request — so even a shed 503 is retrievable from
			// the flight recorder by the ID the client received.
			scope := &obs.Scope{
				ID:       s.idGen.Next(),
				Logger:   s.logger,
				Endpoint: ep,
				Start:    start,
			}
			scope.Tenant = s.tenants.observe(r.Header.Get(TenantHeader))
			// W3C trace context: continue an incoming traceparent (same
			// trace ID, fresh span ID, remote span as the root's parent)
			// or mint a context from the request ID. An incoming sampled
			// flag forces recording; otherwise head sampling decides. The
			// sampled-out path allocates nothing: the nil *Recording is
			// carried through the whole pipeline by pointer compares.
			tp, hasTP := trace.ParseTraceparent(r.Header.Get("traceparent"))
			sc := trace.SpanContext{SpanID: s.mintSpanID()}
			if hasTP {
				sc.TraceID = tp.TraceID
			} else {
				sc.TraceID = [16]byte(scope.ID)
			}
			sc.Sampled = (hasTP && tp.Sampled) || s.sampleTrace()
			var spanRec *trace.Recording
			var remoteParent trace.SpanID
			if hasTP {
				remoteParent = tp.SpanID
			}
			if sc.Sampled {
				spanRec = trace.NewRecording(sc, 0)
				scope.Spans = spanRec
				s.metrics.tracesSampled.Add(1)
				exemplarTrace = sc.TraceIDString()
			}
			// Echo the (possibly minted) context so the caller can fetch
			// /debug/traces/{traceid}; requests that neither carried nor
			// sampled a trace stay header-free and allocation-free.
			if hasTP || sc.Sampled {
				rec.Header().Set("traceparent", sc.Traceparent())
			}
			rec.Header().Set("X-Request-ID", scope.ID.String())
			r = r.WithContext(obs.NewContext(r.Context(), scope))
			defer s.finishRequest(scope, spanRec, remoteParent, rec, start)

			if s.draining.Load() {
				s.metrics.shed.Add(ep, 1)
				scope.ErrorCode = "shutting_down"
				writeError(rec, http.StatusServiceUnavailable, "shutting_down",
					"server is draining; retry against another instance")
				return
			}
			br := s.breakers[ep]
			if !br.allow() {
				s.metrics.shed.Add(ep, 1)
				scope.ErrorCode = "breaker_open"
				rec.Header().Set("Retry-After", strconv.Itoa(br.retryAfter()))
				writeError(rec, http.StatusServiceUnavailable, "breaker_open",
					"endpoint suspended after repeated internal failures")
				return
			}
			defer func() {
				if v := recover(); v != nil {
					s.metrics.panicsRecovered.Add(1)
					scope.ErrorCode = "internal_panic"
					scope.Log(r.Context(), slog.LevelError, "handler panicked",
						slog.Any("panic", v))
					// Headers may already be gone; WriteHeader is then a
					// no-op and the client sees a truncated body, but the
					// breaker and metrics still record an internal failure.
					rec.status = http.StatusInternalServerError
					writeError(rec, http.StatusInternalServerError, "internal_panic",
						"request handler panicked: %v", v)
				}
				br.finish(rec.status == http.StatusInternalServerError)
			}()
			// Fault point "serve/handler": an unexpected failure inside
			// the HTTP layer itself (before any detection work).
			if err := faults.Check(faults.PointServeHandler); err != nil {
				scope.AddFault(faults.PointServeHandler)
				scope.ErrorCode = "internal_error"
				writeError(rec, http.StatusInternalServerError, "internal_error",
					"%v", err)
				return
			}
		}
		h(rec, r)
	})
}

// finishRequest commits one completed compute request to the flight
// recorders — the request record always, the span tree when the
// request was sampled — and emits the sampled access log. Runs
// deferred from instrument, after the handler (and the panic-recovery
// net) finished annotating the scope.
func (s *Server) finishRequest(scope *obs.Scope, spanRec *trace.Recording, remoteParent trace.SpanID, rec *statusRecorder, start time.Time) {
	record := obs.Record{
		ID:            scope.ID,
		Time:          start,
		Endpoint:      scope.Endpoint,
		Tenant:        scope.Tenant,
		Status:        rec.status,
		Duration:      time.Since(start),
		SeriesLen:     scope.SeriesLen,
		BatchSize:     scope.BatchSize,
		OptionsDigest: scope.OptionsDigest,
		Cached:        scope.Cached,
		ErrorCode:     scope.ErrorCode,
		DegradedCount: scope.DegradedCount,
		ItemErrors:    scope.ItemErrors,
		FaultPoints:   scope.Faults(),
		Degraded:      scope.Degraded,
		Trace:         scope.Trace,
	}
	s.recorder.Record(&record)
	if spanRec != nil {
		spanRec.FinishRoot(registry.SpanRequest, remoteParent, start, record.Duration,
			trace.Attr{Key: "endpoint", Value: scope.Endpoint},
			trace.Attr{Key: "status", Value: strconv.Itoa(rec.status)},
			trace.Attr{Key: "tenant", Value: scope.Tenant},
			trace.Attr{Key: "request_id", Value: scope.ID.String()},
		)
		tr := trace.TraceRecord{
			TraceID:  spanRec.Context().TraceID,
			Time:     start,
			Duration: record.Duration,
			Endpoint: scope.Endpoint,
			Tenant:   scope.Tenant,
			Status:   rec.status,
			Outcome:  record.Outcome(),
			Spans:    spanRec.Spans(),
			Dropped:  spanRec.Dropped(),
		}
		s.spans.Add(&tr)
		s.metrics.traceSpans.Add(int64(len(tr.Spans)))
	}
	if s.logger == nil {
		return
	}
	// Exceptional requests always log; healthy ones are sampled.
	exceptional := record.Interesting()
	if !exceptional {
		if s.cfg.AccessLogEvery < 1 {
			return
		}
		if s.accessCtr.Add(1)%uint64(s.cfg.AccessLogEvery) != 0 {
			return
		}
	}
	level := slog.LevelInfo
	if record.Status >= 500 {
		level = slog.LevelError
	} else if exceptional {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("endpoint", record.Endpoint),
		slog.Int("status", record.Status),
		slog.Duration("duration", record.Duration),
		slog.Bool("cached", record.Cached),
	}
	if record.ErrorCode != "" {
		attrs = append(attrs, slog.String("error_code", record.ErrorCode))
	}
	if record.DegradedCount > 0 {
		attrs = append(attrs, slog.Int("degraded", record.DegradedCount))
	}
	if record.ItemErrors > 0 {
		attrs = append(attrs, slog.Int("item_errors", record.ItemErrors))
	}
	if len(record.FaultPoints) > 0 {
		attrs = append(attrs, slog.Any("fault_points", record.FaultPoints))
	}
	scope.Log(context.Background(), level, "request", attrs...)
}

// ewmaAlpha is the smoothing factor of the detection service-time
// average feeding the admission controller.
const ewmaAlpha = 0.2

// observeJobTime folds one detection's service time into the EWMA.
func (s *Server) observeJobTime(d time.Duration) {
	for {
		old := s.jobEWMA.Load()
		prev := math.Float64frombits(old)
		next := float64(d)
		if old != 0 {
			next = ewmaAlpha*float64(d) + (1-ewmaAlpha)*prev
		}
		if s.jobEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// admit decides whether a compute request may enter the worker queue.
// It sheds (returning a Retry-After value in seconds) when the queue
// is already full, or when the estimated wait for a new job — queued
// jobs times the average service time, spread over the workers —
// already exceeds the request timeout, meaning the request would only
// occupy queue space until its own deadline kills it. Shedding at the
// door with 429 keeps the queue short enough that accepted requests
// still finish in time; it is the difference between a slow service
// and a collapsed one.
func (s *Server) admit() (retryAfter int, ok bool) {
	if s.pool.saturated() {
		return 1, false
	}
	avg := math.Float64frombits(s.jobEWMA.Load())
	if avg <= 0 {
		return 0, true
	}
	wait := time.Duration(float64(s.pool.depth()) * avg / float64(s.pool.workers))
	if wait <= s.cfg.RequestTimeout {
		return 0, true
	}
	secs := int((wait - s.cfg.RequestTimeout + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs, false
}

// Run listens on cfg.Addr and serves until ctx is cancelled (e.g. by
// SIGTERM via signal.NotifyContext), then shuts down gracefully:
// the listener closes, in-flight requests get up to DrainTimeout to
// finish, and the worker pool drains. Returns nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	// The bound address is logged (not just configured) so operators —
	// and the e2e harness — can discover the actual port when the
	// config asked for :0.
	if s.logger != nil {
		s.logger.Info("api listening", slog.String("addr", ln.Addr().String()))
	}
	if s.cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", s.cfg.DebugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		if s.logger != nil {
			s.logger.Info("debug listening", slog.String("addr", dln.Addr().String()))
		}
		// The debug server lives and dies with the run context; it has
		// no in-flight work worth draining, so Close (not Shutdown) is
		// enough.
		dbg := &http.Server{Handler: s.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = dbg.Serve(dln) }()
		defer dbg.Close()
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on a caller-provided listener (useful for tests and
// examples that need an ephemeral port).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts deliberately do not inherit the run context:
	// graceful shutdown should let in-flight detections finish inside
	// the drain window, not abort them the instant SIGTERM arrives.
	// Each request is still bounded by RequestTimeout.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	// Serve returns once Shutdown/Close below closes the listener; the
	// buffered errCh lets its send complete.
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	// Flip the draining gate before Shutdown: requests already inside
	// a handler finish normally within the drain window, but compute
	// requests that have not started yet are shed with a structured
	// 503 instead of racing the worker-pool close.
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	s.Close()
	if err != nil {
		return err
	}
	<-errCh // Serve has returned http.ErrServerClosed
	return nil
}
