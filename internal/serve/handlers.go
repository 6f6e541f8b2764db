// HTTP handlers and the JSON wire types of the detection API.
//
// Endpoints:
//
//	POST /v1/detect        one series  -> periods (+ per-level details)
//	POST /v1/detect/batch  many series -> one result per series
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text exposition (version 0.0.4)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"robustperiod"
	"robustperiod/internal/faults"
	"robustperiod/internal/jobs"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
	"robustperiod/internal/trace"
)

// APIOptions is the JSON surface of robustperiod.Options. Every field
// is optional; the zero value reproduces the paper's defaults. It is
// deliberately flat — the nested library config (detect.Config,
// spectrum.Options) is an implementation detail clients should not
// couple to.
type APIOptions struct {
	Lambda           float64 `json:"lambda,omitempty"`
	ClipC            float64 `json:"clipC,omitempty"`
	Wavelet          string  `json:"wavelet,omitempty"` // "haar", "db2".."db10", "la8", "la16"
	MaxLevels        int     `json:"maxLevels,omitempty"`
	EnergyShare      float64 `json:"energyShare,omitempty"`
	Alpha            float64 `json:"alpha,omitempty"`     // Fisher significance level
	ACFHeight        float64 `json:"acfHeight,omitempty"` // minimum ACF peak height
	MinPeriod        int     `json:"minPeriod,omitempty"`
	SkipPreprocess   bool    `json:"skipPreprocess,omitempty"`
	RobustTrend      bool    `json:"robustTrend,omitempty"`
	FullRobustBand   bool    `json:"fullRobustBand,omitempty"`
	NonRobust        bool    `json:"nonRobust,omitempty"`
	NoHarmonicFilter bool    `json:"noHarmonicFilter,omitempty"`
	CircularBoundary bool    `json:"circularBoundary,omitempty"`
	// FillMissing interpolates NaN gaps in the series instead of
	// rejecting them; the response reports the filled share. Series
	// more than half missing are still rejected.
	FillMissing bool `json:"fill_missing,omitempty"`
}

// fillMissing reports the fill_missing flag, treating a nil options
// object as the default (off).
func (o *APIOptions) fillMissing() bool { return o != nil && o.FillMissing }

// toOptions converts the wire options to library options. A nil
// receiver yields the defaults.
func (o *APIOptions) toOptions() (*robustperiod.Options, error) {
	if o == nil {
		return nil, nil
	}
	opts := &robustperiod.Options{
		Lambda:           o.Lambda,
		ClipC:            o.ClipC,
		MaxLevels:        o.MaxLevels,
		EnergyShare:      o.EnergyShare,
		SkipPreprocess:   o.SkipPreprocess,
		RobustTrend:      o.RobustTrend,
		FullRobustBand:   o.FullRobustBand,
		NonRobust:        o.NonRobust,
		NoHarmonicFilter: o.NoHarmonicFilter,
		CircularBoundary: o.CircularBoundary,
		FillMissing:      o.FillMissing,
	}
	if o.Wavelet != "" {
		k, err := robustperiod.ParseWavelet(o.Wavelet)
		if err != nil {
			return nil, err
		}
		opts.Wavelet = k
	}
	opts.Detect.Alpha = o.Alpha
	opts.Detect.ACFHeight = o.ACFHeight
	opts.Detect.MinPeriod = o.MinPeriod
	return opts, nil
}

// canonicalTag returns the canonical byte encoding of the options for
// cache keying: JSON of the struct (fixed field order, omitempty), or
// "null" for defaults — so {"options":{}} and a missing options object
// hash identically.
func (o *APIOptions) canonicalTag() []byte {
	if o == nil || *o == (APIOptions{}) {
		return []byte("null")
	}
	b, _ := json.Marshal(o)
	return b
}

// digest hashes the canonical options encoding (FNV-1a) for the
// flight-recorder record: two requests with the same digest ran with
// identical options.
func (o *APIOptions) digest() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(o.canonicalTag())
	return h.Sum64()
}

// DetectRequest is the body of POST /v1/detect.
type DetectRequest struct {
	Series  []float64   `json:"series"`
	Options *APIOptions `json:"options,omitempty"`
	Details bool        `json:"details,omitempty"`
}

// BatchRequest is the body of POST /v1/detect/batch: many series
// sharing one options object, detected concurrently on the worker
// pool.
type BatchRequest struct {
	Series  [][]float64 `json:"series"`
	Options *APIOptions `json:"options,omitempty"`
	Details bool        `json:"details,omitempty"`
}

// LevelDetail is the per-wavelet-level diagnostic row of a response
// (the paper's Fig. 5 table, without the bulky periodogram/ACF
// arrays).
type LevelDetail struct {
	Level     int     `json:"level"`
	Variance  float64 `json:"variance"`
	Selected  bool    `json:"selected"`
	PValue    float64 `json:"pValue"`
	Candidate int     `json:"candidate"`
	ACFPeriod int     `json:"acfPeriod"`
	Final     int     `json:"final"`
	Periodic  bool    `json:"periodic"`
}

// DetectResponse is the body of a successful POST /v1/detect.
type DetectResponse struct {
	Periods   []int         `json:"periods"`
	Cached    bool          `json:"cached"`
	ElapsedMS float64       `json:"elapsedMs"`
	Levels    []LevelDetail `json:"levels,omitempty"`
	// Degraded lists the pipeline's graceful-degradation events for
	// this detection; absent on a clean full-quality run. A populated
	// list means the periods are a best-effort answer.
	Degraded []robustperiod.Degradation `json:"degraded,omitempty"`
	// FilledFraction is the share of input samples that were NaN and
	// interpolated (fill_missing only).
	FilledFraction float64 `json:"filledFraction,omitempty"`
	// Trace carries per-stage timings when the request asked for them
	// with ?debug=1.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// TraceStage is the wire form of one pipeline stage's accumulated
// timing in a ?debug=1 response. The P50/P90/P99 fields carry the
// server's streaming estimates of this stage's latency across all
// requests (not just this one), so a debug response situates its own
// timings against the fleet-wide distribution.
type TraceStage struct {
	Stage    string           `json:"stage"`
	Calls    int64            `json:"calls"`
	Ms       float64          `json:"ms"`
	Allocs   uint64           `json:"allocs"`
	Counters map[string]int64 `json:"counters,omitempty"`
	P50Ms    float64          `json:"p50Ms,omitempty"`
	P90Ms    float64          `json:"p90Ms,omitempty"`
	P99Ms    float64          `json:"p99Ms,omitempty"`
}

// TraceLevel is the wire form of one wavelet level's verdict trail.
type TraceLevel struct {
	Level    int     `json:"level"`
	Variance float64 `json:"variance"`
	Boundary int     `json:"boundary"`
	Selected bool    `json:"selected"`
	Fisher   bool    `json:"fisher"`
	Periodic bool    `json:"periodic"`
	Period   int     `json:"period,omitempty"`
}

// TraceSummary is the wire form of a detection's stage trace.
type TraceSummary struct {
	TotalMs float64      `json:"totalMs"`
	Stages  []TraceStage `json:"stages"`
	Levels  []TraceLevel `json:"levels,omitempty"`
}

// toTraceSummary converts the library trace summary to wire form.
func toTraceSummary(s *robustperiod.TraceSummary) *TraceSummary {
	if s == nil {
		return nil
	}
	out := &TraceSummary{TotalMs: float64(s.Total) / float64(time.Millisecond)}
	for _, st := range s.Stages {
		out.Stages = append(out.Stages, TraceStage{
			Stage:    st.Name,
			Calls:    st.Calls,
			Ms:       float64(st.Duration) / float64(time.Millisecond),
			Allocs:   st.Allocs,
			Counters: st.Counters,
		})
	}
	for _, lv := range s.Levels {
		out.Levels = append(out.Levels, TraceLevel{
			Level:    lv.Level,
			Variance: lv.Variance,
			Boundary: lv.Boundary,
			Selected: lv.Selected,
			Fisher:   lv.Fisher,
			Periodic: lv.Periodic,
			Period:   lv.Period,
		})
	}
	return out
}

// BatchItem is one entry of a batch response, in request order.
// Exactly one of Error or Periods is meaningful.
type BatchItem struct {
	Index          int                        `json:"index"`
	Periods        []int                      `json:"periods"`
	Cached         bool                       `json:"cached"`
	Levels         []LevelDetail              `json:"levels,omitempty"`
	Degraded       []robustperiod.Degradation `json:"degraded,omitempty"`
	FilledFraction float64                    `json:"filledFraction,omitempty"`
	Error          *APIError                  `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/detect/batch.
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	ElapsedMS float64     `json:"elapsedMs"`
}

// APIError is the structured error envelope every non-2xx response
// carries under the "error" key.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]*APIError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// decodeBody decodes one JSON value from an already size-limited body,
// translating the failure modes into structured responses. It returns
// false after writing the error response itself.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", maxErr.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_json", "invalid request body: %v", err)
		return false
	}
	return true
}

// validateSeries rejects series the detector cannot accept, before
// any CPU is spent: empty input, non-finite values (unrepresentable
// in strict JSON, but reachable through other encodings), and
// over-long series that would monopolize a worker. With allowNaN
// (the request set fill_missing) NaN gaps pass through to the
// library's interpolation, but Inf never does, and a series more than
// half missing is rejected here with the same taxonomy the library
// uses.
func validateSeries(series []float64, maxLen int, allowNaN bool) *APIError {
	if len(series) == 0 {
		return &APIError{Code: "empty_series", Message: "series must contain at least one value"}
	}
	if maxLen > 0 && len(series) > maxLen {
		return &APIError{
			Code:    "series_too_long",
			Message: fmt.Sprintf("series has %d points, limit is %d", len(series), maxLen),
		}
	}
	missing := 0
	for i, v := range series {
		if math.IsInf(v, 0) {
			return &APIError{
				Code:    "non_finite_value",
				Message: fmt.Sprintf("series[%d] is infinite", i),
			}
		}
		if math.IsNaN(v) {
			if !allowNaN {
				return &APIError{
					Code:    "non_finite_value",
					Message: fmt.Sprintf("series[%d] is not finite; fill gaps before submitting or set options.fill_missing", i),
				}
			}
			missing++
		}
	}
	if missing*2 > len(series) {
		return &APIError{
			Code:    "too_many_missing",
			Message: fmt.Sprintf("%d of %d samples are missing; refusing to interpolate more than half a series", missing, len(series)),
		}
	}
	return nil
}

// detOut is a worker's answer to one detection job, with the stage
// trace of the run that produced it.
type detOut struct {
	ans *answer
	tr  *robustperiod.TraceSummary
	err error
}

// runDetection serves one series: cache lookup, then a pool-bounded
// DetectDetailsContext, then cache fill. It reports whether the
// answer came from the cache. Every computed (non-cached) detection
// runs with a stage trace attached — the per-stage wall times feed
// the stage_latency_ms histograms, and ?debug=1 responses and the
// flight recorder carry the summary, which is returned beside the
// answer and never cached: a cache hit has no trace. bypassCache
// skips both cache read and fill, so a debug request always reports
// timings of an actual run, never a memoized result.
func (s *Server) runDetection(ctx context.Context, series []float64, apiOpts *APIOptions, bypassCache bool) (*answer, *robustperiod.TraceSummary, bool, error) {
	opts, err := apiOpts.toOptions()
	if err != nil {
		return nil, nil, false, &APIError{Code: "bad_options", Message: err.Error()}
	}
	var key cacheKey
	if !bypassCache {
		key = requestKey(series, apiOpts.canonicalTag())
		if a, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			return a, nil, true, nil
		}
		s.metrics.cacheMisses.Add(1)
	}
	if opts == nil {
		opts = &robustperiod.Options{}
	}
	opts.Trace = robustperiod.NewTrace()
	// When the request is sampled, attach its span recording to the
	// stage trace — every pipeline stage timer then also emits a span,
	// with zero changes at the core/spectrum call sites — and time the
	// queue wait and the execution as spans of their own.
	var spanRec *trace.Recording
	var rootID trace.SpanID
	if scope := obs.FromContext(ctx); scope != nil {
		if rec, ok := scope.Spans.(*trace.Recording); ok && rec != nil {
			spanRec = rec
			rootID = rec.Context().SpanID
			opts.Trace.AttachSpans(rec, rootID)
		}
	}
	var submitted time.Time
	if spanRec != nil {
		submitted = time.Now()
	}

	out := make(chan detOut, 1)
	job := func() {
		if spanRec != nil {
			spanRec.AddSpan(registry.SpanQueueWait, rootID, submitted, time.Since(submitted))
		}
		// A panic inside the detection must not kill the worker
		// goroutine — that would permanently shrink the pool. It is
		// converted to an error the handler maps to a structured 500.
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panicsRecovered.Add(1)
				out <- detOut{err: &workerPanicError{val: v}}
			}
		}()
		// Fault point "serve/worker": a failure between dequeue and
		// the library call (a poisoned job, a dead dependency).
		if err := faults.Check(faults.PointServeWorker); err != nil {
			obs.FromContext(ctx).AddFault(faults.PointServeWorker)
			out <- detOut{err: err}
			return
		}
		jobStart := time.Now()
		res, err := robustperiod.DetectDetailsContext(ctx, series, opts)
		if spanRec != nil {
			spanRec.AddSpan(registry.SpanJobExec, rootID, jobStart, time.Since(jobStart))
		}
		if err != nil {
			out <- detOut{err: err}
			return
		}
		s.observeJobTime(time.Since(jobStart))
		out <- detOut{ans: newAnswer(res), tr: res.Trace}
	}
	if err := s.pool.submit(ctx, job); err != nil {
		return nil, nil, false, err
	}
	o := <-out
	if o.err != nil {
		return nil, nil, false, o.err
	}
	if len(o.ans.Degraded) > 0 {
		s.metrics.degradedTotal.Add(1)
	}
	exTrace := ""
	if spanRec != nil {
		exTrace = spanRec.Context().TraceIDString()
	}
	s.metrics.observeStages(o.tr, exTrace)
	if !bypassCache {
		s.cache.add(key, o.ans)
	}
	return o.ans, o.tr, false, nil
}

// workerPanicError wraps a panic recovered inside a detection worker.
type workerPanicError struct{ val any }

func (e *workerPanicError) Error() string {
	return fmt.Sprintf("detection worker panicked: %v", e.val)
}

// toAPIError maps a detection failure onto a status and a structured
// error. An *APIError passes through unwrapped so its message is not
// double-prefixed with the code.
func toAPIError(err error) (int, *APIError) {
	var apiErr *APIError
	var panicErr *workerPanicError
	switch {
	case errors.As(err, &apiErr):
		return http.StatusBadRequest, apiErr
	case errors.As(err, &panicErr):
		return http.StatusInternalServerError, &APIError{Code: "internal_panic", Message: err.Error()}
	case faults.IsInjected(err):
		// An injected fault that nothing downstream could absorb is an
		// internal failure, never the client's.
		return http.StatusInternalServerError, &APIError{Code: "internal_error", Message: err.Error()}
	case errors.Is(err, robustperiod.ErrTooManyMissing):
		return http.StatusBadRequest, &APIError{Code: "too_many_missing", Message: err.Error()}
	case errors.Is(err, robustperiod.ErrNonFinite):
		return http.StatusBadRequest, &APIError{Code: "non_finite_value", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &APIError{Code: "deadline_exceeded", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		// Client went away; the status is written to a dead connection
		// but keeps logs and metrics truthful.
		return 499, &APIError{Code: "client_closed_request", Message: err.Error()}
	case errors.Is(err, jobs.ErrLostToRestart):
		// The process died mid-execution and crash recovery restored
		// the job as failed; the computation itself must be redone.
		return http.StatusServiceUnavailable, &APIError{Code: "lost_to_restart",
			Message: "the server restarted while this job was executing; resubmit to POST /v1/jobs"}
	case errors.Is(err, errPoolClosed), errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable, &APIError{Code: "shutting_down", Message: err.Error()}
	default:
		return http.StatusBadRequest, &APIError{Code: "detect_failed", Message: err.Error()}
	}
}

// answer is what a finished detection leaves behind: the periods, the
// full Fig. 5 level table whatever the first caller's details flag,
// the degradations and the filled fraction. The result cache, the job
// store, the WAL and every response body share it. The pipeline's
// spectra, intermediate series and stage trace stay behind, so an
// answer grows only with the wavelet level count (64 bytes a level)
// and stays around a kilobyte at most. Its JSON form is the result of
// a WAL finish or job record, so the tags must not change.
type answer struct {
	Periods        []int                      `json:"periods"`
	Levels         []LevelDetail              `json:"levels,omitempty"`
	Degraded       []robustperiod.Degradation `json:"degraded,omitempty"`
	FilledFraction float64                    `json:"filledFraction,omitempty"`
}

// newAnswer converts a pipeline Result where its detection finishes.
// Periods are never nil, for stable JSON ("periods":[], not null).
func newAnswer(res *robustperiod.Result) *answer {
	a := &answer{
		Periods:        res.Periods,
		Levels:         make([]LevelDetail, 0, len(res.Levels)),
		Degraded:       res.Degraded,
		FilledFraction: res.FilledFraction,
	}
	if a.Periods == nil {
		a.Periods = []int{}
	}
	for _, lv := range res.Levels {
		d := lv.Detection
		a.Levels = append(a.Levels, LevelDetail{
			Level:     lv.Level,
			Variance:  lv.Variance.Variance,
			Selected:  lv.Selected,
			PValue:    d.PValue,
			Candidate: d.Candidate,
			ACFPeriod: d.ACFPeriod,
			Final:     d.Final,
			Periodic:  d.Periodic,
		})
	}
	return a
}

// response renders the answer as a response body, with the level
// table only for a caller that asked for details.
func (a *answer) response(details bool) *DetectResponse {
	r := &DetectResponse{Periods: a.Periods, Degraded: a.Degraded, FilledFraction: a.FilledFraction}
	if details {
		r.Levels = a.Levels
	}
	return r
}

// handleDetect serves POST /v1/detect.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	scope := obs.FromContext(r.Context())
	var req DetectRequest
	if !decodeBody(w, r, &req) {
		if scope != nil {
			scope.ErrorCode = "bad_request"
		}
		return
	}
	if scope != nil {
		scope.SeriesLen = len(req.Series)
		scope.OptionsDigest = req.Options.digest()
	}
	if apiErr := validateSeries(req.Series, s.cfg.MaxSeriesLen, req.Options.fillMissing()); apiErr != nil {
		if scope != nil {
			scope.ErrorCode = apiErr.Code
		}
		writeJSON(w, http.StatusBadRequest, map[string]*APIError{"error": apiErr})
		return
	}
	if retry, ok := s.admit(); !ok {
		s.metrics.shed.Add(epDetect, 1)
		if scope != nil {
			scope.ErrorCode = "overloaded"
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"worker queue is full; retry after %d s", retry)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// ?debug=1 inlines the per-stage trace into the response; such a
	// request bypasses the result cache so the timings describe a real
	// run of this exact request.
	debug := r.URL.Query().Get("debug") == "1"
	a, tr, cached, err := s.runDetection(ctx, req.Series, req.Options, debug)
	if err != nil {
		status, apiErr := toAPIError(err)
		if scope != nil {
			scope.ErrorCode = apiErr.Code
		}
		writeJSON(w, status, map[string]*APIError{"error": apiErr})
		return
	}
	if scope != nil {
		scope.Cached = cached
		scope.DegradedCount = len(a.Degraded)
		if len(a.Degraded) > 0 {
			scope.Degraded = a.Degraded
		}
		if tr != nil {
			scope.Trace = tr
		}
	}
	resp := a.response(req.Details)
	resp.Cached = cached
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if debug {
		resp.Trace = toTraceSummary(tr)
		s.metrics.annotateStageQuantiles(resp.Trace)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/detect/batch: every series is its own
// pool job, so a batch uses as many cores as are free, and one bad
// series fails only its own slot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	scope := obs.FromContext(r.Context())
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		if scope != nil {
			scope.ErrorCode = "bad_request"
		}
		return
	}
	if scope != nil {
		scope.BatchSize = len(req.Series)
		scope.OptionsDigest = req.Options.digest()
	}
	if len(req.Series) == 0 {
		if scope != nil {
			scope.ErrorCode = "empty_batch"
		}
		writeError(w, http.StatusBadRequest, "empty_batch", "batch must contain at least one series")
		return
	}
	if s.cfg.MaxBatch > 0 && len(req.Series) > s.cfg.MaxBatch {
		if scope != nil {
			scope.ErrorCode = "batch_too_large"
		}
		writeError(w, http.StatusBadRequest, "batch_too_large",
			"batch has %d series, limit is %d", len(req.Series), s.cfg.MaxBatch)
		return
	}
	// One admission decision covers the whole batch: a half-accepted
	// batch is worse than a shed one (the client must retry anyway).
	if retry, ok := s.admit(); !ok {
		s.metrics.shed.Add(epBatch, 1)
		if scope != nil {
			scope.ErrorCode = "overloaded"
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"worker queue is full; retry after %d s", retry)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	items := make([]BatchItem, len(req.Series))
	var wg sync.WaitGroup
	for i, series := range req.Series {
		items[i].Index = i
		items[i].Periods = []int{}
		if apiErr := validateSeries(series, s.cfg.MaxSeriesLen, req.Options.fillMissing()); apiErr != nil {
			items[i].Error = apiErr
			continue
		}
		wg.Add(1)
		i, series := i, series
		go func() {
			defer wg.Done()
			a, _, cached, err := s.runDetection(ctx, series, req.Options, false)
			if err != nil {
				_, items[i].Error = toAPIError(err)
				return
			}
			d := a.response(req.Details)
			items[i] = BatchItem{Index: i, Periods: d.Periods, Cached: cached,
				Levels: d.Levels, Degraded: d.Degraded, FilledFraction: d.FilledFraction}
		}()
	}
	wg.Wait()
	if scope != nil {
		var degraded []robustperiod.Degradation
		for i := range items {
			if items[i].Error != nil {
				scope.ItemErrors++
			}
			scope.DegradedCount += len(items[i].Degraded)
			degraded = append(degraded, items[i].Degraded...)
		}
		if len(degraded) > 0 {
			scope.Degraded = degraded
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Results:   items,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleHealthz serves GET /healthz. While an SLO burn-rate alert is
// firing the service reports degraded-but-up: still 200 (the process
// serves traffic; flapping a load balancer on a burn alert would turn
// a partial outage into a full one), but with the evaluated SLO state
// inlined so probes and humans see what is burning.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.sloEng.Firing() {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "degraded",
			"slo":    s.sloEng.Status(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves GET /metrics, content-negotiated: OpenMetrics
// 1.0 with trace-ID bucket exemplars when the scraper asks for it
// (Accept: application/openmetrics-text), the classic Prometheus
// 0.0.4 text format otherwise. The expvar JSON view of the same
// counters stays available on the debug listener at /debug/vars.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ct := obs.NegotiateContentType(r.Header.Get("Accept"))
	w.Header().Set("Content-Type", ct)
	_ = s.metrics.writeProm(w, ct == obs.OpenMetricsContentType)
}
