// Async job API: submit-then-poll detection for clients that cannot
// hold a connection open for a long robust periodogram run.
//
//	POST /v1/jobs       accept a detect request  -> 202 + job ID
//	GET  /v1/jobs/{id}  poll status              -> state, or the Result
//
// Submissions are keyed by the result cache's (series, options)
// fingerprint and coalesced by internal/jobs: concurrent identical
// submissions ride one pipeline execution; dequeue is fair-share
// across tenants (the X-API-Key header).
package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"robustperiod/internal/jobs"
	"robustperiod/internal/obs"
)

// TenantHeader names a submission's tenant for fair-share scheduling.
// Absent or empty headers share the default tenant.
const TenantHeader = "X-API-Key"

// defaultTenant buckets submissions that carry no API key.
const defaultTenant = "default"

// jobPayload is what a submission hands the async executor: the
// validated request plus its precomputed cache key. The job store
// retains it, so it keeps the wire options, not the converted ones.
type jobPayload struct {
	series  []float64
	apiOpts *APIOptions
	key     cacheKey
	details bool
}

// JobSubmitResponse is the 202 body of POST /v1/jobs.
type JobSubmitResponse struct {
	JobID     string `json:"jobId"`
	State     string `json:"state"`
	StatusURL string `json:"statusUrl"`
}

// JobStatusResponse is the body of GET /v1/jobs/{id}. Result is set
// once the job is done; Error once it failed; both stay nil while the
// job is queued or running (poll again after Retry-After seconds).
type JobStatusResponse struct {
	JobID     string          `json:"jobId"`
	State     string          `json:"state"`
	Coalesced bool            `json:"coalesced,omitempty"`
	QueuedMS  float64         `json:"queuedMs,omitempty"`  // submit -> execution start
	ElapsedMS float64         `json:"elapsedMs,omitempty"` // submit -> terminal state
	Result    *DetectResponse `json:"result,omitempty"`
	Error     *APIError       `json:"error,omitempty"`
}

// execJob is the jobs.Manager's pipeline entry point, running on a
// worker-pool goroutine (the dispatcher already placed it there): it
// checks the payload and hands it to execute, which also looks up the
// result cache. A failure leaves as its wire error, so that the WAL
// keeps the code across a restart. The job's result is the answer, as
// in the cache.
func (s *Server) execJob(ctx context.Context, payload any) (any, bool, error) {
	jp, ok := payload.(*jobPayload)
	if !ok {
		return nil, false, errors.New("serve: malformed async job payload")
	}
	opts, err := jp.apiOpts.toOptions()
	if err != nil {
		return nil, false, &APIError{Code: "bad_options", Message: err.Error()}
	}
	o := s.execute(ctx, &detection{series: jp.series, opts: opts, key: jp.key, cache: true, async: true})
	if o.err != nil {
		_, apiErr := toAPIError(o.err)
		return nil, false, apiErr
	}
	return o.ans, len(o.ans.Degraded) > 0, nil
}

// onJobDone feeds terminal jobs into the submit-to-completion latency
// quantile estimator (the jobs.Manager fires it outside its lock).
func (s *Server) onJobDone(j jobs.Job) {
	if !j.Finished.IsZero() && !j.Submitted.IsZero() {
		s.jobLatQ.Observe(j.Finished.Sub(j.Submitted).Seconds())
	}
}

// jobKey converts the result cache's fingerprint into the coalescing
// key of internal/jobs.
func jobKey(k cacheKey) jobs.Key { return jobs.Key{H1: k.h1, H2: k.h2, N: k.n} }

// handleJobSubmit serves POST /v1/jobs: validate like /v1/detect,
// then enqueue instead of compute and answer 202 with the job ID.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	scope := obs.FromContext(r.Context())
	req, _, ok := s.decodeDetect(w, r, scope)
	if !ok {
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = defaultTenant
	}
	key := requestKey(req.Series, req.Options.canonicalTag())
	payload := &jobPayload{series: req.Series, apiOpts: req.Options, key: key, details: req.Details}
	j, err := s.jobs.Submit(r.Context(), tenant, jobKey(key), len(req.Series), payload)
	if err != nil {
		status, apiErr := toJobSubmitError(err)
		if status == http.StatusTooManyRequests {
			s.metrics.shed.Add(epJobs, 1)
			w.Header().Set("Retry-After", strconv.Itoa(s.jobRetrySeconds()))
		}
		fail(w, scope, status, apiErr)
		return
	}
	id := j.ID.String()
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		JobID:     id,
		State:     j.State.String(),
		StatusURL: "/v1/jobs/" + id,
	})
}

// toJobSubmitError maps a jobs.Manager submission failure onto a
// status and structured error.
func toJobSubmitError(err error) (int, *APIError) {
	switch {
	case errors.Is(err, jobs.ErrTenantQueueFull):
		return http.StatusTooManyRequests, &APIError{Code: "tenant_overloaded",
			Message: "this API key's pending-job bound is reached; retry later"}
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests, &APIError{Code: "overloaded",
			Message: "async job queue is full; retry later"}
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable, &APIError{Code: "shutting_down",
			Message: "server is draining; retry against another instance"}
	default:
		return http.StatusInternalServerError, &APIError{Code: "internal_error", Message: err.Error()}
	}
}

// jobRetrySeconds estimates how long a polling or shed client should
// wait before its next attempt: the async backlog times the EWMA
// service time, spread over the workers, clamped to [1, 30] seconds.
func (s *Server) jobRetrySeconds() int {
	avg := math.Float64frombits(s.jobEWMA.Load())
	wait := time.Second
	if avg > 0 {
		backlog := s.jobs.QueueDepth() + s.pool.depth()
		wait = time.Duration(float64(backlog+1) * avg / float64(s.pool.workers))
	}
	return retrySeconds(wait, 30)
}

// handleJobStatus serves GET /v1/jobs/{id}. Deliberately not gated by
// draining: results must stay retrievable while the server drains.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := obs.ParseID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_job_id",
			"job id must be 32 hex characters")
		return
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job_not_found",
			"no such job (it may have expired); resubmit to POST /v1/jobs")
		return
	}
	resp := JobStatusResponse{
		JobID:     j.ID.String(),
		State:     j.State.String(),
		Coalesced: j.Coalesced,
	}
	switch j.State {
	case jobs.StateQueued, jobs.StateRunning:
		w.Header().Set("Retry-After", strconv.Itoa(s.jobRetrySeconds()))
	case jobs.StateDone:
		resp.ElapsedMS = float64(j.Finished.Sub(j.Submitted)) / float64(time.Millisecond)
		if !j.Started.IsZero() {
			resp.QueuedMS = float64(j.Started.Sub(j.Submitted)) / float64(time.Millisecond)
		}
		if a, ok := j.Result.(*answer); ok {
			jp, _ := j.Payload.(*jobPayload)
			resp.Result = a.response(jp != nil && jp.details)
			resp.Result.ElapsedMS = resp.ElapsedMS
		}
	case jobs.StateFailed:
		resp.ElapsedMS = float64(j.Finished.Sub(j.Submitted)) / float64(time.Millisecond)
		_, resp.Error = toAPIError(j.Err)
	}
	writeJSON(w, http.StatusOK, resp)
}
