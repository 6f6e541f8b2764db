package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
)

// getJob polls GET /v1/jobs/{id} once.
func getJob(t *testing.T, base, id string) (*http.Response, JobStatusResponse) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatusResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return resp, st
}

// awaitJob polls until the job reaches a terminal state.
func awaitJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, st := getJob(t, base, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatusResponse{}
}

// submitJob posts one async submission and returns the 202 envelope.
func submitJob(t *testing.T, base, body, tenant string) JobSubmitResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var sub JobSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if sub.JobID == "" || sub.StatusURL != "/v1/jobs/"+sub.JobID {
		t.Fatalf("malformed submit response %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != sub.StatusURL {
		t.Fatalf("Location = %q, want %q", loc, sub.StatusURL)
	}
	return sub
}

// metricsText fetches the Prometheus exposition.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobsSubmitPollResult is the end-to-end happy path: 202, poll
// through to done, and a result matching the synchronous endpoint.
func TestJobsSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := sineSeries(512, 24, 1)
	body := detectBody(t, series, nil, true)

	sub := submitJob(t, ts.URL, body, "team-metrics")
	st := awaitJob(t, ts.URL, sub.JobID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job finished %q (result %v), want done", st.State, st.Result)
	}
	if len(st.Result.Levels) == 0 {
		t.Fatal("details=true submission lost its level details")
	}
	if st.ElapsedMS <= 0 {
		t.Fatalf("elapsedMs = %v, want > 0", st.ElapsedMS)
	}

	// The synchronous endpoint must agree (and hit the cache the async
	// run filled).
	resp, syncBody := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync detect status = %d", resp.StatusCode)
	}
	var syncResp DetectResponse
	if err := json.Unmarshal(syncBody, &syncResp); err != nil {
		t.Fatal(err)
	}
	if !syncResp.Cached {
		t.Fatal("sync detect after async job missed the shared cache")
	}
	if fmt.Sprint(syncResp.Periods) != fmt.Sprint(st.Result.Periods) {
		t.Fatalf("async periods %v != sync periods %v", st.Result.Periods, syncResp.Periods)
	}

	prom := metricsText(t, ts.URL)
	for _, want := range []string{
		"rp_jobs_submitted_total 1",
		`rp_jobs_completed_total{outcome="ok"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	fams, err := obs.ParseExposition([]byte(prom))
	if err != nil {
		t.Fatal(err)
	}
	ewma := obs.FindFamily(fams, registry.MetricAdmissionJobTime)
	if ewma == nil || len(ewma.Samples) != 1 {
		t.Fatal("rp_admission_job_time_seconds missing from exposition")
	}
	// One sub-second detection ran, so a seconds-unit gauge must be
	// tiny; a huge value means the nanosecond EWMA leaked unconverted.
	if v := ewma.Samples[0].Value; v <= 0 || v > 60 {
		t.Errorf("rp_admission_job_time_seconds = %g, want within (0, 60]", v)
	}
}

// TestJobsCoalesceHTTP: identical concurrent submissions coalesce onto
// one execution, in memory and with a WAL; a jobs/exec delay holds the
// flight open so the followers deterministically find it in flight.
// awaitJob fails any job not finished within 30 s.
func TestJobsCoalesceHTTP(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":delay=400ms"))
	t.Cleanup(faults.Disable)
	t.Run("memory", func(t *testing.T) { testJobsCoalesce(t, Config{}) })
	t.Run("durable", func(t *testing.T) {
		testJobsCoalesce(t, Config{JobsDataDir: t.TempDir(), JobsFsync: "25ms"})
	})
}

func testJobsCoalesce(t *testing.T, cfg Config) {
	_, ts := newTestServer(t, cfg)
	body := detectBody(t, sineSeries(256, 16, 2), nil, false)

	leader := submitJob(t, ts.URL, body, "dashboards")
	const followers = 7
	subs := make([]JobSubmitResponse, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i] = submitJob(t, ts.URL, body, "alerting")
		}(i)
	}
	wg.Wait()

	want := awaitJob(t, ts.URL, leader.JobID)
	if want.State != "done" {
		t.Fatalf("leader finished %q", want.State)
	}
	if want.Coalesced {
		t.Fatal("leader reported coalesced")
	}
	for i, sub := range subs {
		st := awaitJob(t, ts.URL, sub.JobID)
		if st.State != "done" {
			t.Fatalf("follower %d finished %q", i, st.State)
		}
		if !st.Coalesced {
			t.Fatalf("follower %d was not coalesced", i)
		}
		if fmt.Sprint(st.Result.Periods) != fmt.Sprint(want.Result.Periods) {
			t.Fatalf("follower %d periods %v != leader %v", i, st.Result.Periods, want.Result.Periods)
		}
	}
	prom := metricsText(t, ts.URL)
	if !strings.Contains(prom, fmt.Sprintf("rp_jobs_coalesced_total %d", followers)) {
		t.Errorf("metrics exposition does not report %d coalesced jobs", followers)
	}
	if !strings.Contains(prom, fmt.Sprintf("rp_jobs_submitted_total %d", followers+1)) {
		t.Errorf("metrics exposition does not report %d submissions", followers+1)
	}
}

// TestJobsFaultTenantShed: the per-tenant bound sheds with 429 +
// Retry-After while other tenants still get through (fair-share
// admission, not a global gate).
func TestJobsFaultTenantShed(t *testing.T) {
	// Hold executions so the first job stays live for the whole test.
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":delay=2s"))
	t.Cleanup(faults.Disable)
	_, ts := newTestServer(t, Config{JobsPerTenant: 1})
	bodyA := detectBody(t, sineSeries(256, 16, 3), nil, false)
	bodyB := detectBody(t, sineSeries(256, 16, 4), nil, false)
	bodyC := detectBody(t, sineSeries(256, 16, 5), nil, false)

	submitJob(t, ts.URL, bodyA, "greedy")

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(bodyB))
	req.Header.Set(TenantHeader, "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("429 without error envelope: %v", err)
	}
	if env.Error.Code != "tenant_overloaded" {
		t.Fatalf("shed code = %q, want tenant_overloaded", env.Error.Code)
	}

	// A different API key is unaffected by the greedy tenant's bound.
	submitJob(t, ts.URL, bodyC, "polite")
	prom := metricsText(t, ts.URL)
	if !strings.Contains(prom, "rp_jobs_shed_total 1") {
		t.Error("metrics exposition does not report the shed submission")
	}
}

// TestJobsChaosExecFailure: an injected jobs/exec failure surfaces as
// a failed job with a structured error, and the failure is pinned in
// the store (still pollable) rather than lost.
func TestJobsChaosExecFailure(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":error"))
	t.Cleanup(faults.Disable)
	_, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts.URL, detectBody(t, sineSeries(256, 16, 6), nil, false), "")
	st := awaitJob(t, ts.URL, sub.JobID)
	if st.State != "failed" || st.Error == nil {
		t.Fatalf("job under exec fault = %+v, want failed with error", st)
	}
	if st.Error.Code != "internal_error" {
		t.Fatalf("error code = %q, want internal_error", st.Error.Code)
	}
	prom := metricsText(t, ts.URL)
	if !strings.Contains(prom, `rp_jobs_completed_total{outcome="failed"} 1`) {
		t.Error("metrics exposition does not report the failed job")
	}
}

// TestJobsChaosStoreFault: an injected jobs/store failure rejects the
// submission with a 500 before any job state exists.
func TestJobsChaosStoreFault(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsStore + ":error"))
	t.Cleanup(faults.Disable)
	_, ts := newTestServer(t, Config{BreakerThreshold: -1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", detectBody(t, sineSeries(256, 16, 7), nil, false))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit under store fault = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "internal_error" {
		t.Fatalf("error code = %q", code)
	}
	prom := metricsText(t, ts.URL)
	if !strings.Contains(prom, "rp_jobs_submitted_total 0") {
		t.Error("store fault still counted a submission")
	}
}

// TestJobsBadRequests covers the validation surface shared with
// /v1/detect plus the job-ID parse.
func TestJobsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSeriesLen: 128})
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"empty series", `{"series":[]}`, "empty_series"},
		{"bad json", `{"series":[1,2`, "bad_json"},
		{"series too long", detectBody(t, make([]float64, 200), nil, false), "series_too_long"},
		{"unknown wavelet", `{"series":[1,2,3],"options":{"wavelet":"db99"}}`, "bad_options"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			if code := errCode(t, body); code != tc.wantCode {
				t.Errorf("code = %q want %q", code, tc.wantCode)
			}
		})
	}

	resp, body := getPath(t, ts.URL, "/v1/jobs/not-a-job-id")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_job_id" {
		t.Fatalf("bad id: status %d body %s", resp.StatusCode, body)
	}
	resp, body = getPath(t, ts.URL, "/v1/jobs/"+strings.Repeat("ab", 16))
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != "job_not_found" {
		t.Fatalf("unknown id: status %d body %s", resp.StatusCode, body)
	}
}

func getPath(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestJobsDrainingPollStaysUp: a draining server sheds new
// submissions with 503 but keeps finished results pollable — async
// clients must be able to collect across a rolling restart's drain.
func TestJobsDrainingPollStaysUp(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts.URL, detectBody(t, sineSeries(256, 16, 8), nil, false), "")
	if st := awaitJob(t, ts.URL, sub.JobID); st.State != "done" {
		t.Fatalf("job finished %q", st.State)
	}
	s.draining.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", detectBody(t, sineSeries(256, 16, 9), nil, false))
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "shutting_down" {
		t.Fatalf("draining submit: status %d body %s", resp.StatusCode, body)
	}
	pollResp, st := getJob(t, ts.URL, sub.JobID)
	if pollResp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("draining poll: status %d state %q", pollResp.StatusCode, st.State)
	}
}

// TestJobsRetryAfterWhilePending: a queued or running job's status
// response carries a Retry-After hint for the polling backoff.
func TestJobsRetryAfterWhilePending(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":delay=1s"))
	t.Cleanup(faults.Disable)
	_, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts.URL, detectBody(t, sineSeries(256, 16, 10), nil, false), "")
	resp, st := getJob(t, ts.URL, sub.JobID)
	if st.State != "queued" && st.State != "running" {
		t.Skipf("job already %q; nothing to assert", st.State)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pending job status without Retry-After")
	}
}
