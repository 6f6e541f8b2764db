// End-to-end drill of the async job API against a real rpserved
// binary: submit over TCP, poll with a backoff that honors the
// Retry-After hint, read the result back, coalesce a concurrent
// duplicate burst onto one execution, and confirm the job counters in
// a live /metrics scrape.
package e2e

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"robustperiod/internal/obs"
)

// jobSubmit mirrors serve.JobSubmitResponse (decoded, not imported:
// the e2e package speaks only the wire format a real client sees).
type jobSubmit struct {
	JobID     string `json:"jobId"`
	State     string `json:"state"`
	StatusURL string `json:"statusUrl"`
}

// jobStatus mirrors serve.JobStatusResponse.
type jobStatus struct {
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced"`
	Result    *struct {
		Periods []int `json:"periods"`
	} `json:"result"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// submitJob POSTs one async submission and decodes the 202 body.
func submitJob(t *testing.T, api, body string) jobSubmit {
	t.Helper()
	resp, raw := post(t, api+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s), want 202", resp.StatusCode, raw)
	}
	var sub jobSubmit
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.ParseID(sub.JobID); !ok {
		t.Fatalf("submit returned unusable job id %q", sub.JobID)
	}
	if loc := resp.Header.Get("Location"); loc != sub.StatusURL {
		t.Fatalf("Location %q != statusUrl %q", loc, sub.StatusURL)
	}
	return sub
}

// pollJob polls a job until it reaches a terminal state, sleeping per
// the server's Retry-After hint (capped so the test stays fast).
func pollJob(t *testing.T, api string, sub jobSubmit) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, raw := get(t, api+sub.StatusURL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d (%s)", sub.JobID, resp.StatusCode, raw)
		}
		var st jobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		// Pending polls must carry the Retry-After hint; honor it,
		// capped so the test stays fast on a hint meant for humans.
		wait := 50 * time.Millisecond
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 {
			t.Fatalf("pending poll Retry-After = %q, want a positive integer", ra)
		}
		if hinted := time.Duration(secs) * time.Second; hinted < wait {
			wait = hinted
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", sub.JobID, st.State)
		}
		time.Sleep(wait)
	}
}

func TestJobsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and boots a real binary")
	}
	// A 300ms execution delay holds flights open long enough for a
	// concurrent duplicate burst to coalesce deterministically.
	api, _, _, _ := startServer(t, "jobs/exec:delay=300ms")

	body := detectBody(512, 24)

	// 1. Submit -> poll -> result: the async path agrees with the
	// synchronous endpoint on the same series.
	sub := submitJob(t, api, body)
	st := pollJob(t, api, sub)
	if st.State != "done" || st.Result == nil || st.Error != nil {
		t.Fatalf("job finished as %q (result %v, error %v), want done with result",
			st.State, st.Result != nil, st.Error)
	}
	if len(st.Result.Periods) == 0 || st.Result.Periods[0] != 24 {
		t.Fatalf("async periods = %v, want [24]", st.Result.Periods)
	}

	// 2. A concurrent burst of identical submissions coalesces: every
	// follower reports Coalesced and the same periods.
	const followers = 4
	leader := submitJob(t, api, body)
	subs := make([]jobSubmit, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i] = submitJob(t, api, body)
		}(i)
	}
	wg.Wait()
	if lst := pollJob(t, api, leader); lst.State != "done" {
		t.Fatalf("leader finished as %q", lst.State)
	}
	coalesced := 0
	for _, s := range subs {
		fst := pollJob(t, api, s)
		if fst.State != "done" || fst.Result == nil {
			t.Fatalf("follower %s finished as %q", s.JobID, fst.State)
		}
		if fst.Result.Periods[0] != 24 {
			t.Fatalf("follower periods = %v", fst.Result.Periods)
		}
		if fst.Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Errorf("no follower coalesced out of %d concurrent duplicates", followers)
	}

	// 3. The job counters surface in a live scrape.
	resp, raw := get(t, api+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if err := obs.CheckExposition(raw); err != nil {
		t.Fatalf("/metrics fails conformance: %v", err)
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, fams, "rp_jobs_submitted_total", "", "", float64(2+followers))
	wantValue(t, fams, "rp_jobs_coalesced_total", "", "", float64(coalesced))
	wantValue(t, fams, "rp_jobs_completed_total", "outcome", "ok", 2)
}
