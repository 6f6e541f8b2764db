package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"robustperiod/internal/faults"
)

// TestCacheHitRecordHasNoTrace: a cache hit runs no pipeline, so its
// flight-recorder record must not carry a stage trace — in particular
// not the trace of the earlier run that filled the cache.
func TestCacheHitRecordHasNoTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := debugServer(t, s)
	body := detectBody(t, sineSeries(480, 24, 23), nil, false)
	postJSON(t, ts.URL+"/v1/detect", body)
	resp, raw := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat detect: %d (%s)", resp.StatusCode, raw)
	}
	status, rec := fetchRecord(t, dbg.URL, resp.Header.Get("X-Request-ID"))
	if status != http.StatusOK {
		t.Fatalf("record lookup -> %d", status)
	}
	if !rec.Cached {
		t.Fatal("repeat detect was not a cache hit")
	}
	if rec.Trace != nil {
		t.Errorf("cache-hit record carries a %d-stage trace of an earlier run", len(rec.Trace.Stages))
	}
}

// levelsOf decodes the level table out of a response or result body,
// failing when a details:false body carries one.
func levelsOf(t *testing.T, raw []byte, details bool) []LevelDetail {
	t.Helper()
	var body struct {
		Levels []LevelDetail `json:"levels"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if !details && strings.Contains(string(raw), `"levels"`) {
		t.Errorf("details:false body carries levels: %s", raw)
	}
	return body.Levels
}

// TestDetailsParityThroughCacheAndCoalescing: the first caller's
// details flag must not shape what later callers get. A details:false
// detection fills the cache (or leads a coalesced job flight), and a
// details:true caller served from it sees the same level table as an
// uncached details:true detect.
func TestDetailsParityThroughCacheAndCoalescing(t *testing.T) {
	series := sineSeries(512, 24, 29)
	plain := detectBody(t, series, nil, false)
	detailed := detectBody(t, series, nil, true)

	_, ref := newTestServer(t, Config{})
	resp, raw := postJSON(t, ref.URL+"/v1/detect?debug=1", detailed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference detect: %d (%s)", resp.StatusCode, raw)
	}
	want := levelsOf(t, raw, true)
	if len(want) == 0 {
		t.Fatal("reference detect returned no levels")
	}

	t.Run("detect", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		_, raw := postJSON(t, ts.URL+"/v1/detect", plain)
		levelsOf(t, raw, false)
		_, raw = postJSON(t, ts.URL+"/v1/detect", detailed)
		var dr DetectResponse
		if err := json.Unmarshal(raw, &dr); err != nil || !dr.Cached {
			t.Fatalf("details:true repeat not served from cache: %s", raw)
		}
		if !reflect.DeepEqual(dr.Levels, want) {
			t.Errorf("cached levels %+v != uncached %+v", dr.Levels, want)
		}
	})

	t.Run("batch", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		batch := func(details bool) BatchItem {
			b, err := json.Marshal(BatchRequest{Series: [][]float64{series}, Details: details})
			if err != nil {
				t.Fatal(err)
			}
			_, raw := postJSON(t, ts.URL+"/v1/detect/batch", string(b))
			var br struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(raw, &br); err != nil || len(br.Results) != 1 {
				t.Fatalf("batch response %s", raw)
			}
			var item BatchItem
			if err := json.Unmarshal(br.Results[0], &item); err != nil {
				t.Fatal(err)
			}
			levelsOf(t, br.Results[0], details)
			return item
		}
		batch(false)
		item := batch(true)
		if !item.Cached {
			t.Fatal("details:true batch item not served from cache")
		}
		if !reflect.DeepEqual(item.Levels, want) {
			t.Errorf("cached batch levels %+v != uncached %+v", item.Levels, want)
		}
	})

	t.Run("coalesced jobs", func(t *testing.T) {
		// Hold the flight open so the second submission coalesces onto
		// the first's execution.
		faults.Enable(faults.MustParse(faults.PointJobsExec + ":delay=400ms"))
		t.Cleanup(faults.Disable)
		_, ts := newTestServer(t, Config{})
		leader := submitJob(t, ts.URL, plain, "")
		follower := submitJob(t, ts.URL, detailed, "")
		awaitJob(t, ts.URL, leader.JobID)
		if st := awaitJob(t, ts.URL, follower.JobID); !st.Coalesced {
			t.Fatal("details:true submission did not coalesce")
		}
		result := func(id string) json.RawMessage {
			_, raw := getPath(t, ts.URL, "/v1/jobs/"+id)
			var st struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			return st.Result
		}
		levelsOf(t, result(leader.JobID), false)
		if got := levelsOf(t, result(follower.JobID), true); !reflect.DeepEqual(got, want) {
			t.Errorf("coalesced job levels %+v != uncached %+v", got, want)
		}
	})
}

// goldenResult is a finished job's result as older builds wrote it to
// the WAL; existing data directories hold records like it.
const goldenResult = `{"periods":[24,168],"levels":[{"level":1,"variance":0.03125,"selected":false,"pValue":1,"candidate":0,"acfPeriod":0,"final":0,"periodic":false},{"level":4,"variance":12.75,"selected":true,"pValue":2.5e-9,"candidate":24,"acfPeriod":24,"final":24,"periodic":true},{"level":7,"variance":3.5,"selected":true,"pValue":0.0004,"candidate":171,"acfPeriod":168,"final":168,"periodic":true}],"degraded":[{"stage":"periodogram","level":7,"reason":"robust_solver_failed"}],"filledFraction":0.0625}`

// TestWALResultGoldenRoundTrip: the WAL codec decodes a persisted
// result into the answer the cache and status handler use, and
// re-encodes it to the same bytes.
func TestWALResultGoldenRoundTrip(t *testing.T) {
	v, err := walCodec{}.DecodeResult([]byte(goldenResult))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := v.(*answer)
	if !ok {
		t.Fatalf("decoded %T, want *answer", v)
	}
	if !reflect.DeepEqual(a.Periods, []int{24, 168}) || len(a.Levels) != 3 ||
		a.Levels[1] != (LevelDetail{Level: 4, Variance: 12.75, Selected: true, PValue: 2.5e-9,
			Candidate: 24, ACFPeriod: 24, Final: 24, Periodic: true}) ||
		len(a.Degraded) != 1 || a.Degraded[0].Level != 7 || a.FilledFraction != 0.0625 {
		t.Fatalf("decoded answer %+v", a)
	}
	b, err := walCodec{}.EncodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != goldenResult {
		t.Errorf("re-encoded result differs:\n got %s\nwant %s", b, goldenResult)
	}
}

// timingField matches the fields of a job status body that may differ
// across a restart: durations recomputed from persisted timestamps.
var timingField = regexp.MustCompile(`"(queuedMs|elapsedMs)":[-+.e0-9]+`)

// TestJobStatusSameAfterRestart: a finished job's status body, with
// and without details, reads the same from the live store and from a
// store recovered from the WAL, apart from timing fields.
func TestJobStatusSameAfterRestart(t *testing.T) {
	cfg := Config{JobsDataDir: t.TempDir()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	closed := false
	t.Cleanup(func() {
		if !closed {
			ts1.Close()
			s1.Close()
		}
	})
	series := sineSeries(512, 24, 31)
	ids := map[bool]string{}
	for _, details := range []bool{true, false} {
		sub := submitJob(t, ts1.URL, detectBody(t, series, nil, details), "")
		if st := awaitJob(t, ts1.URL, sub.JobID); st.State != "done" {
			t.Fatalf("job finished %q", st.State)
		}
		ids[details] = sub.JobID
	}
	before := map[bool][]byte{}
	for details, id := range ids {
		_, before[details] = getPath(t, ts1.URL, "/v1/jobs/"+id)
		levelsOf(t, before[details], details)
	}
	if !strings.Contains(string(before[true]), `"levels"`) {
		t.Fatalf("details:true status has no levels: %s", before[true])
	}
	ts1.Close()
	s1.Close()
	closed = true

	_, ts2 := newTestServer(t, cfg)
	for details, id := range ids {
		resp, after := getPath(t, ts2.URL, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("details=%v: status after restart %d (%s)", details, resp.StatusCode, after)
		}
		b, a := timingField.ReplaceAll(before[details], nil), timingField.ReplaceAll(after, nil)
		if string(a) != string(b) {
			t.Errorf("details=%v: status body changed across restart:\nbefore %s\n after %s", details, before[details], after)
		}
	}
}
