package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"robustperiod"
	"robustperiod/internal/obs"
	"robustperiod/internal/synthetic"
)

// sineSeries builds a deterministic noisy sinusoid of the given
// period; phase seeds keep distinct series distinct for the cache.
func sineSeries(n, period int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		y[i] = 10*math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.3*rng.NormFloat64()
	}
	return y
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func detectBody(t *testing.T, series []float64, opts *APIOptions, details bool) string {
	t.Helper()
	b, err := json.Marshal(DetectRequest{Series: series, Options: opts, Details: details})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("no error envelope in %s", body)
	}
	return env.Error.Code
}

func TestDetectHandlerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4096, MaxSeriesLen: 128})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"invalid json", `{"series":[1,2`, http.StatusBadRequest, "bad_json"},
		{"nan literal", `{"series":[NaN,1,2]}`, http.StatusBadRequest, "bad_json"},
		{"inf literal", `{"series":[Infinity]}`, http.StatusBadRequest, "bad_json"},
		{"unknown field", `{"serie":[1,2,3]}`, http.StatusBadRequest, "bad_json"},
		{"empty series", `{"series":[]}`, http.StatusBadRequest, "empty_series"},
		{"missing series", `{}`, http.StatusBadRequest, "empty_series"},
		{"series too long", detectBody(t, make([]float64, 200), nil, false), http.StatusBadRequest, "series_too_long"},
		{"unknown wavelet", `{"series":[1,2,3],"options":{"wavelet":"db99"}}`, http.StatusBadRequest, "bad_options"},
		{"oversized body", `{"series":[` + strings.Repeat("1,", 4000) + `1]}`,
			http.StatusRequestEntityTooLarge, "body_too_large"},
		{"too short for detector", `{"series":[1,2,3]}`, http.StatusBadRequest, "detect_failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/detect", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if code := errCode(t, body); code != tc.wantCode {
				t.Errorf("code = %q want %q", code, tc.wantCode)
			}
		})
	}
}

func TestValidateSeriesNonFinite(t *testing.T) {
	// Strict JSON cannot carry NaN/Inf, but other entry points can;
	// the validator must catch them before the detector.
	if err := validateSeries([]float64{1, math.NaN(), 3}, 0, false); err == nil || err.Code != "non_finite_value" {
		t.Errorf("NaN: got %v", err)
	}
	if err := validateSeries([]float64{math.Inf(1)}, 0, false); err == nil || err.Code != "non_finite_value" {
		t.Errorf("Inf: got %v", err)
	}
	if err := validateSeries([]float64{1, 2, 3}, 0, false); err != nil {
		t.Errorf("finite: got %v", err)
	}
	// fill_missing admits NaN (bounded) but never Inf.
	if err := validateSeries([]float64{1, math.NaN(), 3}, 0, true); err != nil {
		t.Errorf("NaN with fill: got %v", err)
	}
	if err := validateSeries([]float64{math.Inf(-1), 1}, 0, true); err == nil || err.Code != "non_finite_value" {
		t.Errorf("Inf with fill: got %v", err)
	}
	if err := validateSeries([]float64{math.NaN(), math.NaN(), 3}, 0, true); err == nil || err.Code != "too_many_missing" {
		t.Errorf("mostly missing: got %v", err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/detect = %d, want 405", resp.StatusCode)
	}
}

// TestDetectMatchesLibrary checks the service against the library on
// a short sinusoid and on the three-period paper series at N=500,
// 1000 and 2000. The cache is off, so every request runs a detection;
// on this clean input none may degrade or be shed.
func TestDetectMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	inputs := [][]float64{sineSeries(480, 24, 2)}
	for _, n := range []int{500, 1000, 2000} {
		cfg := synthetic.PaperConfig(n, synthetic.Sine, []int{20, 50, 100}, 0.1, 0.01, 1)
		inputs = append(inputs, synthetic.Generate(cfg))
	}
	for _, series := range inputs {
		want, err := robustperiod.Detect(series, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/detect", detectBody(t, series, nil, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", len(series), resp.StatusCode, body)
		}
		var got DetectResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Periods, want) {
			t.Errorf("n=%d: periods = %v, direct Detect = %v", len(series), got.Periods, want)
		}
		if got.Cached {
			t.Errorf("n=%d: reported cached with the cache off", len(series))
		}
		if len(got.Levels) == 0 {
			t.Errorf("n=%d: details requested but no levels returned", len(series))
		}
		if len(got.Degraded) > 0 {
			t.Errorf("n=%d: clean input degraded: %+v", len(series), got.Degraded)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	if n := promValue(t, m, "rp_degraded_total"); n != 0 {
		t.Errorf("rp_degraded_total = %v, want 0", n)
	}
	if n := promValue(t, m, "rp_requests_shed_total", "endpoint", "detect"); n != 0 {
		t.Errorf("rp_requests_shed_total{endpoint=detect} = %v, want 0", n)
	}
}

func TestBatchConcurrentCorrectness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := [][]float64{
		sineSeries(480, 24, 3),
		sineSeries(512, 32, 4),
		sineSeries(400, 20, 5),
		sineSeries(480, 48, 6),
	}
	wants := make([][]int, len(batch))
	for i, series := range batch {
		w, err := robustperiod.Detect(series, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			w = []int{}
		}
		wants[i] = w
	}
	// One bad series in the middle must fail alone.
	batch = append(batch[:2], append([][]float64{{}}, batch[2:]...)...)
	wants = append(wants[:2], append([][]int{nil}, wants[2:]...)...)

	b, _ := json.Marshal(BatchRequest{Series: batch})
	resp, body := postJSON(t, ts.URL+"/v1/detect/batch", string(b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(batch))
	}
	for i, item := range got.Results {
		if item.Index != i {
			t.Errorf("result %d has index %d", i, item.Index)
		}
		if wants[i] == nil {
			if item.Error == nil || item.Error.Code != "empty_series" {
				t.Errorf("result %d: want empty_series error, got %+v", i, item.Error)
			}
			continue
		}
		if item.Error != nil {
			t.Errorf("result %d: unexpected error %v", i, item.Error)
			continue
		}
		if !reflect.DeepEqual(item.Periods, wants[i]) {
			t.Errorf("result %d periods = %v, direct Detect = %v", i, item.Periods, wants[i])
		}
	}
}

// metricsSnapshot fetches GET /metrics, runs the exposition through
// the Prometheus text-format conformance checker, and returns the
// parsed families.
func metricsSnapshot(t *testing.T, url string) []obs.PromFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("/metrics fails conformance: %v", err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// promValue returns the value of the sample with the given name whose
// label set includes every name=value pair in kv (alternating). Fails
// the test when no such sample exists.
func promValue(t *testing.T, fams []obs.PromFamily, sample string, kv ...string) float64 {
	t.Helper()
	for i := range fams {
		for _, s := range fams[i].Samples {
			if s.Name != sample {
				continue
			}
			match := true
			for j := 0; j+1 < len(kv); j += 2 {
				if s.Label(kv[j]) != kv[j+1] {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	t.Fatalf("no sample %s %v in exposition", sample, kv)
	return 0
}

func TestCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := sineSeries(480, 24, 7)
	body := detectBody(t, series, nil, false)

	_, first := postJSON(t, ts.URL+"/v1/detect", body)
	resp, second := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	var r1, r2 DetectResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first request reported cached")
	}
	if !r2.Cached {
		t.Error("warm repeat not served from cache")
	}
	if !reflect.DeepEqual(r1.Periods, r2.Periods) {
		t.Errorf("cached periods %v != fresh periods %v", r2.Periods, r1.Periods)
	}

	// Same series, different options: must be a distinct cache entry.
	resp, third := postJSON(t, ts.URL+"/v1/detect",
		detectBody(t, series, &APIOptions{EnergyShare: 1}, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, third)
	}
	var r3 DetectResponse
	if err := json.Unmarshal(third, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different options served from cache")
	}

	m := metricsSnapshot(t, ts.URL)
	if hits := promValue(t, m, "rp_cache_hits_total"); hits < 1 {
		t.Errorf("rp_cache_hits_total = %v, want >= 1", hits)
	}
	if misses := promValue(t, m, "rp_cache_misses_total"); misses < 2 {
		t.Errorf("rp_cache_misses_total = %v, want >= 2", misses)
	}
	if reqs := promValue(t, m, "rp_requests_total", "endpoint", "detect"); reqs < 3 {
		t.Errorf("rp_requests_total{endpoint=detect} = %v, want >= 3", reqs)
	}
	if cnt := promValue(t, m, "rp_request_duration_seconds_count", "endpoint", "detect"); cnt < 3 {
		t.Errorf("rp_request_duration_seconds_count{endpoint=detect} = %v, want >= 3", cnt)
	}
}

func TestCacheEvictionThroughHandlers(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 2})
	a := detectBody(t, sineSeries(256, 16, 10), nil, false)
	b := detectBody(t, sineSeries(256, 16, 11), nil, false)
	c := detectBody(t, sineSeries(256, 16, 12), nil, false)

	cachedOf := func(body string) bool {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/detect", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var r DetectResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		return r.Cached
	}

	if cachedOf(a) || cachedOf(b) {
		t.Fatal("cold requests reported cached")
	}
	if !cachedOf(a) {
		t.Error("a should be cached (LRU order [a b])")
	}
	// Inserting c evicts b (the least recently used), not a.
	if cachedOf(c) {
		t.Error("cold c reported cached")
	}
	if !cachedOf(a) {
		t.Error("a evicted although it was the most recently used")
	}
	if cachedOf(b) {
		t.Error("b survived although it was the LRU at eviction time")
	}
}

func TestDetectContextCancelsPromptly(t *testing.T) {
	// A service must be able to abandon work: a 1ms deadline on a
	// long series has to surface context.DeadlineExceeded long before
	// the detection could have finished.
	series := sineSeries(1<<14, 128, 13)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := robustperiod.DetectContext(ctx, series, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the deadline was 1ms", elapsed)
	}
}

func TestHandlerRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Millisecond})
	series := sineSeries(1<<14, 128, 14)
	resp, body := postJSON(t, ts.URL+"/v1/detect", detectBody(t, series, nil, false))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "deadline_exceeded" {
		t.Errorf("code = %q, want deadline_exceeded", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var v map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v["status"] != "ok" {
		t.Fatalf("healthz body = %v, %v", v, err)
	}
}

func TestGracefulServeShutdown(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := fmt.Sprintf("http://%s", ln.Addr())
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain within 10s")
	}
}
