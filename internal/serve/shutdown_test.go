package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"robustperiod/internal/faults"
)

// TestOverloadSheds429 saturates a deliberately tiny service and
// checks the admission controller: excess requests are rejected up
// front with 429 + Retry-After instead of queueing past the deadline,
// some requests still succeed, the shed counter advances, and once
// the pressure is gone the service is back to full quality.
func TestOverloadSheds429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:          1,
		QueueLen:         1,
		BreakerThreshold: -1, // isolate admission control from the breaker
		CacheSize:        -1,
	})
	series := sineSeries(256, 32, 55)
	body := detectBody(t, series, nil, false)

	faults.Enable(faults.MustParse("serve/worker:delay=300ms"))
	t.Cleanup(faults.Disable)

	const burst = 10
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		oks, sheds int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/detect", body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				oks++
			case http.StatusTooManyRequests:
				sheds++
				if code := errCode(t, b); code != "overloaded" {
					t.Errorf("429 code = %q, want overloaded", code)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("unexpected status %d (%s)", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	if oks == 0 {
		t.Error("overloaded service served no requests at all")
	}
	if sheds == 0 {
		t.Fatalf("burst of %d on a 1-worker/1-slot service shed nothing (%d ok)", burst, oks)
	}
	m := metricsSnapshot(t, ts.URL)
	if n := promValue(t, m, "rp_requests_shed_total", "endpoint", "detect"); n < float64(sheds) {
		t.Errorf("rp_requests_shed_total{endpoint=detect} = %v, want >= %d", n, sheds)
	}

	// Pressure gone: the same request is admitted and fully served.
	faults.Disable()
	resp, b := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-overload request: %d (%s), want 200", resp.StatusCode, b)
	}
}

// TestDrainingGateSheds503 pins the draining gate in isolation: a
// draining server sheds compute requests with a structured 503 while
// health and metrics stay reachable.
func TestDrainingGateSheds503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.draining.Store(true)
	body := detectBody(t, sineSeries(256, 32, 57), nil, false)
	resp, b := postJSON(t, ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining detect: %d (%s), want 503", resp.StatusCode, b)
	}
	if code := errCode(t, b); code != "shutting_down" {
		t.Errorf("draining code = %q, want shutting_down", code)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/detect/batch", `{"series":[[1,2,3]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch: %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Errorf("healthz unreachable while draining: %v %v", err, hr)
	}
	if hr != nil {
		hr.Body.Close()
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil || mr.StatusCode != http.StatusOK {
		t.Errorf("metrics unreachable while draining: %v %v", err, mr)
	}
	if mr != nil {
		mr.Body.Close()
	}
}

// TestShutdownUnderLoad cancels a running Serve mid-burst: requests
// already inside a handler finish with 200 inside the drain window,
// later requests are shed (503) or refused (listener closed), Serve
// returns nil, and Close stays idempotent.
func TestShutdownUnderLoad(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Workers:      2,
		CacheSize:    -1,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Slow every detection down so the burst is still in flight when
	// the shutdown lands.
	faults.Enable(faults.MustParse("serve/worker:delay=250ms"))
	t.Cleanup(faults.Disable)

	body := detectBody(t, sineSeries(256, 32, 59), nil, false)
	const burst = 2 // matches Workers: both run, none queues
	inFlight := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, base+"/v1/detect", body)
			inFlight <- resp.StatusCode
		}()
	}

	time.Sleep(100 * time.Millisecond) // burst is now inside handlers
	cancel()
	wg.Wait()
	close(inFlight)
	for code := range inFlight {
		if code != http.StatusOK {
			t.Errorf("in-flight request aborted by shutdown: %d, want 200", code)
		}
	}

	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v, want nil on graceful shutdown", err)
	}

	// The listener is closed; a new request must fail to connect (or,
	// on a lingering keep-alive, be shed) — never hang.
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(base+"/v1/detect", "application/json", nil)
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-shutdown request: %d, want refused or 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Close after Serve's own Close, twice more: idempotent.
	s.Close()
	s.Close()
}

// TestShutdownLeavesNoGoroutines: Close stops every goroutine a Server
// started, including the owners of the tree's tickers (the job
// manager's reaper, the WAL's group-commit sync loop and the SLO
// engine), for a plain server and for a durable one.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	body := detectBody(t, sineSeries(256, 32, 61), nil, false)
	for _, cfg := range []Config{
		{},
		{JobsDataDir: t.TempDir(), JobsFsync: "25ms"},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		do := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		if rec := do(http.MethodPost, "/v1/detect", body); rec.Code != http.StatusOK {
			t.Fatalf("detect: %d %s", rec.Code, rec.Body)
		}
		rec := do(http.MethodPost, "/v1/jobs", body)
		var sub JobSubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); rec.Code != http.StatusAccepted || err != nil {
			t.Fatalf("job submit: %d %s", rec.Code, rec.Body)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var st JobStatusResponse
			if err := json.Unmarshal(do(http.MethodGet, sub.StatusURL, "").Body.Bytes(), &st); err == nil && st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish (state %q)", sub.JobID, st.State)
			}
		}
		running := runtime.NumGoroutine()
		s.Close()

		for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > start; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				stacks := make([]byte, 1<<20)
				stacks = stacks[:runtime.Stack(stacks, true)]
				t.Fatalf("durable=%v: %d goroutines 3s after Close (%d before New, %d while running):\n%s",
					cfg.JobsDataDir != "", runtime.NumGoroutine(), start, running, stacks)
			}
		}
	}
}
