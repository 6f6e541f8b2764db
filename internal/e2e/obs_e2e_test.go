// End-to-end drill of the observability surfaces against a real
// rpserved binary: build it, boot it with fault injection armed,
// drive error/degraded/batch traffic over TCP, scrape /metrics
// through the Prometheus conformance checker, pull the failed
// request's post-mortem out of the flight recorder by the
// X-Request-ID the client saw, and drain it with SIGTERM.
package e2e

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"robustperiod/internal/obs"
)

// logEvent is one JSON line from rpserved's structured stderr.
type logEvent struct {
	Msg  string `json:"msg"`
	Addr string `json:"addr"`
}

// startServer builds rpserved, starts it on ephemeral ports with the
// given fault plan plus any extra command-line flags, and returns the
// API base URL, the debug base URL, the running process, and a channel
// that receives its exit error. Under -race the server is built with
// the race detector as well and exits at its first race; the test then
// fails with the report.
func startServer(t *testing.T, faultPlan string, extra ...string) (api, debug string, cmd *exec.Cmd, done chan error) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rpserved")
	buildArgs := []string{"build", "-o", bin}
	if raceEnabled {
		buildArgs = append(buildArgs, "-race")
	}
	build := exec.Command("go", append(buildArgs, "robustperiod/cmd/rpserved")...)
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build rpserved: %v\n%s", err, out)
	}

	args := []string{
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-log-format", "json",
		"-access-log-every", "1",
		"-cache", "-1",
		"-breaker-threshold", "-1",
	}
	args = append(args, extra...)
	cmd = exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "RP_FAULTS="+faultPlan)
	if raceEnabled {
		cmd.Env = append(cmd.Env, "GORACE=halt_on_error=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Stderr lines that are not JSON log events: a race report or a
	// crash, read back once the process is gone.
	var raw strings.Builder
	scanned := make(chan struct{})
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-scanned
		if strings.Contains(raw.String(), "WARNING: DATA RACE") {
			t.Errorf("rpserved reported a data race:\n%s", raw.String())
		}
	})

	// The server logs its actual bound addresses; that is the e2e port
	// discovery contract for -addr 127.0.0.1:0.
	addrs := make(chan [2]string, 1)
	done = make(chan error, 1)
	go func() {
		var apiAddr, dbgAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var ev logEvent
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				raw.Write(sc.Bytes())
				raw.WriteByte('\n')
				continue
			}
			switch ev.Msg {
			case "api listening":
				apiAddr = ev.Addr
			case "debug listening":
				dbgAddr = ev.Addr
			}
			if apiAddr != "" && dbgAddr != "" {
				select {
				case addrs <- [2]string{apiAddr, dbgAddr}:
				default:
				}
			}
		}
		close(scanned)
		done <- cmd.Wait()
	}()
	select {
	case a := <-addrs:
		return "http://" + a[0], "http://" + a[1], cmd, done
	case err := <-done:
		t.Fatalf("rpserved exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("rpserved did not report its listen addresses within 10s")
	}
	return "", "", nil, nil
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func detectBody(n, period int) string {
	var sb strings.Builder
	sb.WriteString(`{"series":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%.4f", 10*math.Sin(2*math.Pi*float64(i)/float64(period)))
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and boots a real binary")
	}
	// First detect hits the worker fault once (500); every later
	// detection loses the robust solver and degrades to the fallback.
	api, debug, cmd, done := startServer(t, "serve/worker:error:times=1,spectrum/solver:error")

	body := detectBody(1024, 64)

	// 1. The faulted request: a structured 500 that still hands the
	// client a correlation ID.
	resp, raw := post(t, api+"/v1/detect", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted detect: %d (%s), want 500", resp.StatusCode, raw)
	}
	errID := resp.Header.Get("X-Request-ID")
	if _, ok := obs.ParseID(errID); !ok {
		t.Fatalf("500 response X-Request-ID %q unusable", errID)
	}

	// 2. Subsequent detections succeed, degraded by the solver fault.
	resp, raw = post(t, api+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded detect: %d (%s)", resp.StatusCode, raw)
	}
	var dr struct {
		Periods  []int            `json:"periods"`
		Degraded []map[string]any `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Degraded) == 0 {
		t.Errorf("solver fault armed but response not degraded: %s", raw)
	}
	degradedID := resp.Header.Get("X-Request-ID")

	// 3. Batch traffic.
	resp, raw = post(t, api+"/v1/detect/batch", `{"series":[[1,2,1,2,1,2,1,2,1,2,1,2,1,2,1,2]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d (%s)", resp.StatusCode, raw)
	}

	// 4. /metrics passes the in-repo Prometheus conformance checker
	// and reflects the traffic above.
	resp, raw = get(t, api+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if err := obs.CheckExposition(raw); err != nil {
		t.Fatalf("/metrics fails conformance: %v\n%s", err, raw)
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, fams, "rp_request_errors_total", "endpoint", "detect", 1)
	wantValue(t, fams, "rp_degraded_total", "", "", 1)
	wantValue(t, fams, "rp_requests_total", "endpoint", "batch", 1)
	if obs.FindFamily(fams, "rp_build_info") == nil {
		t.Error("rp_build_info missing from a live scrape")
	}
	if obs.FindFamily(fams, "rp_go_goroutines") == nil {
		t.Error("runtime gauges missing from a live scrape")
	}

	// 5. The flight recorder returns the error request's post-mortem
	// by the ID the client received.
	resp, raw = get(t, debug+"/debug/requests/"+errID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder lookup of %s: %d (%s)", errID, resp.StatusCode, raw)
	}
	var rec struct {
		ID          string   `json:"id"`
		Status      int      `json:"status"`
		Outcome     string   `json:"outcome"`
		ErrorCode   string   `json:"errorCode"`
		FaultPoints []string `json:"faultPoints"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != errID || rec.Status != http.StatusInternalServerError || rec.Outcome != "error" {
		t.Errorf("error record = %+v, want id %s status 500 outcome error", rec, errID)
	}
	if !contains(rec.FaultPoints, "serve/worker") {
		t.Errorf("error record faultPoints = %v, want serve/worker", rec.FaultPoints)
	}

	// The degraded request is pinned too, with its annotations.
	resp, raw = get(t, debug+"/debug/requests/"+degradedID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder lookup of degraded %s: %d", degradedID, resp.StatusCode)
	}
	var drec struct {
		Outcome       string           `json:"outcome"`
		DegradedCount int              `json:"degradedCount"`
		Trace         *json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(raw, &drec); err != nil {
		t.Fatal(err)
	}
	if drec.Outcome != "degraded" || drec.DegradedCount < 1 || drec.Trace == nil {
		t.Errorf("degraded record = outcome %q count %d trace %v", drec.Outcome, drec.DegradedCount, drec.Trace != nil)
	}

	// 6. SIGTERM drains cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rpserved exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(35 * time.Second):
		t.Fatal("rpserved did not exit within the drain window")
	}
}

// wantValue asserts one sample (optionally label-filtered) is >= min.
func wantValue(t *testing.T, fams []obs.PromFamily, name, labelName, labelValue string, min float64) {
	t.Helper()
	f := obs.FindFamily(fams, familyOf(name))
	if f == nil {
		t.Errorf("family for %s missing", name)
		return
	}
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		if labelName != "" && s.Label(labelName) != labelValue {
			continue
		}
		if s.Value < min {
			t.Errorf("%s{%s=%s} = %v, want >= %v", name, labelName, labelValue, s.Value, min)
		}
		return
	}
	t.Errorf("no sample %s{%s=%s} in exposition", name, labelName, labelValue)
}

// familyOf maps a sample name to its family name (identity here: the
// samples this test asserts on are plain counters/gauges).
func familyOf(name string) string { return name }

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
