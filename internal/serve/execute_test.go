package serve

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robustperiod/internal/faults"
)

// TestJobsChaosExecPanic: a panic at jobs/exec is caught by the same
// net as a sync detect's: the job fails with internal_panic, the panic
// is counted, and the worker lives on to run the next job.
func TestJobsChaosExecPanic(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":panic:times=1"))
	t.Cleanup(faults.Disable)
	_, ts := newTestServer(t, Config{})
	sub := submitJob(t, ts.URL, detectBody(t, sineSeries(256, 16, 71), nil, false), "")
	st := awaitJob(t, ts.URL, sub.JobID)
	if st.State != "failed" || st.Error == nil || st.Error.Code != "internal_panic" {
		t.Fatalf("job under exec panic = %+v (error %+v), want failed with internal_panic", st, st.Error)
	}
	if prom := metricsText(t, ts.URL); !strings.Contains(prom, "rp_panics_recovered_total 1\n") {
		t.Error("metrics exposition does not count the recovered panic")
	}
	next := submitJob(t, ts.URL, detectBody(t, sineSeries(256, 16, 72), nil, false), "")
	if st := awaitJob(t, ts.URL, next.JobID); st.State != "done" {
		t.Fatalf("job after the recovered panic finished %q, want done", st.State)
	}
}

// TestJobErrorCodeSurvivesRecovery: a job failed by an injected
// jobs/exec error keeps its wire error across a restart, both when the
// finish record is replayed from the log (a copy of the data directory
// taken while the server runs, as after kill -9) and when it comes back
// from the snapshot a clean Close writes.
func TestJobErrorCodeSurvivesRecovery(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":error"))
	t.Cleanup(faults.Disable)
	cfg := Config{JobsDataDir: t.TempDir()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	sub := submitJob(t, ts1.URL, detectBody(t, sineSeries(256, 16, 73), nil, false), "")
	want := awaitJob(t, ts1.URL, sub.JobID)
	if want.State != "failed" || want.Error == nil || want.Error.Code != "internal_error" {
		t.Fatalf("job under exec fault = %+v (error %+v), want failed with internal_error", want, want.Error)
	}
	crashed := t.TempDir()
	entries, err := os.ReadDir(cfg.JobsDataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(cfg.JobsDataDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ts1.Close()
	s1.Close()
	faults.Disable()

	for name, dir := range map[string]string{"log": crashed, "snapshot": cfg.JobsDataDir} {
		_, ts := newTestServer(t, Config{JobsDataDir: dir})
		_, got := getJob(t, ts.URL, sub.JobID)
		if got.State != "failed" || got.Error == nil || *got.Error != *want.Error {
			t.Errorf("%s: recovered job = %q with error %+v, want failed with %+v", name, got.State, got.Error, want.Error)
		}
	}
}
