// End-to-end crash-recovery drill: boot a durable rpserved, get one
// job finished, one mid-execution, and one queued, kill the process
// with SIGKILL (no drain, no final fsync beyond the per-append ones),
// restart on the same data directory, and hold the recovery contract:
// every acknowledged job ID still resolves — the finished job with its
// original result and no recomputation, the mid-execution job failed
// with the distinguishable lost_to_restart code, the queued job
// re-enqueued to completion — and the recovery counters surface in a
// live /metrics scrape.
package e2e

import (
	"encoding/json"
	"net/http"
	"syscall"
	"testing"
	"time"

	"robustperiod/internal/obs"
)

func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and boots a real binary")
	}
	dataDir := t.TempDir()
	durable := []string{"-data-dir", dataDir, "-fsync", "always", "-workers", "1"}

	// The first execution runs clean; every later one stalls for 30s
	// (far past the kill below), pinning job B mid-execution and job C
	// queued behind it on the single worker.
	api, _, cmd, done := startServer(t, "jobs/exec:delay=30s:after=1", durable...)

	bodyA, bodyB, bodyC := detectBody(512, 24), detectBody(512, 32), detectBody(512, 48)

	// A: submitted, executed, finished — its result is on disk.
	subA := submitJob(t, api, bodyA)
	if st := pollJob(t, api, subA); st.State != "done" || st.Result == nil || st.Result.Periods[0] != 24 {
		t.Fatalf("job A finished as %q (result %v), want done with period 24", st.State, st.Result)
	}

	// B: dispatched onto the worker, then stalled by the fault — wait
	// until the server reports it running so the start record is
	// durably on disk before the kill.
	subB := submitJob(t, api, bodyB)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, raw := get(t, api+subB.StatusURL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll B: %d (%s)", resp.StatusCode, raw)
		}
		var st jobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B still %q after 10s, want running", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// C: acknowledged with 202, queued behind B's stalled execution.
	subC := submitJob(t, api, bodyC)

	// kill -9: no drain, no Close, no compaction — recovery must work
	// from the per-append fsyncs alone.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-done // SIGKILL exit is non-zero by design

	// Restart on the same data directory, faults disarmed.
	api2, _, _, _ := startServer(t, "", durable...)

	// A: done with its original result on the very first poll — the
	// answer survived the crash, it was not recomputed and not 404'd.
	resp, raw := get(t, api2+subA.StatusURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered poll A: %d (%s), want 200", resp.StatusCode, raw)
	}
	var stA jobStatus
	if err := json.Unmarshal(raw, &stA); err != nil {
		t.Fatal(err)
	}
	if stA.State != "done" || stA.Result == nil || len(stA.Result.Periods) == 0 || stA.Result.Periods[0] != 24 {
		t.Fatalf("recovered job A = %q (result %v, error %+v), want done with period 24", stA.State, stA.Result, stA.Error)
	}

	// B: its computation died with the process — failed, with the
	// distinguishable resubmit-me code, not shutting_down and not 404.
	stB := pollJob(t, api2, subB)
	if stB.State != "failed" || stB.Error == nil {
		t.Fatalf("recovered job B = %q (error %+v), want failed", stB.State, stB.Error)
	}
	if stB.Error.Code != "lost_to_restart" {
		t.Fatalf("recovered job B error = %+v, want code lost_to_restart", stB.Error)
	}

	// C: was queued at crash time; recovery re-enqueued it and it runs
	// to completion on the restarted worker.
	stC := pollJob(t, api2, subC)
	if stC.State != "done" || stC.Result == nil || stC.Result.Periods[0] != 48 {
		t.Fatalf("recovered job C = %q (result %v, error %+v), want done with period 48", stC.State, stC.Result, stC.Error)
	}

	// The recovery counters surface in a conformant scrape: A restored
	// finished + C re-enqueued, B lost.
	mresp, mraw := get(t, api2+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	if err := obs.CheckExposition(mraw); err != nil {
		t.Fatalf("/metrics fails conformance: %v", err)
	}
	fams, err := obs.ParseExposition(mraw)
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, fams, "rp_jobs_recovered_total", "", "", 2)
	wantValue(t, fams, "rp_jobs_lost_total", "", "", 1)
	if obs.FindFamily(fams, "rp_wal_appends_total") == nil {
		t.Error("rp_wal_appends_total missing from a durable server's scrape")
	}
}
