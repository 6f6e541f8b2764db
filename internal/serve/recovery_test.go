package serve

import (
	"context"
	"testing"

	"robustperiod/internal/jobs"
)

// TestRecoveryRunsQueuedJobOnBuiltServer: a job still queued in the
// data dir when the previous process died is re-dispatched while New
// is still running, so everything execJob reads must exist before
// jobs.Open. Under -race this catches the re-dispatched job reading a
// half-built Server.
func TestRecoveryRunsQueuedJobOnBuiltServer(t *testing.T) {
	dir := t.TempDir()
	// The previous process: a manager whose pool accepts the job and
	// never runs it, abandoned without Close, as kill -9 leaves it.
	prev, err := jobs.Open(jobs.Config{
		Exec:       func(context.Context, any) (any, bool, error) { return nil, false, nil },
		PoolSubmit: func(func()) error { return nil },
		Durability: &jobs.Durability{Dir: dir, Codec: walCodec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	series := sineSeries(480, 24, 71)
	key := requestKey(series, (*APIOptions)(nil).canonicalTag())
	j, err := prev.Submit(context.Background(), defaultTenant, jobKey(key), len(series),
		&jobPayload{series: series, key: key})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{JobsDataDir: dir, Workers: 1})
	st := awaitJob(t, ts.URL, j.ID.String())
	if st.State != "done" || st.Result == nil || len(st.Result.Periods) != 1 || st.Result.Periods[0] != 24 {
		t.Fatalf("recovered job = %q (result %+v, error %+v), want done with period 24", st.State, st.Result, st.Error)
	}
}
