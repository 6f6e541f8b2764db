package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
)

// testClock is an injectable manual clock for TTL tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// inlinePool runs executions synchronously on the dispatcher
// goroutine: dispatch order becomes execution order, which makes the
// fair-share tests deterministic.
func inlinePool(run func()) error {
	run()
	return nil
}

// asyncPool runs each execution on its own goroutine (an unbounded
// stand-in for the serve worker pool).
func asyncPool(run func()) error {
	go run()
	return nil
}

// doneCollector gathers OnDone callbacks and lets tests await a count.
type doneCollector struct {
	mu   sync.Mutex
	jobs []Job
}

func (d *doneCollector) add(j Job) {
	d.mu.Lock()
	d.jobs = append(d.jobs, j)
	d.mu.Unlock()
}

func (d *doneCollector) snapshot() []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Job(nil), d.jobs...)
}

func (d *doneCollector) await(t *testing.T, n int) []Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got := d.snapshot(); len(got) >= n {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d OnDone callbacks (got %d)", n, len(d.snapshot()))
	return nil
}

func key(i int) Key { return Key{H1: uint64(i), H2: ^uint64(i), N: 64} }

// TestCoalesceExactlyOnce is the core coalescing guarantee: many
// concurrent submissions of one key run the pipeline exactly once and
// every job receives the result.
func TestCoalesceExactlyOnce(t *testing.T) {
	const clients = 100
	var execs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			if execs.Add(1) == 1 {
				close(started)
			}
			<-release
			return payload, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
	})
	defer m.Close()

	leader, err := m.Submit(context.Background(), "tenant-a", key(1), 64, "answer")
	if err != nil {
		t.Fatalf("leader submit: %v", err)
	}
	if leader.Coalesced {
		t.Fatal("leader reported coalesced")
	}
	<-started // the execution is in flight; every further submit must attach

	var wg sync.WaitGroup
	errs := make(chan error, clients-1)
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := m.Submit(context.Background(), "tenant-a", key(1), 64, "answer")
			if err != nil {
				errs <- err
				return
			}
			if !j.Coalesced {
				errs <- errors.New("concurrent duplicate was not coalesced")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(release)

	finished := done.await(t, clients)
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1", got)
	}
	for _, j := range finished {
		if j.State != StateDone || j.Err != nil {
			t.Fatalf("job %s finished %v err=%v", j.ID, j.State, j.Err)
		}
		if j.Result != "answer" {
			t.Fatalf("job %s result = %v", j.ID, j.Result)
		}
	}
	c := m.Counters()
	if c.Submitted != clients || c.Coalesced != clients-1 || c.Executions != 1 {
		t.Fatalf("counters = %+v, want submitted=%d coalesced=%d executions=1",
			c, clients, clients-1)
	}
}

// TestDistinctKeysDoNotCoalesce guards against over-merging.
func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	var execs atomic.Int64
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			execs.Add(1)
			return payload, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
	})
	defer m.Close()
	for i := 0; i < 8; i++ {
		if _, err := m.Submit(context.Background(), "t", key(i), 64, i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	done.await(t, 8)
	if got := execs.Load(); got != 8 {
		t.Fatalf("executions = %d, want 8", got)
	}
	if c := m.Counters(); c.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0", c.Coalesced)
	}
}

// TestGetLifecycle polls a job through queued/running/done and checks
// the result round-trips.
func TestGetLifecycle(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			close(started)
			<-release
			return 42, true, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
	})
	defer m.Close()
	j, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if got, ok := m.Get(j.ID); !ok || got.State != StateRunning {
		t.Fatalf("mid-flight Get = %+v ok=%v, want running", got, ok)
	}
	close(release)
	done.await(t, 1)
	got, ok := m.Get(j.ID)
	if !ok || got.State != StateDone || got.Result != 42 || !got.Degraded {
		t.Fatalf("final Get = %+v ok=%v, want done result=42 degraded", got, ok)
	}
	if _, ok := m.Get(obs.ID{1, 2, 3}); ok {
		t.Fatal("Get of unknown ID reported a job")
	}
}

// TestTTLExpiry checks lazy (on-Get) expiry under an injected clock.
func TestTTLExpiry(t *testing.T) {
	clk := newTestClock()
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			return nil, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
		TTL:        time.Minute,
		Now:        clk.Now,
	})
	defer m.Close()
	j, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done.await(t, 1)
	if _, ok := m.Get(j.ID); !ok {
		t.Fatal("finished job not retrievable inside its TTL")
	}
	clk.Advance(61 * time.Second)
	if _, ok := m.Get(j.ID); ok {
		t.Fatal("job still retrievable after its TTL")
	}
	if c := m.Counters(); c.Expired != 1 {
		t.Fatalf("expired = %d, want 1", c.Expired)
	}
}

// TestTTLReaper checks the batch reap path: expired jobs vanish from
// the store (and the state gauges) without being polled.
func TestTTLReaper(t *testing.T) {
	clk := newTestClock()
	done := &doneCollector{}
	failErr := errors.New("boom")
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			if payload == "fail" {
				return nil, false, failErr
			}
			return nil, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
		TTL:        time.Minute,
		Now:        clk.Now,
	})
	defer m.Close()
	for i := 0; i < 5; i++ {
		payload := any(nil)
		if i == 0 {
			payload = "fail" // lands in the pinned ring; must still expire
		}
		if _, err := m.Submit(context.Background(), "t", key(i), 64, payload); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	done.await(t, 5)
	states := m.StateCounts()
	if states["done"] != 4 || states["failed"] != 1 {
		t.Fatalf("states before reap = %v", states)
	}
	clk.Advance(30 * time.Second)
	m.Reap() // nothing expired yet
	if c := m.Counters(); c.Expired != 0 {
		t.Fatalf("premature expiry: %d", c.Expired)
	}
	clk.Advance(31 * time.Second)
	m.Reap()
	if c := m.Counters(); c.Expired != 5 {
		t.Fatalf("expired = %d, want 5", c.Expired)
	}
	states = m.StateCounts()
	if states["done"] != 0 || states["failed"] != 0 {
		t.Fatalf("states after reap = %v", states)
	}
}

// TestPinnedRetention: a failed job survives healthy churn that
// overflows the done ring, after the flight-recorder design.
func TestPinnedRetention(t *testing.T) {
	done := &doneCollector{}
	failErr := errors.New("boom")
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			if payload == "fail" {
				return nil, false, failErr
			}
			return nil, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
		StoreCap:   4,
	})
	defer m.Close()
	bad, err := m.Submit(context.Background(), "t", key(1000), 64, "fail")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done.await(t, 1)
	var healthy []obs.ID
	for i := 0; i < 20; i++ {
		j, err := m.Submit(context.Background(), "t", key(i), 64, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		healthy = append(healthy, j.ID)
	}
	done.await(t, 21)
	// The pool finishes jobs out of submission order, so which four
	// survive varies; how many does not.
	retained := 0
	for _, id := range healthy {
		if _, ok := m.Get(id); ok {
			retained++
		}
	}
	if retained != 4 {
		t.Fatalf("%d of %d healthy jobs retained, want StoreCap=4", retained, len(healthy))
	}
	got, ok := m.Get(bad.ID)
	if !ok || got.State != StateFailed || !errors.Is(got.Err, failErr) {
		t.Fatalf("pinned failed job lost to healthy churn: %+v ok=%v", got, ok)
	}
}

// TestStorePinEviction exercises the pinned ring's own bound directly.
func TestStorePinEviction(t *testing.T) {
	s := newStore(2, 2)
	expires := time.Now().Add(time.Hour)
	mk := func(i int, fail bool) *Job {
		j := &Job{ID: obs.ID{byte(i)}, Expires: expires}
		if fail {
			j.Err = errors.New("x")
		}
		return j
	}
	for i := 1; i <= 3; i++ {
		s.put(mk(i, true))
	}
	if _, ok := s.get(obs.ID{1}, time.Now()); ok {
		t.Fatal("oldest pinned entry survived past pinCap")
	}
	for i := 2; i <= 3; i++ {
		if _, ok := s.get(obs.ID{byte(i)}, time.Now()); !ok {
			t.Fatalf("pinned entry %d missing", i)
		}
	}
	done, failed := s.counts()
	if done != 0 || failed != 2 {
		t.Fatalf("counts = (%d, %d), want (0, 2)", done, failed)
	}
}

// TestFairShareStarvationBound: with a heavy tenant's backlog already
// queued, a light tenant's job is dispatched within a bounded number
// of turns instead of waiting out the whole backlog.
func TestFairShareStarvationBound(t *testing.T) {
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	started := make(chan struct{})
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			tenant := payload.(string)
			mu.Lock()
			order = append(order, tenant)
			n := len(order)
			mu.Unlock()
			if n == 1 {
				close(started)
				<-release // hold the dispatcher so the backlog builds
			}
			return nil, false, nil
		},
		PoolSubmit: inlinePool, // dispatch order == execution order
		OnDone:     done.add,
		Quantum:    64,
	})
	defer m.Close()

	// The heavy tenant floods first: one job executing (held), 16 more
	// queued behind it.
	for i := 0; i < 17; i++ {
		if _, err := m.Submit(context.Background(), "heavy", key(i), 64, "heavy"); err != nil {
			t.Fatalf("heavy submit %d: %v", i, err)
		}
	}
	<-started
	// The light tenant arrives late with 2 jobs.
	for i := 100; i < 102; i++ {
		if _, err := m.Submit(context.Background(), "light", key(i), 64, "light"); err != nil {
			t.Fatalf("light submit %d: %v", i, err)
		}
	}
	close(release)
	done.await(t, 19)

	mu.Lock()
	defer mu.Unlock()
	// Deficit round-robin alternates tenants while both have backlog:
	// both light jobs must run within the first 6 executions, not after
	// the heavy tenant's 17.
	lightDone := 0
	for i, tenant := range order {
		if tenant == "light" {
			lightDone++
			if i >= 6 {
				t.Fatalf("light job starved until position %d (order %v)", i, order)
			}
		}
	}
	if lightDone != 2 {
		t.Fatalf("light jobs executed = %d, want 2 (order %v)", lightDone, order)
	}
}

// TestFairQueueCostWeighting: a tenant of expensive jobs drains at the
// same cost rate as a tenant of cheap ones, not the same job rate.
func TestFairQueueCostWeighting(t *testing.T) {
	q := newFairQueue(100)
	mk := func(tenant string, cost int) *Job {
		return &Job{Tenant: tenant, Cost: cost}
	}
	// big: 3 jobs of cost 300; small: 9 jobs of cost 100.
	for i := 0; i < 3; i++ {
		q.push(mk("big", 300))
	}
	for i := 0; i < 9; i++ {
		q.push(mk("small", 100))
	}
	var order []string
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.Tenant)
	}
	if len(order) != 12 {
		t.Fatalf("popped %d jobs, want 12", len(order))
	}
	// In any prefix, the big tenant should have dispatched roughly a
	// third as many jobs as the small one (equal cost share). After 8
	// dispatches the small tenant must have at least twice big's count.
	bigN, smallN := 0, 0
	for _, tenant := range order[:8] {
		if tenant == "big" {
			bigN++
		} else {
			smallN++
		}
	}
	if smallN < 2*bigN {
		t.Fatalf("cost weighting off: first 8 dispatches big=%d small=%d (order %v)",
			bigN, smallN, order)
	}
}

// blockedPool is a PoolSubmit stand-in that reports each dispatch on
// popped, then parks the dispatcher on gate — so tests control exactly
// how many jobs leave the fair-share queue.
type blockedPool struct {
	popped chan struct{}
	gate   chan struct{}
}

func newBlockedPool() *blockedPool {
	return &blockedPool{popped: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (p *blockedPool) submit(run func()) error {
	p.popped <- struct{}{}
	<-p.gate
	go run()
	return nil
}

// TestAdmissionBounds covers both shed paths: the global queue bound
// and the per-tenant pending bound.
func TestAdmissionBounds(t *testing.T) {
	pool := newBlockedPool()
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			return nil, false, nil
		},
		PoolSubmit:         pool.submit,
		MaxQueued:          4,
		MaxQueuedPerTenant: 3,
	})
	defer m.Close()
	defer close(pool.gate) // unblock the dispatcher so Close can drain
	// One job dispatched (held at the pool) + 2 queued saturates tenant
	// "a": pending counts the dispatched job too.
	if _, err := m.Submit(context.Background(), "a", key(0), 64, nil); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-pool.popped // the dispatcher holds job 0; nothing else will leave the queue
	for i := 1; i < 3; i++ {
		if _, err := m.Submit(context.Background(), "a", key(i), 64, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(context.Background(), "a", key(10), 64, nil); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("tenant bound: err = %v, want ErrTenantQueueFull", err)
	}
	// Other tenants can still fill the global queue (depth 2 so far).
	if _, err := m.Submit(context.Background(), "b", key(20), 64, nil); err != nil {
		t.Fatalf("tenant b submit: %v", err)
	}
	if _, err := m.Submit(context.Background(), "c", key(21), 64, nil); err != nil {
		t.Fatalf("tenant c submit: %v", err)
	}
	if _, err := m.Submit(context.Background(), "d", key(22), 64, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("global bound: err = %v, want ErrQueueFull", err)
	}
	if c := m.Counters(); c.Shed != 2 {
		t.Fatalf("shed = %d, want 2", c.Shed)
	}
}

// TestCloseFailsQueuedJobs: Close fails undispatched jobs with
// ErrClosed (dispatched ones finish normally) and later submissions
// are rejected outright.
func TestCloseFailsQueuedJobs(t *testing.T) {
	pool := newBlockedPool()
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			return "late", false, nil
		},
		PoolSubmit: pool.submit,
	})
	dispatched, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-pool.popped // job 1 is at the pool; job 2 will stay queued
	queued, err := m.Submit(context.Background(), "t", key(2), 64, nil)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	// Wait until Close has flipped the closed flag (and, in the same
	// critical section, drained the queue) before releasing the pool.
	for {
		if _, err := m.Submit(context.Background(), "t", key(3), 64, nil); errors.Is(err, ErrClosed) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(pool.gate)
	<-closed
	if got, ok := m.Get(queued.ID); !ok || got.State != StateFailed || !errors.Is(got.Err, ErrClosed) {
		t.Fatalf("queued job after Close = %+v ok=%v, want failed ErrClosed", got, ok)
	}
	// The dispatched job was not aborted; await its normal completion.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := m.Get(dispatched.ID); ok && got.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatched job did not complete after Close")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(context.Background(), "t", key(4), 64, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestExecTimeout: a stuck execution is bounded by Config.Timeout and
// fails with the context error.
func TestExecTimeout(t *testing.T) {
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			<-ctx.Done()
			return nil, false, ctx.Err()
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
		Timeout:    20 * time.Millisecond,
	})
	defer m.Close()
	j, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done.await(t, 1)
	got, _ := m.Get(j.ID)
	if got.State != StateFailed || !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job = %+v, want failed DeadlineExceeded", got)
	}
}

// TestChaosFaultJobsStore: an armed jobs/store fault fails submissions
// with an injected error before any state is created.
func TestChaosFaultJobsStore(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsStore + ":error"))
	t.Cleanup(faults.Disable)
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			return nil, false, nil
		},
		PoolSubmit: asyncPool,
	})
	defer m.Close()
	if _, err := m.Submit(context.Background(), "t", key(1), 64, nil); !faults.IsInjected(err) {
		t.Fatalf("submit err = %v, want injected", err)
	}
	if c := m.Counters(); c.Submitted != 0 {
		t.Fatalf("submitted = %d after store fault, want 0", c.Submitted)
	}
}

// TestChaosFaultJobsExec: an armed jobs/exec fault fails the whole
// flight — leader and coalesced followers — with the injected error.
func TestChaosFaultJobsExec(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":error"))
	t.Cleanup(faults.Disable)
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			t.Error("Exec ran despite armed jobs/exec fault")
			return nil, false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
	})
	defer m.Close()
	j, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done.await(t, 1)
	got, _ := m.Get(j.ID)
	if got.State != StateFailed || !faults.IsInjected(got.Err) {
		t.Fatalf("job under exec fault = %+v, want failed injected", got)
	}
}

// TestChaosFaultJobsExecPanic: a panic action at jobs/exec is caught
// by the execution's recovery net and becomes a failed flight, not a
// dead worker.
func TestChaosFaultJobsExecPanic(t *testing.T) {
	faults.Enable(faults.MustParse(faults.PointJobsExec + ":panic:times=1"))
	t.Cleanup(faults.Disable)
	done := &doneCollector{}
	m := New(Config{
		Exec: func(ctx context.Context, payload any) (any, bool, error) {
			return "ok", false, nil
		},
		PoolSubmit: asyncPool,
		OnDone:     done.add,
	})
	defer m.Close()
	j, err := m.Submit(context.Background(), "t", key(1), 64, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done.await(t, 1)
	got, _ := m.Get(j.ID)
	if got.State != StateFailed || got.Err == nil {
		t.Fatalf("job under exec panic = %+v, want failed", got)
	}
	// The tier keeps working after the panic (times=1 disarms it).
	j2, err := m.Submit(context.Background(), "t", key(2), 64, nil)
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	done.await(t, 2)
	if got, _ := m.Get(j2.ID); got.State != StateDone {
		t.Fatalf("job after recovered panic = %+v, want done", got)
	}
}

// TestStateStrings pins the wire vocabulary.
func TestStateStrings(t *testing.T) {
	want := []string{"queued", "running", "done", "failed"}
	got := StateNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("StateNames() = %v, want %v", got, want)
	}
	if State(99).String() != "state(99)" {
		t.Fatalf("unknown state = %q", State(99))
	}
}
