// Package jobs is the asynchronous execution tier between the HTTP
// handlers and the detection pipeline: POST /v1/jobs submissions
// become Jobs that are coalesced, fairly scheduled, executed on the
// serving layer's worker pool, and retained for polling clients.
//
// Three mechanisms make it fit duplicate-rich, multi-tenant traffic
// (the paper's cloud-monitoring deployment, where dashboards, alerting
// and downstream consumers all re-detect the same KPI series):
//
//   - Request coalescing: submissions are keyed by the same FNV
//     fingerprint the result cache uses; while an execution for a key
//     is in flight, further submissions attach to it as followers and
//     one pipeline run fans its result out to every attached job.
//   - Fair-share admission: queued executions dispatch under deficit
//     round-robin across tenants, with per-tenant and global pending
//     bounds, so one heavy client cannot starve the rest no matter how
//     fast it submits.
//   - A bounded TTL store: terminal jobs are retained in dual rings
//     (failed/degraded jobs pinned preferentially, after the flight
//     recorder's design) and reaped once their TTL elapses.
//
// The package is pure standard library plus the repository's own
// internal packages, and never imports the serving layer: the manager
// receives its pipeline entry point and worker-pool hook as callbacks.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
	"robustperiod/internal/trace"
	"robustperiod/internal/wal"
)

// State is a job's lifecycle position. The wire form is the lowercase
// name; transitions are queued → running → done|failed.
type State uint8

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StateNames lists the lifecycle states in transition order, for the
// per-state metric gauges.
func StateNames() []string {
	return []string{
		StateQueued.String(), StateRunning.String(),
		StateDone.String(), StateFailed.String(),
	}
}

// Key identifies one detection request for coalescing: the serving
// layer's dual-FNV (series, options) fingerprint plus the series
// length. Two submissions with equal keys are the same computation.
type Key struct {
	H1, H2 uint64
	N      int
}

// Job is one async detection submission. The manager hands out value
// copies; the canonical job is mutated only under the manager's lock.
type Job struct {
	ID        obs.ID
	Tenant    string
	Key       Key
	Cost      int  // scheduling cost in series points
	Coalesced bool // attached to another submission's execution
	Payload   any  // opaque request payload handed to Exec

	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Expires   time.Time // terminal retention deadline

	State    State
	Result   any
	Degraded bool // execution completed with degradation annotations
	Err      error

	// Durable encodings of Payload/Result (codec output), retained so
	// snapshots re-serialize without re-encoding. Empty when the
	// manager runs in-memory.
	payloadRaw []byte
	resultRaw  []byte
}

// Sentinel submission failures. The serving layer maps them onto 429
// (queue bounds) and 503 (shutdown) responses.
var (
	ErrQueueFull       = errors.New("jobs: pending-job queue is full")
	ErrTenantQueueFull = errors.New("jobs: tenant's pending-job bound reached")
	ErrClosed          = errors.New("jobs: manager closed")
)

// Exec runs one detection for a leader job's payload. It executes on a
// worker-pool goroutine with ctx bounding the run; degraded reports
// whether the result carries graceful-degradation annotations (which
// pins the finished job preferentially, like the flight recorder).
type Exec func(ctx context.Context, payload any) (result any, degraded bool, err error)

// Config assembles a Manager. Exec and PoolSubmit are required; every
// other zero value selects a production-safe default.
type Config struct {
	// Exec is the pipeline entry point (required).
	Exec Exec
	// PoolSubmit hands one execution to the serving layer's worker
	// pool (required). It may block while the pool is saturated — that
	// backpressure is what keeps fairness decisions late, at dequeue
	// time, instead of buried in a long pool queue.
	PoolSubmit func(run func()) error
	// Timeout bounds one execution; 0 means 30s.
	Timeout time.Duration
	// TTL is how long terminal jobs stay retrievable; 0 means 5m.
	TTL time.Duration
	// StoreCap bounds retained healthy terminal jobs (plus StoreCap/4,
	// at least 64, pinned failed/degraded jobs on top); 0 means 4096.
	StoreCap int
	// MaxQueued bounds undispatched executions across all tenants;
	// 0 means 4096.
	MaxQueued int
	// MaxQueuedPerTenant bounds one tenant's live (queued, coalesced,
	// running) jobs; 0 means MaxQueued/4.
	MaxQueuedPerTenant int
	// Quantum is the deficit-round-robin budget added per scheduling
	// visit, in series points; 0 means 4096.
	Quantum int
	// ReapEvery is the TTL reaper period; 0 means TTL/4, at most 30s.
	ReapEvery time.Duration
	// OnDone observes every job reaching a terminal state (latency
	// metrics). Called outside the manager lock. Nil disables.
	OnDone func(Job)
	// IDs mints job IDs; nil creates a fresh generator.
	IDs *obs.IDGen
	// Now is the clock, injectable for TTL tests; nil means time.Now.
	Now func() time.Time
	// Durability enables WAL persistence (see persist.go); nil keeps
	// the manager fully in-memory.
	Durability *Durability
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 4096
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4096
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = c.MaxQueued / 4
		if c.MaxQueuedPerTenant < 1 {
			c.MaxQueuedPerTenant = 1
		}
	}
	if c.Quantum <= 0 {
		c.Quantum = 4096
	}
	if c.ReapEvery <= 0 {
		c.ReapEvery = c.TTL / 4
		if c.ReapEvery > 30*time.Second {
			c.ReapEvery = 30 * time.Second
		}
		if c.ReapEvery < 10*time.Millisecond {
			c.ReapEvery = 10 * time.Millisecond
		}
	}
	if c.IDs == nil {
		c.IDs = obs.NewIDGen()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// flight is one in-progress execution and every job riding it; the
// leader (the submission that created the flight) is jobs[0].
type flight struct {
	jobs []*Job
}

// Counters is a snapshot of the manager's cumulative counters.
type Counters struct {
	Submitted  int64 // accepted submissions, followers included
	Coalesced  int64 // follower submissions
	Executions int64 // pipeline runs actually started
	DoneOK     int64 // jobs finished without error
	DoneFailed int64 // jobs finished with an error
	Expired    int64 // terminal jobs reaped past their TTL
	Shed       int64 // submissions rejected by the admission bounds
}

// Manager owns the async tier: the live-job table, the coalescing
// flights, the fair-share queue, its dispatcher goroutine, the
// terminal store and its TTL reaper.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	live    map[obs.ID]*Job // queued and running jobs
	flights map[Key]*flight
	fq      *fairQueue
	store   *store
	closed  bool

	submitted  int64
	coalesced  int64
	executions int64
	doneOK     int64
	doneFailed int64
	shed       int64

	// Durability tier (nil/zero when in-memory; see persist.go).
	wlog          *wal.Log
	codec         Codec
	compactBytes  int64
	recovered     int64
	lost          int64
	walEncodeErrs int64

	stop   chan struct{}
	wg     sync.WaitGroup
	execWG sync.WaitGroup // executions handed to the worker pool
}

// New assembles and starts a Manager, panicking on failure. In-memory
// managers (Durability nil) cannot fail; durable callers that want
// the error — a bad data dir, a corrupt snapshot, an injected replay
// fault — should use Open.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Open assembles and starts a Manager (dispatcher + reaper
// goroutines). Exec and PoolSubmit must be set; Close releases the
// goroutines. With Config.Durability set, Open replays the data
// directory's snapshot+log and restores the previous process's jobs
// before accepting new work (see persist.go).
func Open(cfg Config) (*Manager, error) {
	if cfg.Exec == nil || cfg.PoolSubmit == nil {
		panic("jobs: Config.Exec and Config.PoolSubmit are required")
	}
	cfg = cfg.withDefaults()
	pinCap := cfg.StoreCap / 4
	if pinCap < 64 {
		pinCap = 64
	}
	m := &Manager{
		cfg:     cfg,
		live:    make(map[obs.ID]*Job),
		flights: make(map[Key]*flight),
		fq:      newFairQueue(cfg.Quantum),
		store:   newStore(cfg.StoreCap, pinCap),
		stop:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if d := cfg.Durability; d != nil {
		if d.Dir == "" || d.Codec == nil {
			return nil, errors.New("jobs: Durability needs Dir and Codec")
		}
		l, err := wal.Open(d.Dir, wal.Options{
			Policy:    d.Policy,
			Interval:  d.SyncInterval,
			MaxRecord: d.MaxRecord,
		})
		if err != nil {
			return nil, err
		}
		m.wlog = l
		m.codec = d.Codec
		m.compactBytes = d.CompactBytes
		if m.compactBytes <= 0 {
			m.compactBytes = 8 << 20
		}
		if err := m.recover(); err != nil {
			l.Close()
			return nil, err
		}
	}
	m.wg.Add(2)
	go m.dispatch()
	go m.reapLoop()
	return m, nil
}

// Submit accepts one job. Identical in-flight work coalesces: when an
// execution for key is already queued or running, the job attaches to
// it as a follower and consumes no execution slot. Otherwise the job
// becomes a flight leader and enters its tenant's fair-share queue.
// Returns a copy of the accepted job, or ErrQueueFull /
// ErrTenantQueueFull / ErrClosed (or an injected jobs/store fault).
//
// ctx carries the submitting request's observability scope: when the
// serving layer sampled the request into a span recording, the WAL
// append/fsync and any coalesced-flight attach performed by this
// submission are emitted as spans of that request's trace.
func (m *Manager) Submit(ctx context.Context, tenant string, key Key, cost int, payload any) (Job, error) {
	rec := recordingFrom(ctx)
	// Fault point "jobs/store": a failure registering the job (the
	// store tier is unavailable or rejecting writes).
	if err := faults.Check(faults.PointJobsStore); err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrClosed
	}
	tq := m.fq.tenant(tenant)
	if tq.pending >= m.cfg.MaxQueuedPerTenant {
		m.shed++
		m.dropTenantIfIdle(tenant)
		return Job{}, ErrTenantQueueFull
	}
	j := &Job{
		ID:        m.cfg.IDs.Next(),
		Tenant:    tenant,
		Key:       key,
		Cost:      cost,
		Payload:   payload,
		Submitted: m.cfg.Now(),
		State:     StateQueued,
	}
	fl, coalescing := m.flights[key]
	if !coalescing && m.fq.depth >= m.cfg.MaxQueued {
		m.shed++
		m.dropTenantIfIdle(tenant)
		return Job{}, ErrQueueFull
	}
	if coalescing {
		leader := fl.jobs[0]
		j.Coalesced = true
		j.State = leader.State
		j.Started = leader.Started
	}
	// Durable managers log the submission *before* mutating state: an
	// append failure rejects the job so an unacknowledged submission
	// can never resurrect after a restart.
	if m.wlog != nil {
		raw, err := m.codec.EncodePayload(payload)
		if err != nil {
			m.walEncodeErrs++
			m.dropTenantIfIdle(tenant)
			return Job{}, fmt.Errorf("jobs: encode payload for WAL: %w", err)
		}
		j.payloadRaw = raw
		var appendStart time.Time
		if rec != nil {
			appendStart = time.Now()
		}
		syncDur, err := m.logAppendLocked(&walRecord{
			Kind:        recSubmit,
			ID:          j.ID.String(),
			Tenant:      tenant,
			Key:         &walKey{key.H1, key.H2, key.N},
			Cost:        cost,
			Coalesced:   j.Coalesced,
			SubmittedNS: tsNS(j.Submitted),
			Payload:     raw,
		})
		if err != nil {
			m.dropTenantIfIdle(tenant)
			return Job{}, fmt.Errorf("jobs: durable submit: %w", err)
		}
		if rec != nil {
			// The fsync is the tail of the append; nest it so the trace
			// shows how much of the durable-submit cost was the disk.
			end := time.Now()
			appendID := rec.AddSpan(registry.SpanWALAppend, rec.Context().SpanID,
				appendStart, end.Sub(appendStart),
				trace.Attr{Key: "bytes", Value: strconv.Itoa(len(raw))})
			if syncDur > 0 {
				rec.AddSpan(registry.SpanWALFsync, appendID,
					end.Add(-syncDur), syncDur)
			}
		}
	}
	if coalescing {
		fl.jobs = append(fl.jobs, j)
		m.live[j.ID] = j
		tq.pending++
		m.submitted++
		m.coalesced++
		rec.AddSpan(registry.SpanCoalesce, rec.Context().SpanID, j.Submitted, 0,
			trace.Attr{Key: "leader_job", Value: fl.jobs[0].ID.String()},
			trace.Attr{Key: "job", Value: j.ID.String()})
		return *j, nil
	}
	m.flights[key] = &flight{jobs: []*Job{j}}
	m.live[j.ID] = j
	tq.pending++
	m.submitted++
	m.fq.push(j)
	m.cond.Signal()
	return *j, nil
}

// recordingFrom unwraps the span recording of the request scope in
// ctx, if the serving layer sampled this request. Nil (the common,
// sampled-out case) keeps every span call site allocation-free.
func recordingFrom(ctx context.Context) *trace.Recording {
	if sc := obs.FromContext(ctx); sc != nil {
		if r, ok := sc.Spans.(*trace.Recording); ok {
			return r
		}
	}
	return nil
}

// dropTenantIfIdle forgets a tenant's scheduling state once it has
// nothing live and nothing queued, so distinct API keys do not grow
// the tenant table without bound. Callers hold m.mu.
func (m *Manager) dropTenantIfIdle(tenant string) {
	if tq, ok := m.fq.tenants[tenant]; ok && tq.pending == 0 && len(tq.jobs) == 0 {
		delete(m.fq.tenants, tenant)
	}
}

// Get returns a copy of the job with the given ID, from the live table
// or the terminal store. A terminal job past its TTL is reaped on
// sight and reported missing.
func (m *Manager) Get(id obs.ID) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.live[id]; ok {
		return *j, true
	}
	if j, ok := m.store.get(id, m.cfg.Now()); ok {
		return *j, true
	}
	return Job{}, false
}

// Reap removes every terminal job past its TTL. The reaper goroutine
// calls this periodically; tests with an injected clock call it
// directly.
func (m *Manager) Reap() {
	m.mu.Lock()
	m.store.reap(m.cfg.Now())
	m.mu.Unlock()
}

// QueueDepth reports undispatched executions across all tenants.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fq.depth
}

// Counters snapshots the cumulative counters.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counters{
		Submitted:  m.submitted,
		Coalesced:  m.coalesced,
		Executions: m.executions,
		DoneOK:     m.doneOK,
		DoneFailed: m.doneFailed,
		Expired:    m.store.expired,
		Shed:       m.shed,
	}
}

// StateCounts reports how many retained jobs sit in each lifecycle
// state: queued/running from the live table, done/failed from the
// terminal store.
func (m *Manager) StateCounts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{
		StateQueued.String():  0,
		StateRunning.String(): 0,
		StateDone.String():    0,
		StateFailed.String():  0,
	}
	for _, j := range m.live {
		out[j.State.String()]++
	}
	done, failed := m.store.counts()
	out[StateDone.String()] = done
	out[StateFailed.String()] = failed
	return out
}

// dispatch is the scheduler goroutine: it pops the next job under
// deficit round-robin and hands it to the worker pool, blocking there
// when the pool is saturated so fairness is decided as late as
// possible.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.fq.depth == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.fq.pop()
		m.mu.Unlock()
		if j == nil {
			continue
		}
		m.execWG.Add(1)
		if err := m.cfg.PoolSubmit(func() { defer m.execWG.Done(); m.execute(j) }); err != nil {
			m.execWG.Done()
			m.finishFlight(j.Key, nil, false, err)
		}
	}
}

// execute runs one leader job's flight on the worker goroutine: state
// transition, the bounded pipeline call, and result fan-out. Exec
// checks the jobs/exec fault point itself, under its own panic net; a
// panic that still gets here fails the flight instead of killing the
// pool worker.
func (m *Manager) execute(j *Job) {
	defer func() {
		if v := recover(); v != nil {
			m.finishFlight(j.Key, nil, false, fmt.Errorf("jobs: execution panicked: %v", v))
		}
	}()
	m.mu.Lock()
	if fl, ok := m.flights[j.Key]; ok {
		now := m.cfg.Now()
		for _, jb := range fl.jobs {
			jb.State = StateRunning
			jb.Started = now
		}
		m.logStartLocked(j.Key, now)
	}
	m.executions++
	m.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	defer cancel()
	res, degraded, err := m.cfg.Exec(ctx, j.Payload)
	m.finishFlight(j.Key, res, degraded, err)
}

// finishFlight fans one execution's outcome out to every job attached
// to the key's flight, moves them from the live table to the terminal
// store, and fires the OnDone hook. Idempotent: a second call for the
// same key (e.g. from the panic net) finds no flight and does nothing.
func (m *Manager) finishFlight(key Key, res any, degraded bool, err error) {
	// Encode the result outside the lock; marshal cost scales with the
	// series, the append itself must stay inside the critical section.
	var resRaw []byte
	if m.wlog != nil && res != nil && err == nil {
		b, encErr := m.codec.EncodeResult(res)
		if encErr != nil {
			m.mu.Lock()
			m.walEncodeErrs++
			m.mu.Unlock()
		} else {
			resRaw = b
		}
	}
	m.mu.Lock()
	fl, ok := m.flights[key]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(m.flights, key)
	done := m.finishJobsLocked(fl.jobs, res, degraded, err, resRaw)
	if len(done) > 0 {
		m.logFinishLocked(key, &done[0], resRaw)
	}
	m.mu.Unlock()
	if m.cfg.OnDone != nil {
		for i := range done {
			m.cfg.OnDone(done[i])
		}
	}
}

// finishJobsLocked applies a terminal outcome to jobs under m.mu and
// returns copies for the OnDone hook.
func (m *Manager) finishJobsLocked(jobs []*Job, res any, degraded bool, err error, resRaw []byte) []Job {
	now := m.cfg.Now()
	expires := now.Add(m.cfg.TTL)
	out := make([]Job, 0, len(jobs))
	for _, jb := range jobs {
		jb.Finished = now
		jb.Expires = expires
		jb.Result = res
		jb.resultRaw = resRaw
		jb.Degraded = degraded
		jb.Err = err
		if err != nil {
			jb.State = StateFailed
			m.doneFailed++
		} else {
			jb.State = StateDone
			m.doneOK++
		}
		delete(m.live, jb.ID)
		if tq, ok := m.fq.tenants[jb.Tenant]; ok {
			tq.pending--
		}
		m.dropTenantIfIdle(jb.Tenant)
		m.store.put(jb)
		out = append(out, *jb)
	}
	return out
}

// reapLoop expires terminal jobs on a timer until Close.
func (m *Manager) reapLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ReapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Reap()
			m.maybeCompact()
		case <-m.stop:
			return
		}
	}
}

// Close stops accepting submissions, fails every still-queued flight
// with ErrClosed, and waits for the dispatcher and reaper to exit.
// Executions already handed to the worker pool finish normally (the
// pool drains after the manager closes) and their results remain
// retrievable until the process exits. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	queued := m.fq.drain()
	var failed []Job
	for _, j := range queued {
		fl, ok := m.flights[j.Key]
		if !ok {
			continue
		}
		delete(m.flights, j.Key)
		done := m.finishJobsLocked(fl.jobs, nil, false, ErrClosed, nil)
		if len(done) > 0 {
			m.logFinishLocked(j.Key, &done[0], nil)
		}
		failed = append(failed, done...)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.stop)
	if m.cfg.OnDone != nil {
		for i := range failed {
			m.cfg.OnDone(failed[i])
		}
	}
	m.wg.Wait()
	if m.wlog != nil {
		// Wait for executions still draining on the worker pool so
		// their finish records land in the log, then seal the durable
		// state as one snapshot. A restart after a clean Close
		// restores only terminal jobs.
		m.execWG.Wait()
		m.mu.Lock()
		m.compactLocked() // failure leaves the log as the source of truth
		m.mu.Unlock()
		m.wlog.Close()
	}
}
