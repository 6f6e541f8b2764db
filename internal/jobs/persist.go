package jobs

// Durability: the manager's write-ahead-log integration. Submissions,
// flight state transitions, and results append typed records to an
// internal/wal log; on startup the manager replays snapshot+log and
// restores what the previous process owed its clients — finished jobs
// go back into the TTL store with their original deadlines, jobs that
// were still queued are re-enqueued for execution, and jobs that were
// mid-execution (their computation died with the process) fail with
// ErrLostToRestart so pollers get a distinguishable "resubmit me"
// answer instead of a 404.
//
// Record ordering is the correctness backbone: every record is
// appended while holding the manager lock, in the same critical
// section as the state change it describes, so the log is a
// linearization of the manager's history. Submissions append *before*
// the state mutation and reject the submission if the append fails
// (an unacknowledged job may never resurrect); transition records
// append after their mutation but inside the same critical section,
// so a client can never observe a state the log does not yet imply.
// Replay is idempotent — re-applying a record already covered by the
// snapshot is a no-op — which is what lets compaction swap files
// non-atomically (see wal.Compact).

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"robustperiod/internal/obs"
	"robustperiod/internal/wal"
)

// ErrLostToRestart marks jobs that were mid-execution when the
// process died: their computation is gone and the client should
// resubmit. Distinguishable from ErrClosed (graceful drain) via
// errors.Is.
var ErrLostToRestart = errors.New("jobs: execution lost to restart, resubmit")

// Codec translates the serving layer's opaque job payloads and
// results to and from durable bytes. The jobs package never learns
// the concrete types; the codec lives with whoever owns them.
type Codec interface {
	EncodePayload(payload any) ([]byte, error)
	DecodePayload(data []byte) (any, error)
	EncodeResult(result any) ([]byte, error)
	DecodeResult(data []byte) (any, error)
}

// ErrorCodec is a Codec that also persists failures: a failure it
// encodes (EncodeError returns nil for one it does not) replays as
// what DecodeError restores, in place of the plain error its kind and
// message give.
type ErrorCodec interface {
	EncodeError(err error) []byte
	DecodeError(data []byte) error
}

// Durability enables WAL persistence for a Manager.
type Durability struct {
	// Dir is the data directory (required).
	Dir string
	// Codec encodes payloads/results (required).
	Codec Codec
	// Policy is the fsync policy; the zero value is wal.SyncAlways.
	Policy wal.Policy
	// SyncInterval is the background fsync period under
	// wal.SyncInterval; <= 0 means the wal default.
	SyncInterval time.Duration
	// CompactBytes triggers snapshot+compaction when the log segment
	// exceeds it; <= 0 means 8 MiB.
	CompactBytes int64
	// MaxRecord caps one WAL record; <= 0 means the wal default.
	MaxRecord int
}

// WAL record kinds. submit/start/finish are the incremental log;
// "job" is a full-state snapshot entry.
const (
	recSubmit = "submit"
	recStart  = "start"
	recFinish = "finish"
	recJob    = "job"
)

// Terminal error classes persisted in finish records. Free-form
// messages survive in ErrMsg; the kind is what restores sentinels.
const (
	errKindClosed = "closed"
	errKindLost   = "lost"
	errKindOther  = "error"
)

// walKey is the coalescing key's wire form.
type walKey struct {
	H1 uint64 `json:"h1"`
	H2 uint64 `json:"h2"`
	N  int    `json:"n"`
}

func (k *walKey) key() Key { return Key{H1: k.H1, H2: k.H2, N: k.N} }

// walRecord is the JSON envelope inside every WAL frame. submit and
// job records carry identity; start/finish are flight-level (keyed)
// and fan out to every member on replay, mirroring finishFlight.
type walRecord struct {
	Kind        string          `json:"kind"`
	ID          string          `json:"id,omitempty"`
	Tenant      string          `json:"tenant,omitempty"`
	Key         *walKey         `json:"key,omitempty"`
	Cost        int             `json:"cost,omitempty"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	State       string          `json:"state,omitempty"` // snapshot entries only
	SubmittedNS int64           `json:"subNs,omitempty"`
	StartedNS   int64           `json:"startNs,omitempty"`
	FinishedNS  int64           `json:"finNs,omitempty"`
	ExpiresNS   int64           `json:"expNs,omitempty"`
	Degraded    bool            `json:"degraded,omitempty"`
	ErrKind     string          `json:"errKind,omitempty"`
	ErrMsg      string          `json:"errMsg,omitempty"`
	Error       json.RawMessage `json:"error,omitempty"` // ErrorCodec form of the failure
	Payload     json.RawMessage `json:"payload,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// walSnapshot is the single snapshot frame: terminal jobs first (in
// ring order), then live flights with each leader before its
// followers, so replay rebuilds flight membership leader-first.
type walSnapshot struct {
	Jobs []walRecord `json:"jobs"`
}

func tsNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromNS(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func errKindOf(err error) (kind, msg string) {
	switch {
	case err == nil:
		return "", ""
	case errors.Is(err, ErrClosed):
		return errKindClosed, err.Error()
	case errors.Is(err, ErrLostToRestart):
		return errKindLost, err.Error()
	default:
		return errKindOther, err.Error()
	}
}

// encodeErr is err's ErrorCodec form, or nil.
func (m *Manager) encodeErr(err error) json.RawMessage {
	if ec, ok := m.codec.(ErrorCodec); ok && err != nil {
		return ec.EncodeError(err)
	}
	return nil
}

func errFromKind(kind, msg string) error {
	switch kind {
	case "":
		return nil
	case errKindClosed:
		return ErrClosed
	case errKindLost:
		return ErrLostToRestart
	default:
		if msg == "" {
			msg = "jobs: failed before restart"
		}
		return errors.New(msg)
	}
}

// WALStats is the durability tier's observability snapshot; zero with
// Enabled=false when the manager runs in-memory.
type WALStats struct {
	Enabled       bool
	Appends       int64 // records appended (incl. snapshot frames)
	AppendErrs    int64 // failed appends (injected or real I/O)
	Fsyncs        int64 // successful fsyncs
	SyncErrs      int64 // failed fsyncs
	Bytes         int64 // current log segment size
	ReplayRecords int64 // records decoded at startup
	Compactions   int64 // snapshot+compaction cycles
	EncodeErrs    int64 // payload/result marshal failures
	Recovered     int64 // jobs restored pollable (finished + re-enqueued)
	Lost          int64 // jobs failed as lost to restart
}

// WALStats snapshots the durability counters.
func (m *Manager) WALStats() WALStats {
	if m.wlog == nil {
		return WALStats{}
	}
	st := m.wlog.Stats()
	m.mu.Lock()
	recovered, lost, encodeErrs := m.recovered, m.lost, m.walEncodeErrs
	m.mu.Unlock()
	return WALStats{
		Enabled:       true,
		Appends:       st.Appends,
		AppendErrs:    st.AppendErrs,
		Fsyncs:        st.Fsyncs,
		SyncErrs:      st.SyncErrs,
		Bytes:         st.Bytes,
		ReplayRecords: st.ReplayRecords,
		Compactions:   st.Compactions,
		EncodeErrs:    encodeErrs,
		Recovered:     recovered,
		Lost:          lost,
	}
}

// logAppendLocked marshals and appends one record under m.mu. Append
// failures on transition records are counted, not propagated: the
// in-memory state machine stays authoritative for this process, and
// at worst a restart replays the flight one transition behind
// (re-running a queued flight, or losing a finished result to a
// resubmit) — never inventing a job.
func (m *Manager) logAppendLocked(rec *walRecord) (time.Duration, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		m.walEncodeErrs++
		return 0, fmt.Errorf("jobs: encode WAL record: %w", err)
	}
	return m.wlog.AppendTimed(b)
}

func (m *Manager) logStartLocked(key Key, now time.Time) {
	if m.wlog == nil {
		return
	}
	k := walKey{key.H1, key.H2, key.N}
	m.logAppendLocked(&walRecord{Kind: recStart, Key: &k, StartedNS: tsNS(now)})
}

// logFinishLocked records a flight's terminal outcome; done is any
// finished member (they share outcome and deadlines).
func (m *Manager) logFinishLocked(key Key, done *Job, resRaw []byte) {
	if m.wlog == nil {
		return
	}
	k := walKey{key.H1, key.H2, key.N}
	kind, msg := errKindOf(done.Err)
	m.logAppendLocked(&walRecord{
		Kind:       recFinish,
		Key:        &k,
		FinishedNS: tsNS(done.Finished),
		ExpiresNS:  tsNS(done.Expires),
		Degraded:   done.Degraded,
		ErrKind:    kind,
		ErrMsg:     msg,
		Error:      m.encodeErr(done.Err),
		Result:     resRaw,
	})
}

// recordFromJob builds a snapshot entry carrying a job's full state.
func (m *Manager) recordFromJob(j *Job) walRecord {
	kind, msg := errKindOf(j.Err)
	return walRecord{
		Kind:        recJob,
		ID:          j.ID.String(),
		Tenant:      j.Tenant,
		Key:         &walKey{j.Key.H1, j.Key.H2, j.Key.N},
		Cost:        j.Cost,
		Coalesced:   j.Coalesced,
		State:       j.State.String(),
		SubmittedNS: tsNS(j.Submitted),
		StartedNS:   tsNS(j.Started),
		FinishedNS:  tsNS(j.Finished),
		ExpiresNS:   tsNS(j.Expires),
		Degraded:    j.Degraded,
		ErrKind:     kind,
		ErrMsg:      msg,
		Error:       m.encodeErr(j.Err),
		Payload:     j.payloadRaw,
		Result:      j.resultRaw,
	}
}

// replayState folds the snapshot and log into per-job latest state
// plus flight membership (leader first), mirroring the manager's own
// transition rules: start/finish records fan out to every member of
// the key's flight at that point in the history.
type replayState struct {
	jobs    map[string]*walRecord
	order   []string
	flights map[Key][]string
}

func newReplayState() *replayState {
	return &replayState{jobs: make(map[string]*walRecord), flights: make(map[Key][]string)}
}

// terminalState reports whether a folded record is done/failed.
func terminalState(rec *walRecord) bool {
	return rec.State == StateDone.String() || rec.State == StateFailed.String()
}

func (st *replayState) apply(rec *walRecord) {
	switch rec.Kind {
	case recSubmit, recJob:
		if rec.ID == "" || rec.Key == nil {
			return
		}
		if _, seen := st.jobs[rec.ID]; !seen {
			st.order = append(st.order, rec.ID)
		}
		st.jobs[rec.ID] = rec
		if terminalState(rec) {
			return
		}
		k := rec.Key.key()
		for _, id := range st.flights[k] {
			if id == rec.ID {
				return
			}
		}
		st.flights[k] = append(st.flights[k], rec.ID)
	case recStart:
		if rec.Key == nil {
			return
		}
		for _, id := range st.flights[rec.Key.key()] {
			j := st.jobs[id]
			j.State = StateRunning.String()
			j.StartedNS = rec.StartedNS
		}
	case recFinish:
		if rec.Key == nil {
			return
		}
		k := rec.Key.key()
		for _, id := range st.flights[k] {
			j := st.jobs[id]
			if rec.ErrKind != "" {
				j.State = StateFailed.String()
			} else {
				j.State = StateDone.String()
			}
			j.FinishedNS = rec.FinishedNS
			j.ExpiresNS = rec.ExpiresNS
			j.Degraded = rec.Degraded
			j.ErrKind = rec.ErrKind
			j.ErrMsg = rec.ErrMsg
			j.Error = rec.Error
			j.Result = rec.Result
		}
		delete(st.flights, k)
	}
}

// jobFromRecord rebuilds a Job. needPayload is true for jobs that
// will execute again (their payload must decode); for terminal jobs a
// payload decode failure only costs the payload-derived details, not
// the job.
func (m *Manager) jobFromRecord(rec *walRecord, needPayload bool) (*Job, error) {
	id, ok := obs.ParseID(rec.ID)
	if !ok {
		return nil, fmt.Errorf("jobs: replay: bad job ID %q", rec.ID)
	}
	j := &Job{
		ID:         id,
		Tenant:     rec.Tenant,
		Key:        rec.Key.key(),
		Cost:       rec.Cost,
		Coalesced:  rec.Coalesced,
		Submitted:  fromNS(rec.SubmittedNS),
		Started:    fromNS(rec.StartedNS),
		Finished:   fromNS(rec.FinishedNS),
		Expires:    fromNS(rec.ExpiresNS),
		Degraded:   rec.Degraded,
		Err:        errFromKind(rec.ErrKind, rec.ErrMsg),
		payloadRaw: rec.Payload,
		resultRaw:  rec.Result,
	}
	// A failure the codec persisted comes back as the codec restores it.
	if ec, ok := m.codec.(ErrorCodec); ok && len(rec.Error) > 0 {
		if err := ec.DecodeError(rec.Error); err != nil {
			j.Err = err
		}
	}
	switch rec.State {
	case StateRunning.String():
		j.State = StateRunning
	case StateDone.String():
		j.State = StateDone
	case StateFailed.String():
		j.State = StateFailed
	default:
		j.State = StateQueued
	}
	if len(rec.Payload) > 0 {
		p, perr := m.codec.DecodePayload(rec.Payload)
		if perr != nil {
			if needPayload {
				return nil, fmt.Errorf("jobs: replay: decode payload: %w", perr)
			}
			m.walEncodeErrs++
		} else {
			j.Payload = p
		}
	}
	if len(rec.Result) > 0 && j.Err == nil {
		r, rerr := m.codec.DecodeResult(rec.Result)
		if rerr != nil {
			return nil, fmt.Errorf("jobs: replay: decode result: %w", rerr)
		}
		j.Result = r
	}
	return j, nil
}

// recover replays the durable state and restores it into the
// manager's structures. Runs from Open, before the dispatcher and
// reaper goroutines start, so it needs no lock.
func (m *Manager) recover() error {
	st := newReplayState()
	applyBytes := func(b []byte) error {
		var rec walRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			// A CRC-valid frame that does not decode is corruption
			// past the framing layer (or a future record kind);
			// skipping it loses at most that transition.
			m.walEncodeErrs++
			return nil
		}
		st.apply(&rec)
		return nil
	}
	err := m.wlog.Replay(
		func(snap []byte) error {
			var s walSnapshot
			if err := json.Unmarshal(snap, &s); err != nil {
				return fmt.Errorf("jobs: decode snapshot: %w", err)
			}
			for i := range s.Jobs {
				st.apply(&s.Jobs[i])
			}
			return nil
		},
		applyBytes,
	)
	if err != nil {
		return err
	}
	m.restore(st)
	// Compact immediately: the restored state (including jobs just
	// failed as lost) becomes one snapshot and the replayed history
	// is dropped, so startup cost stays bounded across restarts.
	if err := m.compactLocked(); err != nil {
		return fmt.Errorf("jobs: post-recovery compaction: %w", err)
	}
	return nil
}

// restore moves folded replay state into the manager: live terminal
// jobs back into the TTL store with their original deadlines, queued
// flights back onto the fair-share queue, and running flights — whose
// computation died with the old process — failed as ErrLostToRestart.
func (m *Manager) restore(st *replayState) {
	now := m.cfg.Now()
	handledFlight := make(map[Key]bool)
	for _, id := range st.order {
		rec := st.jobs[id]
		if terminalState(rec) {
			if fromNS(rec.ExpiresNS).IsZero() || !fromNS(rec.ExpiresNS).After(now) {
				m.store.expired++
				continue
			}
			j, err := m.jobFromRecord(rec, false)
			if err != nil {
				m.walEncodeErrs++
				continue
			}
			m.store.put(j)
			m.recovered++
			continue
		}
		k := rec.Key.key()
		if handledFlight[k] {
			continue
		}
		handledFlight[k] = true
		ids := st.flights[k]
		members := make([]*Job, 0, len(ids))
		running := false
		var decodeErr error
		for _, mid := range ids {
			mrec := st.jobs[mid]
			if mrec.State == StateRunning.String() {
				running = true
			}
			j, err := m.jobFromRecord(mrec, true)
			if err != nil {
				decodeErr = err
				// Keep a pollable shell so the ID still resolves.
				if shell, serr := m.jobFromRecord(mrec, false); serr == nil {
					j = shell
				} else {
					m.walEncodeErrs++
					continue
				}
			}
			members = append(members, j)
		}
		if len(members) == 0 {
			continue
		}
		if running || decodeErr != nil {
			// The execution died with the old process (or its payload
			// no longer decodes): fail every member distinguishably.
			err := ErrLostToRestart
			if decodeErr != nil {
				err = fmt.Errorf("jobs: payload undecodable after restart: %w: %w", decodeErr, ErrLostToRestart)
			}
			m.finishJobsLocked(members, nil, false, err, nil)
			m.lost += int64(len(members))
			continue
		}
		// Still queued at crash time: re-enqueue the whole flight.
		// Admission bounds are not re-checked — these jobs were
		// already acknowledged with a 202.
		m.flights[k] = &flight{jobs: members}
		for _, j := range members {
			m.live[j.ID] = j
			m.fq.tenant(j.Tenant).pending++
		}
		m.fq.push(members[0])
		m.recovered += int64(len(members))
	}
}

// snapshotLocked marshals the full retained state under m.mu:
// terminal jobs in ring order, then live flights leader-first.
func (m *Manager) snapshotLocked() ([]byte, error) {
	var snap walSnapshot
	for _, j := range m.store.all() {
		snap.Jobs = append(snap.Jobs, m.recordFromJob(j))
	}
	for _, fl := range m.flights {
		for _, j := range fl.jobs {
			snap.Jobs = append(snap.Jobs, m.recordFromJob(j))
		}
	}
	return json.Marshal(&snap)
}

// compactLocked snapshots and compacts the log. Callers hold m.mu (or
// are single-threaded startup).
func (m *Manager) compactLocked() error {
	if m.wlog == nil {
		return nil
	}
	b, err := m.snapshotLocked()
	if err != nil {
		m.walEncodeErrs++
		return fmt.Errorf("jobs: encode snapshot: %w", err)
	}
	return m.wlog.Compact(b)
}

// maybeCompact compacts when the log segment outgrows the configured
// bound; called from the reaper tick.
func (m *Manager) maybeCompact() {
	if m.wlog == nil || m.wlog.Size() < m.compactBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.compactLocked() // failure already counted; retried next tick
}

// crash abandons the manager without draining queues, failing flights
// or flushing the log — the in-process stand-in for kill -9 that
// recovery tests use. Production code uses Close.
func (m *Manager) crash() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.stop)
	if m.wlog != nil {
		m.wlog.Close()
	}
}
