// Package trace is the observability layer of the detection pipeline:
// a Trace value injected through core.Options (and from there into the
// wavelet, spectrum and detect stages) accumulates per-stage wall
// time, heap-allocation counts and stage-specific diagnostic counters
// (HP-filter IRLS iterations, MODWT boundary coefficients, solver
// iteration totals, Fisher/ACF verdicts).
//
// Every method is nil-safe and the nil path is allocation-free, so a
// *Trace can be threaded unconditionally through hot code: callers
// that do not want tracing pass nil and pay only a pointer comparison.
// Same-named stages recorded from concurrent goroutines (the
// per-level detections) merge into one accumulator, so a Summary
// reports each pipeline stage exactly once.
package trace

import (
	"runtime/metrics"
	"sync"
	"time"

	"robustperiod/internal/registry"
)

// Canonical stage names of the RobustPeriod pipeline (Fig. 1 of the
// paper), in execution order, aliased from internal/registry (the
// single source of truth rplint checks call sites against).
const (
	StageHPFilter    = registry.StageHPFilter    // HP detrending + winsorized normalization
	StageMODWT       = registry.StageMODWT       // maximal overlap DWT decomposition
	StageRanking     = registry.StageRanking     // robust wavelet-variance level ranking
	StagePeriodogram = registry.StagePeriodogram // Huber-periodogram + Fisher test (per level)
	StageValidation  = registry.StageValidation  // Huber-ACF validation + refinement
)

// PipelineStages lists the canonical stages in pipeline order; the
// serve layer uses it to pre-register one latency histogram per stage.
func PipelineStages() []string { return registry.TraceStages() }

// Canonical per-stage counter names, aliased from internal/registry.
// The periodogram solver engine reports its staged-solve diagnostics
// under these keys (see README "Periodogram performance").
const (
	CounterSolverIters    = registry.CounterSolverIters    // Newton/IRLS/ADMM iterations, summed over solves
	CounterPrefilterSkips = registry.CounterPrefilterSkips // frequencies certified below the Fisher floor
)

// Stage is one merged stage accumulator of a Summary.
type Stage struct {
	// Name identifies the stage (one of the Stage* constants, or any
	// caller-chosen label).
	Name string
	// Calls is how many timed sections were merged into this stage
	// (e.g. one periodogram call per selected wavelet level).
	Calls int64
	// Duration is the summed wall time of all merged sections. For
	// sections that ran concurrently this can exceed elapsed time.
	Duration time.Duration
	// Allocs is the summed heap-object allocation delta observed over
	// the sections. The counter is process-wide, so concurrent
	// activity in other goroutines is attributed to whichever stages
	// were open — treat it as an indicator, not an exact account.
	Allocs uint64
	// Counters holds stage-specific diagnostics, e.g. "irls_iters",
	// "boundary_dropped", "fisher_pass".
	Counters map[string]int64
}

// LevelOutcome records the verdict trail of one wavelet level — the
// paper's Fig. 5 row, condensed for machine consumption.
type LevelOutcome struct {
	Level    int     // 1-based MODWT level
	Variance float64 // robust unbiased wavelet variance
	Boundary int     // boundary coefficients excluded from the variance
	Selected bool    // ranked into the dominating-energy set
	Fisher   bool    // Fisher g-test significant
	Periodic bool    // final per-level verdict (Fisher + ACF validation)
	Period   int     // validated period (0 when not periodic)
}

// Summary is the finished, copyable view of a Trace.
type Summary struct {
	// Total is the wall time from New to the Summary call.
	Total time.Duration
	// Stages lists every recorded stage in first-start order.
	Stages []Stage
	// Levels lists per-wavelet-level outcomes in recording order.
	Levels []LevelOutcome
}

// Stage returns the stage with the given name, or nil.
func (s *Summary) Stage(name string) *Stage {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			return &s.Stages[i]
		}
	}
	return nil
}

// stageAcc is the internal mutable accumulator behind one Stage.
type stageAcc struct {
	calls    int64
	duration time.Duration
	allocs   uint64
	counters map[string]int64
}

// Trace accumulates pipeline diagnostics. The zero value is not
// usable; create with New. All methods are safe for concurrent use
// and safe on a nil receiver (where they do nothing).
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	order  []string
	stages map[string]*stageAcc
	levels []LevelOutcome

	// Span recording attached by the serving layer (AttachSpans); when
	// non-nil every closed stage section is also emitted as a span
	// parented under recParent. Nil on unsampled requests — the stage
	// path then costs exactly what it did before spans existed.
	rec       *Recording
	recParent SpanID
}

// New returns an empty Trace; its Total clock starts now.
func New() *Trace {
	return &Trace{start: time.Now(), stages: make(map[string]*stageAcc)}
}

// Enabled reports whether the trace records anything (i.e. is
// non-nil); useful to skip building expensive diagnostic values.
func (t *Trace) Enabled() bool { return t != nil }

// StageTimer is an open timed section returned by StartStage. It is a
// plain value (never heap-allocated); call End exactly once.
type StageTimer struct {
	t      *Trace
	name   string
	start  time.Time
	allocs uint64
}

// StartStage opens a timed section for the named stage. On a nil
// Trace it returns an inert timer and performs no work at all — no
// clock read, no allocation.
func (t *Trace) StartStage(name string) StageTimer {
	if t == nil {
		return StageTimer{}
	}
	return StageTimer{t: t, name: name, start: time.Now(), allocs: heapAllocs()}
}

// End closes the section, merging its wall time and allocation delta
// into the stage's accumulator. End on an inert timer is a no-op.
func (s StageTimer) End() {
	if s.t == nil {
		return
	}
	s.t.record(s.name, s.start, time.Since(s.start), heapAllocs()-s.allocs)
}

func (t *Trace) record(name string, start time.Time, d time.Duration, allocs uint64) {
	t.mu.Lock()
	acc := t.acc(name)
	acc.calls++
	acc.duration += d
	acc.allocs += allocs
	rec, parent := t.rec, t.recParent
	t.mu.Unlock()
	// Span emission happens outside t.mu (the recording has its own
	// lock) so concurrent per-level sections never pile up on the
	// trace mutex waiting for span bookkeeping.
	rec.AddSpan(name, parent, start, d)
}

// acc returns (creating if needed) the accumulator for name.
// Caller holds t.mu.
func (t *Trace) acc(name string) *stageAcc {
	acc, ok := t.stages[name]
	if !ok {
		acc = &stageAcc{}
		t.stages[name] = acc
		t.order = append(t.order, name)
	}
	return acc
}

// Count adds n to the named diagnostic counter of a stage. The stage
// is created if no timed section has touched it yet.
func (t *Trace) Count(stage, key string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	acc := t.acc(stage)
	if acc.counters == nil {
		acc.counters = make(map[string]int64)
	}
	acc.counters[key] += n
	t.mu.Unlock()
}

// CountBool bumps trueKey or falseKey by one depending on v —
// convenience for accept/reject tallies.
func (t *Trace) CountBool(stage string, v bool, trueKey, falseKey string) {
	if t == nil {
		return
	}
	key := falseKey
	if v {
		key = trueKey
	}
	//lint:ignore rplint/registry CountBool forwards its stage argument to Count; call sites pass registry constants and are checked there
	t.Count(stage, key, 1)
}

// RecordLevel appends one wavelet level's outcome.
func (t *Trace) RecordLevel(l LevelOutcome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.levels = append(t.levels, l)
	t.mu.Unlock()
}

// Summary snapshots the trace. The receiver stays usable (a second
// detection can keep accumulating); a nil Trace yields a zero
// Summary.
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{Total: time.Since(t.start)}
	s.Stages = make([]Stage, 0, len(t.order))
	for _, name := range t.order {
		acc := t.stages[name]
		st := Stage{
			Name:     name,
			Calls:    acc.calls,
			Duration: acc.duration,
			Allocs:   acc.allocs,
		}
		if len(acc.counters) > 0 {
			st.Counters = make(map[string]int64, len(acc.counters))
			for k, v := range acc.counters {
				st.Counters[k] = v
			}
		}
		s.Stages = append(s.Stages, st)
	}
	if len(t.levels) > 0 {
		s.Levels = append([]LevelOutcome(nil), t.levels...)
	}
	return s
}

// allocSamplePool recycles the one-element metrics sample slice so
// reading the allocation counter does not itself allocate per stage.
var allocSamplePool = sync.Pool{
	New: func() any {
		s := make([]metrics.Sample, 1)
		s[0].Name = "/gc/heap/allocs:objects"
		return &s
	},
}

// heapAllocs returns the process-wide cumulative count of allocated
// heap objects (runtime/metrics; cheap, no stop-the-world).
func heapAllocs() uint64 {
	sp := allocSamplePool.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	v := (*sp)[0].Value.Uint64()
	allocSamplePool.Put(sp)
	return v
}
