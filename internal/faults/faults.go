// Package faults is a deterministic fault-injection framework for
// testing the pipeline's graceful-degradation and the service's
// overload-protection paths. Named fault points are compiled into the
// production code (hp, wavelet, spectrum, core, serve); a Plan arms a
// subset of them with an action — return an error, panic, or stall
// for a fixed latency — optionally gated by a seeded firing
// probability and hit-count windows, so every chaos scenario replays
// bit-identically.
//
// When no plan is armed (the production default) a fault point costs
// one atomic pointer load and performs no allocation, so Check can be
// threaded through hot paths unconditionally. Plans are armed
// programmatically (Enable) or from the RP_FAULTS environment
// variable in rpserved, e.g.
//
//	RP_FAULTS="spectrum/solver:error:p=0.5:seed=7,serve/worker:delay=200ms"
//
// Spec grammar: comma-separated clauses, each
//
//	point:action[:key=value]...
//
// with action one of "error", "panic", "delay=<duration>", and
// optional modifiers p=<probability in (0,1]>, seed=<int64>,
// after=<skip first N hits>, times=<fire at most N times>.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustperiod/internal/registry"
)

// Canonical fault-point names compiled into the pipeline and the
// serving layer, aliased from internal/registry (the single source of
// truth rplint checks call sites against). Checks on other names are
// legal (the framework is open-ended) but these are the ones
// production code hits.
const (
	PointHPRobustSolver  = registry.FaultHPRobustSolver  // robust HP trend IRLS solve
	PointWaveletTransfrm = registry.FaultWaveletTransfrm // circular MODWT pyramid
	PointWaveletReflect  = registry.FaultWaveletReflect  // reflection-boundary MODWT fallback
	PointSpectrumSolver  = registry.FaultSpectrumSolver  // per-frequency IRLS/ADMM regressions
	PointSpectrumStall   = registry.FaultSpectrumStall   // latency surrogate inside the periodogram
	PointCoreLevel       = registry.FaultCoreLevel       // one wavelet level's detection
	PointServeHandler    = registry.FaultServeHandler    // HTTP handler body
	PointServeWorker     = registry.FaultServeWorker     // worker-pool job start
	PointServeCache      = registry.FaultServeCache      // result-cache read (corruption surrogate)
	PointJobsStore       = registry.FaultJobsStore       // async job-store insert (submission path)
	PointJobsExec        = registry.FaultJobsExec        // async job execution start
	PointWALAppend       = registry.FaultWALAppend       // write-ahead-log record append
	PointWALFsync        = registry.FaultWALFsync        // write-ahead-log fsync
	PointWALReplay       = registry.FaultWALReplay       // write-ahead-log startup replay
)

// Points lists the canonical fault points, for documentation and
// exhaustive chaos sweeps.
func Points() []string { return registry.FaultPoints() }

// Action is what an armed fault point does when it fires.
type Action int

// Supported actions.
const (
	ActError Action = iota // Check returns an *InjectedError
	ActPanic               // Check panics with an *InjectedError
	ActDelay               // Check sleeps Delay, then reports no fault
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// InjectedError is the error every firing fault point produces (or
// panics with). Degradation code uses IsInjected/errors.As to treat
// injected failures exactly like organic ones while tests can still
// tell them apart.
type InjectedError struct {
	Point string
}

func (e *InjectedError) Error() string {
	return "faults: injected failure at " + e.Point
}

// IsInjected reports whether err originates from a fault point.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// point is one armed fault point.
type point struct {
	name   string
	action Action
	delay  time.Duration
	p      float64 // firing probability per hit, (0, 1]
	after  int64   // skip the first `after` hits
	times  int64   // fire at most `times` times; 0 = unlimited

	mu    sync.Mutex
	rng   *rand.Rand
	hits  int64
	fires int64
}

// fire decides (deterministically, under the point's own seeded RNG)
// whether this hit fires.
func (pt *point) fire() bool {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.hits++
	if pt.hits <= pt.after {
		return false
	}
	if pt.times > 0 && pt.fires >= pt.times {
		return false
	}
	if pt.p < 1 && pt.rng.Float64() >= pt.p {
		return false
	}
	pt.fires++
	return true
}

// Plan is a parsed, armable set of fault points.
type Plan struct {
	points map[string]*point
	spec   string
}

// String returns the spec the plan was parsed from.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return p.spec
}

// Stats reports hits and fires per armed point, for tests and the
// debug surfaces.
func (p *Plan) Stats() map[string][2]int64 {
	if p == nil {
		return nil
	}
	out := make(map[string][2]int64, len(p.points))
	for name, pt := range p.points {
		pt.mu.Lock()
		out[name] = [2]int64{pt.hits, pt.fires}
		pt.mu.Unlock()
	}
	return out
}

// Parse compiles a fault spec (see the package comment for the
// grammar) into a Plan. An empty spec yields a nil Plan, which arms
// nothing.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &Plan{points: make(map[string]*point), spec: spec}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		fields := strings.Split(clause, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faults: clause %q needs point:action", clause)
		}
		pt := &point{name: fields[0], p: 1}
		var seed int64 = 1
		haveAction := false
		for _, f := range fields[1:] {
			key, val, hasVal := strings.Cut(f, "=")
			switch key {
			case "error":
				pt.action, haveAction = ActError, true
			case "panic":
				pt.action, haveAction = ActPanic, true
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || !hasVal {
					return nil, fmt.Errorf("faults: bad delay in %q", clause)
				}
				pt.action, pt.delay, haveAction = ActDelay, d, true
			case "p":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil || !hasVal || v <= 0 || v > 1 {
					return nil, fmt.Errorf("faults: bad probability in %q", clause)
				}
				pt.p = v
			case "seed":
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil || !hasVal {
					return nil, fmt.Errorf("faults: bad seed in %q", clause)
				}
				seed = v
			case "after":
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil || !hasVal || v < 0 {
					return nil, fmt.Errorf("faults: bad after in %q", clause)
				}
				pt.after = v
			case "times":
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil || !hasVal || v < 0 {
					return nil, fmt.Errorf("faults: bad times in %q", clause)
				}
				pt.times = v
			default:
				return nil, fmt.Errorf("faults: unknown directive %q in %q", f, clause)
			}
		}
		if !haveAction {
			return nil, fmt.Errorf("faults: clause %q has no action (error|panic|delay=<dur>)", clause)
		}
		pt.rng = rand.New(rand.NewSource(seed))
		if _, dup := plan.points[pt.name]; dup {
			return nil, fmt.Errorf("faults: point %q armed twice", pt.name)
		}
		plan.points[pt.name] = pt
	}
	if len(plan.points) == 0 {
		return nil, nil
	}
	return plan, nil
}

// MustParse is Parse for tests and hand-written specs; it panics on a
// malformed spec.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// active is the armed plan; nil means every fault point is inert.
var active atomic.Pointer[Plan]

// Enable arms a plan process-wide, replacing any previous one. A nil
// plan is equivalent to Disable.
func Enable(p *Plan) {
	if p == nil {
		active.Store(nil)
		return
	}
	active.Store(p)
}

// Disable disarms all fault points.
func Disable() { active.Store(nil) }

// Active reports whether any plan is armed.
func Active() bool { return active.Load() != nil }

// Describe returns the armed spec plus per-point hit/fire counts, or
// "" when disabled — the string rpserved exposes on its debug surface.
func Describe() string {
	p := active.Load()
	if p == nil {
		return ""
	}
	stats := p.Stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(p.spec)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(&b, " [%s hits=%d fires=%d]", n, s[0], s[1])
	}
	return b.String()
}

// Check is the fault-point hook compiled into production code. With
// no plan armed it is a single atomic load returning nil — no
// allocation, no lock. With the named point armed and firing, it
// returns an *InjectedError (ActError), panics with one (ActPanic),
// or sleeps and returns nil (ActDelay).
func Check(name string) error { return check(name, nil) }

// CheckDone is Check for a point inside work that a cancellation
// signal bounds: a delay ends early once done is closed, as the slow
// work it stands for would stop. A nil done never closes.
func CheckDone(name string, done <-chan struct{}) error { return check(name, done) }

func check(name string, done <-chan struct{}) error {
	plan := active.Load()
	if plan == nil {
		return nil
	}
	pt, ok := plan.points[name]
	if !ok || !pt.fire() {
		return nil
	}
	switch pt.action {
	case ActPanic:
		panic(&InjectedError{Point: name})
	case ActDelay:
		t := time.NewTimer(pt.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-done:
		}
		return nil
	default:
		return &InjectedError{Point: name}
	}
}
