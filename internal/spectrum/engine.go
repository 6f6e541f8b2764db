package spectrum

// The staged solver engine behind MPeriodogram and HybridPeriodogram.
//
// The per-frequency robust harmonic regressions of Eq. 6 are an
// embarrassingly parallel loop whose per-iterate work is tiny, so the
// engine is organized around keeping that loop allocation-free and
// cache-resident:
//
//   - a trig plan cache keyed by (N, FitLength) precomputes the N-th
//     roots of unity once and shares them across every wavelet level
//     (each level solves a different band of the same padded grid);
//   - the band is carved into fixed 64-frequency chunks that par.Each
//     spreads over the caller and any idle cores, each chunk solved in
//     a pooled scratch arena (trig columns, ADMM state);
//   - on the padded detect layout, the Huber solve takes Newton steps,
//     which stop once the set of outlying samples stops changing
//     (about three per frequency, where IRLS took about ten), with
//     IRLS as the safeguard; each step reads only the samples whose
//     residual can leave the quadratic region, found through an |x|
//     ladder built once per band (see ladder).
//
// Every frequency is solved from its own OLS init, independently of
// its neighbours, so the ordinates are bitwise identical no matter how
// many goroutines share the band.

import (
	"math"
	"sync"
	"sync/atomic"

	"robustperiod/internal/par"
	"robustperiod/internal/stat/dist"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
)

const (
	// solveChunk is the fixed work-unit width, in frequencies: large
	// enough that claiming a chunk off the cursor costs nothing next
	// to solving it.
	solveChunk = 64

	// planCacheCap bounds the trig plan cache. The detect pipeline
	// uses one plan per padded length; a handful covers every caller
	// of a serving process, and eviction only costs a rebuild.
	planCacheCap = 8
)

// trigPlan holds the precomputed cos/sin table of the N-th roots of
// unity plus the per-plan Fisher critical-value cache. Frequency k's
// design columns are cos(2πkt/N), sin(2πkt/N): index k·t mod N into
// the table, so filling a column is two loads per sample instead of a
// math.Sincos call.
type trigPlan struct {
	n, m   int
	cosTab []float64
	sinTab []float64

	mu    sync.Mutex
	gcrit map[float64]float64 // alpha -> Fisher critical g for n/2 ordinates
}

func newTrigPlan(n, m int) *trigPlan {
	p := &trigPlan{
		n:      n,
		m:      m,
		cosTab: make([]float64, n),
		sinTab: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		p.cosTab[j] = c
		p.sinTab[j] = s
	}
	return p
}

// fill writes frequency k's design columns into cosB/sinB (len ≤ n).
// Index arithmetic stays exact (k·t mod n), which is slightly more
// accurate than accumulating the angle in floating point.
func (p *trigPlan) fill(cosB, sinB []float64, k int) {
	idx, n := 0, p.n
	for t := range cosB {
		cosB[t] = p.cosTab[idx]
		sinB[t] = p.sinTab[idx]
		idx += k
		if idx >= n {
			idx -= n
		}
	}
}

// fillDot is fill fused with the data cross-products Σx·cos, Σx·sin —
// the orthogonal-layout fast path consumes both, and one fused pass
// halves the memory traffic of the per-frequency setup.
func (p *trigPlan) fillDot(cosB, sinB, x []float64, k int) (sxc, sxs float64) {
	idx, n := 0, p.n
	for t := range cosB {
		c, s := p.cosTab[idx], p.sinTab[idx]
		cosB[t] = c
		sinB[t] = s
		sxc += x[t] * c
		sxs += x[t] * s
		idx += k
		if idx >= n {
			idx -= n
		}
	}
	return sxc, sxs
}

// fisherCritical returns (caching per plan) the Fisher g critical
// value at significance alpha for this plan's n/2 half-range
// ordinates — the prefilter's acceptance floor multiplier.
func (p *trigPlan) fisherCritical(alpha float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g, ok := p.gcrit[alpha]; ok {
		return g
	}
	g := dist.FisherGCritical(alpha, p.n/2)
	if p.gcrit == nil {
		p.gcrit = make(map[float64]float64, 2)
	}
	p.gcrit[alpha] = g
	return g
}

type planKey struct{ n, m int }

var planCache struct {
	mu    sync.Mutex
	plans map[planKey]*trigPlan
}

// getPlan returns the cached plan for (n, m), building it on a miss.
func getPlan(n, m int) *trigPlan {
	key := planKey{n, m}
	planCache.mu.Lock()
	if p, ok := planCache.plans[key]; ok {
		planCache.mu.Unlock()
		return p
	}
	planCache.mu.Unlock()

	p := newTrigPlan(n, m)

	planCache.mu.Lock()
	defer planCache.mu.Unlock()
	if q, ok := planCache.plans[key]; ok {
		// Lost a build race; keep the first one so concurrent callers
		// share tables.
		return q
	}
	if planCache.plans == nil {
		planCache.plans = make(map[planKey]*trigPlan, planCacheCap)
	}
	if len(planCache.plans) >= planCacheCap {
		for k := range planCache.plans {
			delete(planCache.plans, k)
			break
		}
	}
	planCache.plans[key] = p
	return p
}

// scratch is one chunk's arena: the trig design columns plus the ADMM
// splitting state, reused across every frequency of the chunk.
// Nothing in the hot loop allocates.
type scratch struct {
	cos, sin []float64
	z, u     []float64
}

func (s *scratch) ensure(m int, admm bool) {
	if cap(s.cos) < m {
		s.cos = make([]float64, m)
		s.sin = make([]float64, m)
	}
	s.cos, s.sin = s.cos[:m], s.sin[:m]
	if admm {
		if cap(s.z) < m {
			s.z = make([]float64, m)
			s.u = make([]float64, m)
		}
		s.z, s.u = s.z[:m], s.u[:m]
	}
}

// scratchPool recycles chunk arenas across chunks, bands and calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// testHookChunk, when set by a test, runs at the start of every chunk
// with the chunk's index.
var testHookChunk func(c int)

// bandJob is one band solve: the inputs every chunk shares.
type bandJob struct {
	fit      []float64
	kLo, kHi int
	plan     *trigPlan
	scale    float64
	opts     Options
	done     <-chan struct{}

	// lad is non-nil exactly for SolverIRLS on the orthogonal Huber
	// layout, where it selects the samples each step must read.
	lad *ladder

	// skip/cheap, when non-nil, carry the prefilter verdicts: skip[i]
	// means frequency kLo+i is certified below the Fisher floor and
	// out[i] takes the cheap ordinate instead of an exact solve.
	skip  []bool
	cheap []float64

	out   []float64
	iters atomic.Int64
}

// runChunk solves chunk c, frequencies kLo+64c up to kHi, merging its
// iteration tally into the job once at the end.
func (j *bandJob) runChunk(c int) {
	if testHookChunk != nil {
		testHookChunk(c)
	}
	kStart := j.kLo + c*solveChunk
	kEnd := kStart + solveChunk - 1
	if kEnd > j.kHi {
		kEnd = j.kHi
	}
	sc := scratchPool.Get().(*scratch)
	sc.ensure(len(j.fit), j.opts.Solver == SolverADMM)
	cosB, sinB := sc.cos, sc.sin
	var iters int64
	for k := kStart; k <= kEnd; k++ {
		if cancelled(j.done) {
			break
		}
		i := k - j.kLo
		if j.skip != nil && j.skip[i] {
			j.out[i] = j.cheap[i]
			continue
		}
		var a, b float64
		var it int
		if j.lad != nil {
			sxc, sxs := j.plan.fillDot(cosB, sinB, j.fit, k)
			a, b, it = solveIRLSOrthoHuber(j.fit, cosB, sinB, j.lad, sxc, sxs, j.opts, j.done)
		} else {
			j.plan.fill(cosB, sinB, k)
			a0, b0 := olsInit(j.fit, cosB, sinB)
			if j.opts.Solver == SolverADMM {
				a, b, it = solveADMMFrom(j.fit, cosB, sinB, a0, b0, sc.z, sc.u, j.opts, j.done)
			} else {
				a, b, it = solveIRLSFrom(j.fit, cosB, sinB, a0, b0, j.opts, j.done)
			}
		}
		iters += int64(it)
		j.out[i] = j.scale * (a*a + b*b)
	}
	scratchPool.Put(sc)
	if iters != 0 {
		j.iters.Add(iters)
	}
}

// ladderMargin, as a fraction of ζ, absorbs the rounding of the
// residual a·cos + b·sin − x and of ‖β‖ (a few ulps of ζ) when the
// ladder bounds which residuals can exceed ζ.
const ladderMargin = 1e-9

// ladder indexes a band's fit samples by |x_t| so that a Newton or
// IRLS step on the orthogonal layout reads only the samples that can
// leave Huber's quadratic region. |a·cos + b·sin| ≤ ‖β‖, so a sample
// with |x_t| ≤ ζ − ‖β‖ keeps |r_t| ≤ ζ and adds exactly nothing to
// the correction sums. rung[i] lists, in time order, every t with
// |x_t| > thr[i] = ζ·(1 − ballFractions[i]) — the prefilter's ball
// grid, so len(rung[i]) = m/2 − μ(ρ_i). The rungs are nested, smallest
// first. Because each keeps time order, a rung scan adds the same
// terms in the same order as the full scan: the solve is bit-identical.
// One ladder is built per band and shared read-only by its workers.
// Indices are int32, halving the index stream; a fit never nears 2^31
// samples.
type ladder struct {
	zeta float64
	thr  [len(ballFractions)]float64
	rung [len(ballFractions)][]int32
	buf  []int32
}

var ladderPool = sync.Pool{New: func() any { return new(ladder) }}

// build indexes fit for threshold zeta, reusing the ladder's buffer.
// A buffer too small for this band's rungs grows to the most any band
// of this fit length can need, so a pooled ladder grows at most once.
func (l *ladder) build(fit []float64, zeta float64) {
	size := rungSizes(fit, zeta)
	total := 0
	for i, f := range ballFractions {
		l.thr[i] = zeta * (1 - f)
		total += size[i]
	}
	if cap(l.buf) < total {
		l.buf = make([]int32, len(ballFractions)*len(fit))
	}
	l.zeta = zeta
	off := 0
	for i, n := range size {
		l.rung[i] = l.buf[off : off : off+n]
		off += n
	}
	for t, v := range fit {
		v = math.Abs(v)
		for i := len(l.thr) - 1; i >= 0 && v > l.thr[i]; i-- {
			l.rung[i] = append(l.rung[i], int32(t))
		}
	}
}

// scan returns the smallest rung holding every sample whose residual
// can exceed ζ at the iterate (a, b). ok is false when no rung does
// (‖β‖ > ζ/2, β not finite, or no ladder): then every sample must be
// read.
func (l *ladder) scan(a, b float64) (rung []int32, ok bool) {
	if l == nil {
		return nil, false
	}
	lim := l.zeta - math.Sqrt(a*a+b*b) - ladderMargin*l.zeta
	for i, thr := range l.thr {
		if thr <= lim {
			return l.rung[i], true
		}
	}
	return nil, false
}

const (
	// newtonSteps caps the Newton phase of the orthogonal Huber solve.
	// An active set that has not settled by then is cycling, and the
	// solve finishes with IRLS.
	newtonSteps = 8

	// newtonDetFloor, as a fraction of (m/2)², is the smallest
	// determinant of the Newton system taken as safely positive
	// definite. Below it too few samples are left inside the quadratic
	// region to pin β down, and the solve finishes with IRLS.
	newtonDetFloor = 1e-9
)

// huberCorr accumulates the corrections that turn the unweighted
// orthogonal normal equations ((m/2)·I Gram, cross-products sxc/sxs)
// into one step's 2×2 system. Only samples with |r| > ζ contribute.
type huberCorr struct{ cc, ss, cs, xc, xs float64 }

// newton adds a sample's correction to the Newton system. The Huber
// loss is piecewise quadratic, and on the piece of the iterate an
// outlying sample has zero curvature and gradient ζ·sgn r. So it
// leaves the Hessian (φφᵀ) and enters the right-hand side as
// (v + ζ·sgn r)·φ.
func (h *huberCorr) newton(c, s, v, a, b, zeta float64) {
	r := a*c + b*s - v
	z := zeta
	if r < 0 {
		r, z = -r, -zeta
	}
	if r > zeta {
		u := v + z
		h.cc += c * c
		h.ss += s * s
		h.cs += c * s
		h.xc += u * c
		h.xs += u * s
	}
}

// irls adds a sample's correction to the IRLS system, where an
// outlying sample keeps Huber weight ζ/|r|: weight deficit 1 − ζ/|r|.
func (h *huberCorr) irls(c, s, v, a, b, zeta float64) {
	r := a*c + b*s - v
	if r < 0 {
		r = -r
	}
	if r > zeta {
		dw := 1 - zeta/r
		h.cc += dw * c * c
		h.ss += dw * s * s
		h.cs += dw * c * s
		h.xc += dw * v * c
		h.xs += dw * v * s
	}
}

// solve returns the solution of the step's 2×2 system, the unweighted
// one ((m/2)·I, (sxc, sxs)) minus the accumulated corrections, and its
// determinant; the solution is not finite when det is 0.
func (h *huberCorr) solve(halfM, sxc, sxs float64) (a, b, det float64) {
	scc := halfM - h.cc
	sss := halfM - h.ss
	scs := -h.cs
	wxc := sxc - h.xc
	wxs := sxs - h.xs
	det = scc*sss - scs*scs
	return (wxc*sss - wxs*scs) / det, (wxs*scc - wxc*scs) / det, det
}

// solveIRLSOrthoHuber is the SolverIRLS Huber solve specialized to the
// exactly orthogonal padded layout, started from the OLS fit
// (sxc, sxs)/(m/2). It takes Newton steps, and when those stop short
// of convergence it finishes with IRLS steps. Newton steps need not
// lower the loss, so the IRLS finish starts from the OLS fit when that
// has the lower loss; as IRLS never raises the loss, the result's loss
// never exceeds the start's. lad, when non-nil, limits each step to
// the samples that can leave the quadratic region; nil reads all.
func solveIRLSOrthoHuber(x, cosB, sinB []float64, lad *ladder, sxc, sxs float64, opts Options, done <-chan struct{}) (a, b float64, iters int) {
	a, b, iters, ok := newtonOrthoHuber(x, cosB, sinB, lad, sxc, sxs, opts, done)
	if ok {
		return a, b, iters
	}
	halfM := float64(len(x)) / 2
	if a0, b0 := sxc/halfM, sxs/halfM; huberLoss(x, cosB, sinB, a0, b0, opts.Zeta) < huberLoss(x, cosB, sinB, a, b, opts.Zeta) {
		a, b = a0, b0
	}
	opts.MaxIter -= iters
	a, b, more := irlsOrthoHuber(x, cosB, sinB, lad, sxc, sxs, a, b, opts, done)
	return a, b, iters + more
}

// huberLoss is Σ γ_ζ(a·cos_t + b·sin_t − x_t), read only when Newton
// steps fall back to IRLS.
func huberLoss(x, cosB, sinB []float64, a, b, zeta float64) float64 {
	sum := 0.0
	for t, v := range x {
		sum += robust.HuberLoss(a*cosB[t]+b*sinB[t]-v, zeta)
	}
	return sum
}

// newtonOrthoHuber runs Newton steps from the OLS fit. With A the
// samples where |r_t| > ζ, each step solves
// [(m/2)·I − Σ_A φφᵀ] β = (sxc, sxs) − Σ_A (x_t + ζ·sgn r_t)·φ_t,
// which minimizes the loss exactly once A stops changing (Madsen &
// Nielsen's finite algorithm for Huber regression); the step after
// that confirms it. ok is false when the steps stopped short of
// convergence: the system was not safely positive definite, A still
// changed after newtonSteps steps, or MaxIter ran out.
func newtonOrthoHuber(x, cosB, sinB []float64, lad *ladder, sxc, sxs float64, opts Options, done <-chan struct{}) (a, b float64, iters int, ok bool) {
	halfM := float64(len(x)) / 2
	a, b = sxc/halfM, sxs/halfM
	zeta := opts.Zeta
	for iters < opts.MaxIter {
		if cancelled(done) {
			return a, b, iters, true
		}
		if iters == newtonSteps {
			return a, b, iters, false
		}
		iters++
		var h huberCorr
		if rung, found := lad.scan(a, b); found {
			for _, t := range rung {
				h.newton(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		} else {
			for t := range x {
				h.newton(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		}
		na, nb, det := h.solve(halfM, sxc, sxs)
		if !(det > newtonDetFloor*halfM*halfM) {
			return a, b, iters, false
		}
		da, db := na-a, nb-b
		a, b = na, nb
		if da*da+db*db <= opts.Tol*opts.Tol*(a*a+b*b+1e-12) {
			return a, b, iters, true
		}
	}
	return a, b, iters, false
}

// irlsOrthoHuber continues a solve from (a, b) with IRLS steps. Each
// reweighted system is the unweighted one minus corrections from the
// samples the Huber weight actually downweights (|r| > ζ). An IRLS
// step minimizes a quadratic that majorizes the loss at (a, b), so it
// never increases the loss.
func irlsOrthoHuber(x, cosB, sinB []float64, lad *ladder, sxc, sxs, a, b float64, opts Options, done <-chan struct{}) (float64, float64, int) {
	halfM := float64(len(x)) / 2
	zeta := opts.Zeta
	iters := 0
	for iters < opts.MaxIter {
		if cancelled(done) {
			break
		}
		iters++
		var h huberCorr
		if rung, found := lad.scan(a, b); found {
			for _, t := range rung {
				h.irls(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		} else {
			for t := range x {
				h.irls(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		}
		na, nb, det := h.solve(halfM, sxc, sxs)
		if det == 0 || math.IsNaN(det) {
			break
		}
		da, db := na-a, nb-b
		a, b = na, nb
		if da*da+db*db <= opts.Tol*opts.Tol*(a*a+b*b+1e-12) {
			break
		}
	}
	return a, b, iters
}

// solveBand runs the staged engine over [kLo, kHi] and reports the
// trace counters once per call. opts must already carry defaults; pre
// may be nil (exact solve everywhere).
func solveBand(x []float64, kLo, kHi int, opts Options, pre *prefilterResult) ([]float64, error) {
	n := len(x)
	m := opts.FitLength
	j := &bandJob{
		fit:   x[:m],
		kLo:   kLo,
		kHi:   kHi,
		plan:  getPlan(n, m),
		scale: float64(m) * float64(m) / (4 * float64(n)),
		opts:  opts,
		done:  ctxDone(opts.Ctx),
		out:   make([]float64, kHi-kLo+1),
	}
	if pre != nil {
		j.skip, j.cheap = pre.skip, pre.cheap
	}
	// On the padded detect layout (N = 2m, integer k) the design
	// columns over t < m sweep whole half-cycles, so the Gram matrix is
	// exactly (m/2)·I and each Huber step, Newton or its IRLS
	// safeguard, reduces to base sums plus corrections from the
	// samples the ladder selects.
	if 2*m == n && opts.Solver == SolverIRLS && opts.Loss == LossHuber {
		j.lad = ladderPool.Get().(*ladder)
		j.lad.build(j.fit, opts.Zeta)
		defer ladderPool.Put(j.lad)
	}
	par.Each((kHi-kLo+solveChunk)/solveChunk, j.runChunk)
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	opts.Trace.Count(trace.StagePeriodogram, trace.CounterSolverIters, j.iters.Load())
	if pre != nil {
		opts.Trace.Count(trace.StagePeriodogram, trace.CounterPrefilterSkips, int64(pre.skips))
	}
	return j.out, checkOrdinates(j.out, kLo)
}
