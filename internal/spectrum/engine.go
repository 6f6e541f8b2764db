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
//   - the band is carved into fixed 64-frequency chunks claimed off an
//     atomic cursor by a bounded pool of persistent workers, each
//     owning a private scratch arena (trig columns, ADMM state);
//   - on the padded detect layout, each Huber IRLS iteration reads
//     only the samples whose residual can leave the quadratic region,
//     found through an |x| ladder built once per band (see ladder).
//
// Every frequency is solved from its own OLS init, independently of
// its neighbours, so the ordinates are bitwise identical no matter how
// many workers participate (or whether the caller asked for Parallel
// at all).

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"robustperiod/internal/stat/dist"
	"robustperiod/internal/trace"
)

const (
	// solveChunk is the fixed work-unit width, in frequencies: large
	// enough that claiming a chunk off the cursor costs nothing next
	// to solving it.
	solveChunk = 64

	// maxPoolWorkers bounds the solver pool no matter how many CPUs
	// the host exposes; the per-frequency solves are memory-light, and
	// past this width the atomic cursor and shared caches dominate.
	maxPoolWorkers = 16

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

// scratch is one worker's private arena: the trig design columns plus
// the ADMM splitting state, sized once per job and reused across every
// frequency the worker solves. Nothing in the hot loop allocates.
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

// scratchPool recycles submitter-side arenas across calls; the pool
// daemons own a long-lived arena each.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// solverPool is the process-wide bounded worker pool. Daemons start
// lazily on the first parallel band and then live for the process —
// per-call goroutine fan-out (and its allocation churn) is gone, and
// concurrency is bounded globally rather than per call, so nested
// parallelism (per-level fan × per-band fan) cannot oversubscribe.
var solverPool struct {
	once    sync.Once
	workers int
	jobs    chan *bandJob
}

func poolWorkers() int {
	solverPool.once.Do(func() {
		w := runtime.GOMAXPROCS(0)
		if w > maxPoolWorkers {
			w = maxPoolWorkers
		}
		solverPool.workers = w
		if w < 2 {
			return // submitters run inline; no daemons needed
		}
		solverPool.jobs = make(chan *bandJob, w)
		for i := 0; i < w; i++ {
			go func() {
				sc := new(scratch)
				for job := range solverPool.jobs {
					job.run(sc)
					job.wg.Done()
				}
			}()
		}
	})
	return solverPool.workers
}

// bandJob is one band solve: the shared inputs plus the atomic chunk
// cursor the workers claim work from.
type bandJob struct {
	fit      []float64
	kLo, kHi int
	plan     *trigPlan
	scale    float64
	opts     Options
	done     <-chan struct{}

	// lad is non-nil exactly on the orthogonal Huber IRLS layout,
	// where it selects the samples each iteration must read.
	lad *ladder

	// skip/cheap, when non-nil, carry the prefilter verdicts: skip[i]
	// means frequency kLo+i is certified below the Fisher floor and
	// out[i] takes the cheap ordinate instead of an exact solve.
	skip  []bool
	cheap []float64

	out     []float64
	nChunks int
	cursor  atomic.Int64
	iters   atomic.Int64
	wg      sync.WaitGroup
}

// execute runs the job to completion: the caller always participates,
// and when Parallel is set, idle pool daemons are enlisted with a
// non-blocking submit (a busy pool just means the caller does the work
// itself — never a deadlock, even from inside another parallel job).
func (j *bandJob) execute() {
	j.nChunks = (j.kHi - j.kLo + solveChunk) / solveChunk
	if j.opts.Parallel && j.nChunks > 1 && poolWorkers() > 1 {
		helpers := j.nChunks - 1
		if helpers > solverPool.workers {
			helpers = solverPool.workers
		}
		for i := 0; i < helpers; i++ {
			j.wg.Add(1)
			select {
			case solverPool.jobs <- j:
			default:
				j.wg.Done()
				i = helpers
			}
		}
	}
	sc := scratchPool.Get().(*scratch)
	j.run(sc)
	scratchPool.Put(sc)
	j.wg.Wait()
}

// run claims chunks off the cursor until the band is exhausted,
// merging this worker's iteration tally into the job once at exit.
func (j *bandJob) run(sc *scratch) {
	sc.ensure(len(j.fit), j.opts.Solver == SolverADMM)
	var iters int64
	for {
		c := int(j.cursor.Add(1)) - 1
		if c >= j.nChunks || cancelled(j.done) {
			break
		}
		j.runChunk(c, sc, &iters)
	}
	if iters != 0 {
		j.iters.Add(iters)
	}
}

func (j *bandJob) runChunk(c int, sc *scratch, iters *int64) {
	kStart := j.kLo + c*solveChunk
	kEnd := kStart + solveChunk - 1
	if kEnd > j.kHi {
		kEnd = j.kHi
	}
	cosB, sinB := sc.cos, sc.sin
	for k := kStart; k <= kEnd; k++ {
		if cancelled(j.done) {
			return
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
		*iters += int64(it)
		j.out[i] = j.scale * (a*a + b*b)
	}
}

// ladderMargin, as a fraction of ζ, absorbs the rounding of the
// residual a·cos + b·sin − x and of ‖β‖ (a few ulps of ζ) when the
// ladder bounds which residuals can exceed ζ.
const ladderMargin = 1e-9

// ladder indexes a band's fit samples by |x_t| so that an IRLS
// iteration on the orthogonal layout reads only the samples the Huber
// weight can downweight. |a·cos + b·sin| ≤ ‖β‖, so a sample with
// |x_t| ≤ ζ − ‖β‖ keeps |r_t| ≤ ζ and adds exactly nothing to the
// correction sums. rung[i] lists, in time order, every t with
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
func (l *ladder) build(fit []float64, zeta float64) {
	size := rungSizes(fit, zeta)
	total := 0
	for i, f := range ballFractions {
		l.thr[i] = zeta * (1 - f)
		total += size[i]
	}
	if cap(l.buf) < total {
		l.buf = make([]int32, total)
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

// huberCorr accumulates the corrections that turn the unweighted
// orthogonal normal equations into the Huber-reweighted ones: each
// sample with |r| > ζ contributes with weight deficit 1 − ζ/|r|.
type huberCorr struct{ cc, ss, cs, xc, xs float64 }

func (h *huberCorr) add(c, s, v, a, b, zeta float64) {
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

// solveIRLSOrthoHuber is the Huber IRLS solve specialized to the
// exactly orthogonal padded layout, started from the OLS fit
// (sxc, sxs)/(m/2). Each reweighted normal-equation system is the
// closed-form unweighted one ((m/2)·I Gram, the fused cross-products
// sxc/sxs) minus corrections from the samples the Huber weight
// actually downweights (|r| > ζ). lad, when non-nil, limits each
// iteration to the samples that can be downweighted; nil reads all.
func solveIRLSOrthoHuber(x, cosB, sinB []float64, lad *ladder, sxc, sxs float64, opts Options, done <-chan struct{}) (a, b float64, iters int) {
	halfM := float64(len(x)) / 2
	a, b = sxc/halfM, sxs/halfM
	zeta := opts.Zeta
	for iter := 0; iter < opts.MaxIter; iter++ {
		if cancelled(done) {
			return a, b, iters
		}
		iters++
		var h huberCorr
		if rung, ok := lad.scan(a, b); ok {
			for _, t := range rung {
				h.add(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		} else {
			for t := range x {
				h.add(cosB[t], sinB[t], x[t], a, b, zeta)
			}
		}
		scc := halfM - h.cc
		sss := halfM - h.ss
		scs := -h.cs
		wxc := sxc - h.xc
		wxs := sxs - h.xs
		det := scc*sss - scs*scs
		if det == 0 || math.IsNaN(det) {
			return a, b, iters
		}
		na := (wxc*sss - wxs*scs) / det
		nb := (wxs*scc - wxc*scs) / det
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
	// exactly (m/2)·I and each Huber IRLS step reduces to base sums
	// plus corrections from the samples the ladder selects.
	if 2*m == n && opts.Solver == SolverIRLS && opts.Loss == LossHuber {
		j.lad = ladderPool.Get().(*ladder)
		j.lad.build(j.fit, opts.Zeta)
		defer ladderPool.Put(j.lad)
	}
	j.execute()
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	opts.Trace.Count(trace.StagePeriodogram, trace.CounterSolverIters, j.iters.Load())
	if pre != nil {
		opts.Trace.Count(trace.StagePeriodogram, trace.CounterPrefilterSkips, int64(pre.skips))
	}
	return j.out, checkOrdinates(j.out, kLo)
}
