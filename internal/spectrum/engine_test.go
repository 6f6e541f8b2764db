package spectrum

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustperiod/internal/stat/dist"
	"robustperiod/internal/trace"
)

// paddedSeries builds a detect-layout input: n real samples (sinusoids
// + noise + sparse outliers), zero-padded to 2n after centring, the
// way detect.Single feeds the hybrid periodogram.
func paddedSeries(n int, periods []int, outlierFrac, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for t := 0; t < n; t++ {
		for _, p := range periods {
			x[t] += math.Sin(2 * math.Pi * float64(t) / float64(p))
		}
		x[t] += noise * rng.NormFloat64()
	}
	for t := 0; t < n; t++ {
		if rng.Float64() < outlierFrac {
			x[t] += (rng.Float64()*16 - 8)
		}
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	padded := make([]float64, 2*n)
	for t := 0; t < n; t++ {
		padded[t] = x[t] - mean
	}
	return padded
}

// TestPrefilterNeverSkipsFisherPassable is the safety property of the
// prefilter certificate: no frequency it skips could have passed
// Fisher's g-test had it been solved exactly. Exercised over an
// adversarial mix of clean, noisy, outlier-ridden and multi-periodic
// series.
func TestPrefilterNeverSkipsFisherPassable(t *testing.T) {
	const alpha = 0.05 // looser than detect's default: a lower floor is a stricter property
	cases := []struct {
		periods     []int
		outlierFrac float64
		noise       float64
	}{
		{nil, 0, 1},                  // pure noise
		{[]int{32}, 0, 0.2},          // one strong tone
		{[]int{32}, 0.2, 0.5},        // tone + heavy outliers
		{[]int{16, 40, 100}, 0.1, 1}, // multi-periodic + outliers
		{nil, 0.3, 0.1},              // outliers dominating a quiet series
	}
	for ci, tc := range cases {
		for seed := int64(0); seed < 6; seed++ {
			n := 256
			padded := paddedSeries(n, tc.periods, tc.outlierFrac, tc.noise, 1000*int64(ci)+seed)
			kHi := len(padded)/2 - 1
			opts := Options{Loss: LossHuber, FitLength: n, PrefilterAlpha: alpha}.withDefaults(padded)
			classical := Periodogram(padded)
			pre := buildPrefilter(padded, 1, kHi, opts, classical, true, getPlan(len(padded), n))
			if pre == nil {
				continue // nothing skipped; trivially safe
			}
			exactOpts := opts
			exactOpts.NoPrefilter = true
			half, err := HybridPeriodogram(padded, 1, kHi, exactOpts)
			if err != nil {
				t.Fatalf("case %d seed %d: exact hybrid: %v", ci, seed, err)
			}
			sum := 0.0
			for _, v := range half[1:] {
				sum += v
			}
			gcrit := dist.FisherGCritical(alpha, len(half)-1)
			for k := 1; k <= kHi; k++ {
				if !pre.skip[k-1] {
					continue
				}
				if half[k] >= gcrit*sum {
					t.Errorf("case %d seed %d: skipped k=%d would pass Fisher: ordinate %g >= floor %g",
						ci, seed, k, half[k], gcrit*sum)
				}
				if pre.cheap[k-1] > half[k]*(1+1e-9) {
					t.Errorf("case %d seed %d: cheap ordinate %g above exact %g at k=%d",
						ci, seed, pre.cheap[k-1], half[k], k)
				}
			}
		}
	}
}

// TestPrefilterPreservesFisherVerdict: the full hybrid array with the
// prefilter armed must yield the same Fisher argmax and the same
// accept/reject verdict as the exact reference path.
func TestPrefilterPreservesFisherVerdict(t *testing.T) {
	const alpha = 0.01
	for seed := int64(0); seed < 8; seed++ {
		n := 500
		padded := paddedSeries(n, []int{50}, 0.1, 0.5, 42+seed)
		kHi := len(padded)/2 - 1
		opts := Options{Loss: LossHuber, FitLength: n, PrefilterAlpha: alpha}

		fast, err := HybridPeriodogram(padded, 1, kHi, opts)
		if err != nil {
			t.Fatalf("seed %d: fast: %v", seed, err)
		}
		exactOpts := opts
		exactOpts.NoPrefilter = true
		exact, err := HybridPeriodogram(padded, 1, kHi, exactOpts)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}

		argmax := func(p []float64) (int, float64, float64) {
			best, sum := 1, 0.0
			for k := 1; k < len(p); k++ {
				sum += p[k]
				if p[k] > p[best] {
					best = k
				}
			}
			return best, p[best] / sum, sum
		}
		kF, gF, _ := argmax(fast)
		kE, gE, _ := argmax(exact)
		gcrit := dist.FisherGCritical(alpha, len(fast)-1)
		if kF != kE {
			t.Errorf("seed %d: argmax moved: fast k=%d exact k=%d", seed, kF, kE)
		}
		if (gF > gcrit) != (gE > gcrit) {
			t.Errorf("seed %d: Fisher verdict flipped: fast g=%g exact g=%g crit=%g", seed, gF, gE, gcrit)
		}
	}
}

// TestExactOrdinatesMatchReference: with the prefilter armed, every
// frequency it does not skip is solved exactly as on the NoPrefilter
// reference path, bit for bit — no solve depends on which of its
// neighbours were skipped.
func TestExactOrdinatesMatchReference(t *testing.T) {
	const alpha = 0.01
	cases := []struct {
		periods     []int
		outlierFrac float64
		noise       float64
	}{
		{nil, 0, 1},
		{[]int{50}, 0.1, 0.5},
		{[]int{32}, 0.2, 0.5},
		{[]int{16, 40, 100}, 0.1, 1},
		{nil, 0.3, 0.1},
	}
	skipped := 0
	for ci, tc := range cases {
		for seed := int64(0); seed < 3; seed++ {
			n := 500
			padded := paddedSeries(n, tc.periods, tc.outlierFrac, tc.noise, 100*int64(ci)+seed)
			kHi := len(padded)/2 - 1
			opts := Options{Loss: LossHuber, FitLength: n, PrefilterAlpha: alpha}
			fast, err := HybridPeriodogram(padded, 1, kHi, opts)
			if err != nil {
				t.Fatalf("case %d seed %d: prefiltered: %v", ci, seed, err)
			}
			refOpts := opts
			refOpts.NoPrefilter = true
			ref, err := HybridPeriodogram(padded, 1, kHi, refOpts)
			if err != nil {
				t.Fatalf("case %d seed %d: reference: %v", ci, seed, err)
			}
			dOpts := opts.withDefaults(padded)
			pre := buildPrefilter(padded, 1, kHi, dOpts, Periodogram(padded), true, getPlan(len(padded), n))
			for k := range ref {
				if pre != nil && k >= 1 && k <= kHi && pre.skip[k-1] {
					skipped++
					continue
				}
				if math.Float64bits(fast[k]) != math.Float64bits(ref[k]) {
					t.Errorf("case %d seed %d: ordinate %d = %v, reference %v", ci, seed, k, fast[k], ref[k])
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the prefilter skipped nothing; the comparison covers no skip")
	}
}

// TestLadderScanMatchesFullScan: an orthogonal IRLS solve that reads
// only the ladder's rung returns the same (a, b) bits and iteration
// count as the full scan, at every frequency of series that drive the
// solver down both paths.
func TestLadderScanMatchesFullScan(t *testing.T) {
	const m = 256
	// onThresholds puts every |x_t| exactly on a rung threshold for
	// ζ = 1, with signs following a tone so that ‖β‖ sweeps the rungs.
	onThresholds := make([]float64, 2*m)
	for tt := 0; tt < m; tt++ {
		v := 1 - ballFractions[tt%len(ballFractions)]
		if math.Cos(2*math.Pi*5*float64(tt)/(2*m)) < 0 {
			v = -v
		}
		onThresholds[tt] = v
	}
	cases := []struct {
		name       string
		x          []float64
		zeta       float64
		wantRung   bool // some iteration must scan a rung
		wantSweeps bool // some iteration must scan every sample
	}{
		{"noise", paddedSeries(m, nil, 0, 1, 1), 0, true, false},
		{"strong-tone", paddedSeries(m, []int{16}, 0, 0.05, 2), 0, true, true},
		{"outliers", paddedSeries(m, []int{24}, 0.2, 0.5, 3), 0, true, false},
		{"on-thresholds", onThresholds, 1, true, true},
		{"tiny-zeta", paddedSeries(m, []int{32}, 0.1, 0.5, 4), 1e-6, false, true},
	}
	for _, tc := range cases {
		opts := Options{Loss: LossHuber, FitLength: m, Zeta: tc.zeta}.withDefaults(tc.x)
		fit := tc.x[:m]
		var lad ladder
		lad.build(fit, opts.Zeta)
		plan := getPlan(len(tc.x), m)
		cosB, sinB := make([]float64, m), make([]float64, m)
		rungStarts, sweepStarts := 0, 0
		for k := 1; k < m; k++ {
			sxc, sxs := plan.fillDot(cosB, sinB, fit, k)
			if _, ok := lad.scan(sxc/(m/2), sxs/(m/2)); ok {
				rungStarts++
			} else {
				sweepStarts++
			}
			a, b, it := solveIRLSOrthoHuber(fit, cosB, sinB, &lad, sxc, sxs, opts, nil)
			wa, wb, wit := solveIRLSOrthoHuber(fit, cosB, sinB, nil, sxc, sxs, opts, nil)
			if math.Float64bits(a) != math.Float64bits(wa) || math.Float64bits(b) != math.Float64bits(wb) || it != wit {
				t.Errorf("%s k=%d: ladder (%v, %v, %d iters), full scan (%v, %v, %d iters)", tc.name, k, a, b, it, wa, wb, wit)
			}
		}
		if tc.wantRung && rungStarts == 0 {
			t.Errorf("%s: no solve started on a rung", tc.name)
		}
		if tc.wantSweeps && sweepStarts == 0 {
			t.Errorf("%s: no solve started on the full scan", tc.name)
		}
	}
}

// TestSolverStressParallelIdentical hammers the helper fan-out, plan
// cache, ladder pool, scratch pool and prefilter from many goroutines
// at once (run under -race by the chaos CI job). Each goroutine solves
// its own series, so a pooled buffer handed to another solve while
// still in use would change some ordinate; every concurrent result
// must be bitwise identical to its one-worker reference.
func TestSolverStressParallelIdentical(t *testing.T) {
	withProcs(t, 4)
	const goroutines = 8
	n := 512
	kHi := n - 1
	opts := Options{Loss: LossHuber, FitLength: n, PrefilterAlpha: 0.01}
	series := make([][]float64, goroutines)
	refs := make([][]float64, goroutines)
	for g := range series {
		series[g] = paddedSeries(n, []int{24 + 8*g, 80}, 0.1, 0.5, 11+int64(g))
		ref, err := oneWorker(func() ([]float64, error) { return HybridPeriodogram(series[g], 1, kHi, opts) })
		if err != nil {
			t.Fatal(err)
		}
		refs[g] = ref
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := HybridPeriodogram(series[g], 1, kHi, opts)
				if err != nil {
					errs <- err
					return
				}
				for k := range got {
					if got[k] != refs[g][k] {
						t.Errorf("series %d: concurrent ordinate %d = %g, one-worker %g", g, k, got[k], refs[g][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// withProcs runs the test at GOMAXPROCS p, so solves get p−1 helper
// slots whatever the host's core count.
func withProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// oneWorker runs solve at GOMAXPROCS=1, where no helper slot exists:
// the reference every fan-out must reproduce bit for bit.
func oneWorker(solve func() ([]float64, error)) ([]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return solve()
}

// TestSolverStressCancel cancels contexts racing against in-flight
// parallel solves; each call must either finish cleanly or surface
// the context error — never panic, race, or hang.
func TestSolverStressCancel(t *testing.T) {
	n := 512
	padded := paddedSeries(n, []int{64}, 0.1, 0.5, 13)
	kHi := len(padded)/2 - 1
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(time.Duration(g*i%5)*100*time.Microsecond, cancel)
				opts := Options{Loss: LossHuber, FitLength: n, Ctx: ctx}
				_, err := MPeriodogram(padded, 1, kHi, opts)
				if err != nil && err != context.Canceled {
					t.Errorf("unexpected error: %v", err)
				}
				timer.Stop()
				cancel()
			}
		}(g)
	}
	wg.Wait()
}

// TestSolveBandAllocsFlat pins the engine's allocation behaviour: the
// per-frequency hot loop is allocation-free, so widening the band must
// not add allocations beyond the fixed per-call setup.
func TestSolveBandAllocsFlat(t *testing.T) {
	n := 1024
	padded := paddedSeries(n, []int{64}, 0.1, 0.5, 17)
	opts := Options{Loss: LossHuber, FitLength: n, Zeta: 1} // fixed ζ: no MADN scratch in the measured loop
	solve := func(kHi int) func() {
		return func() {
			if _, err := MPeriodogram(padded, 1, kHi, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve(64)()  // warm the plan cache and scratch pool
	solve(512)() //
	narrow := testing.AllocsPerRun(10, solve(64))
	wide := testing.AllocsPerRun(10, solve(512))
	if wide > narrow+8 {
		t.Errorf("allocations scale with band width: %v at 64 freqs, %v at 512", narrow, wide)
	}
	if narrow > 32 {
		t.Errorf("narrow band allocates %v per call, want <= 32", narrow)
	}
}

// TestTrigPlanShared: repeated solves of the same layout reuse one
// cached plan (the cross-level sharing the engine is built around).
func TestTrigPlanShared(t *testing.T) {
	p1 := getPlan(2048, 1024)
	p2 := getPlan(2048, 1024)
	if p1 != p2 {
		t.Error("same (N, FitLength) returned distinct plans")
	}
	if p3 := getPlan(2048, 2048); p3 == p1 {
		t.Error("different FitLength shares a plan key")
	}
}

// TestOrthoSolveMatchesGenericSolver is an oracle for the orthogonal
// solve: on the cases of TestExactOrdinatesMatchReference, with ζ from
// the MADN, every ordinate it returns must match solveIRLSFrom run to
// Tol 1e-14. solveIRLSFrom builds the full weighted normal equations
// and shares no code with the correction form. The outlier-dominated
// row drives some solves into the IRLS safeguard, which must then
// reach the same optimum.
func TestOrthoSolveMatchesGenericSolver(t *testing.T) {
	cases := []struct {
		periods     []int
		outlierFrac float64
		noise       float64
		safeguard   bool // some solve must finish with IRLS
	}{
		{nil, 0, 1, false},
		{[]int{50}, 0.1, 0.5, false},
		{[]int{32}, 0.2, 0.5, false},
		{[]int{16, 40, 100}, 0.1, 1, false},
		{nil, 0.3, 0.1, true},
	}
	const n = 500
	cosB, sinB := make([]float64, n), make([]float64, n)
	for ci, tc := range cases {
		fallbacks := 0
		for seed := int64(0); seed < 3; seed++ {
			padded := paddedSeries(n, tc.periods, tc.outlierFrac, tc.noise, 100*int64(ci)+seed)
			fit := padded[:n]
			opts := Options{Loss: LossHuber, FitLength: n}.withDefaults(padded)
			refOpts := opts
			refOpts.Tol, refOpts.MaxIter = 1e-14, 100000
			var lad ladder
			lad.build(fit, opts.Zeta)
			plan := getPlan(len(padded), n)
			for k := 1; k < n; k++ {
				sxc, sxs := plan.fillDot(cosB, sinB, fit, k)
				a, b, _ := solveIRLSOrthoHuber(fit, cosB, sinB, &lad, sxc, sxs, opts, nil)
				if _, _, _, ok := newtonOrthoHuber(fit, cosB, sinB, &lad, sxc, sxs, opts, nil); !ok {
					fallbacks++
				}
				a0, b0 := olsInit(fit, cosB, sinB)
				ra, rb, rit := solveIRLSFrom(fit, cosB, sinB, a0, b0, refOpts, nil)
				if rit == refOpts.MaxIter {
					t.Fatalf("case %d seed %d k=%d: reference did not converge", ci, seed, k)
				}
				got, want := a*a+b*b, ra*ra+rb*rb
				if math.Abs(got-want) > 1e-8*want {
					t.Errorf("case %d seed %d k=%d: ordinate %.17g, reference %.17g (rel %.2g)",
						ci, seed, k, got, want, math.Abs(got-want)/want)
				}
			}
		}
		if tc.safeguard && fallbacks == 0 {
			t.Errorf("case %d: no solve reached the IRLS safeguard", ci)
		}
		t.Logf("case %d: %d solves finished with IRLS", ci, fallbacks)
	}
}

// TestNewtonItersPerExactSolve pins the Newton phase's fast
// convergence: on a fixed padded corpus the mean number of solver
// iterations per exact solve must stay at most 4 (IRLS alone needed
// about 10). A silent fall back to linear convergence fails it.
func TestNewtonItersPerExactSolve(t *testing.T) {
	var iters, solves int64
	for seed := int64(0); seed < 12; seed++ {
		n := 1000
		padded := paddedSeries(n, []int{24, 168}, 0.05*float64(seed%4), 1, 500+seed)
		kLo, kHi := 1, n-2 // short of n−1: no robust Nyquist solve in the tally
		tr := trace.New()
		opts := Options{Loss: LossHuber, FitLength: n, PrefilterAlpha: 0.01, Trace: tr}
		if _, err := HybridPeriodogram(padded, kLo, kHi, opts); err != nil {
			t.Fatal(err)
		}
		for _, st := range tr.Summary().Stages {
			if st.Name == trace.StagePeriodogram {
				iters += st.Counters[trace.CounterSolverIters]
				solves += int64(kHi-kLo+1) - st.Counters[trace.CounterPrefilterSkips]
			}
		}
	}
	if solves == 0 {
		t.Fatal("no exact solves")
	}
	mean := float64(iters) / float64(solves)
	t.Logf("%d exact solves, %.3f iterations each", solves, mean)
	if mean > 4 {
		t.Errorf("%.3f solver iterations per exact solve, want <= 4", mean)
	}
}
