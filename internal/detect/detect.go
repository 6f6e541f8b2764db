// Package detect implements RobustPeriod's robust single-periodicity
// detection stage (§3.4): Fisher's g-test on the Huber-periodogram of
// the zero-padded series generates a period candidate, and the
// Huber-ACF (obtained from the same periodogram via Wiener–Khinchin)
// validates and refines it through the median inter-peak distance
// (Huber-ACF-Med).
package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"robustperiod/internal/peaks"
	"robustperiod/internal/spectrum"
	"robustperiod/internal/stat/dist"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
)

// Config tunes the single-period detector.
type Config struct {
	// Alpha is the Fisher-test significance level; <= 0 means 0.01.
	Alpha float64
	// ACFHeight is the minimum ACF peak height; <= 0 means 0.3.
	ACFHeight float64
	// MinPeriod rejects candidates shorter than this; < 2 means 2.
	MinPeriod int
	// Parallel fans the robust periodogram's per-frequency regressions
	// out over all CPUs.
	Parallel bool
	// Trace, when non-nil, times the periodogram and validation stages
	// and tallies Fisher/ACF verdicts. Same-named stages from
	// concurrent per-level detections merge into one accumulator.
	Trace *trace.Trace
	// Budget bounds the wall time of this detection's robust
	// periodogram solve. When the budget expires (and the caller's own
	// context, MPOpts.Ctx, is still live) the detector falls back to
	// the classical periodogram instead of erroring; the robust ACF
	// validation still runs on the result. <= 0 means unbounded.
	Budget time.Duration
	// NoFallback disables the degraded classical-periodogram fallback:
	// budget exhaustion and solver failures surface as errors.
	NoFallback bool
	// MPOpts configures the robust periodogram.
	MPOpts spectrum.Options
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 0.01
	}
	if c.ACFHeight <= 0 {
		c.ACFHeight = 0.3
	}
	if c.MinPeriod < 2 {
		c.MinPeriod = 2
	}
	return c
}

// Result reports everything the detector learned about one series
// (one wavelet level in the full pipeline). The field names mirror the
// paper's Fig. 5 annotations.
type Result struct {
	Candidate int     // per_T: period implied by the Fisher argmax (0 = test failed)
	KHat      int     // argmax frequency index in the padded spectrum
	GStat     float64 // Fisher g statistic
	PValue    float64 // exact Fisher p-value
	ACFPeriod int     // acf_T: median ACF inter-peak distance (0 = no peaks)
	Final     int     // fin_T: validated period (0 = rejected)
	Periodic  bool    // the level's overall verdict

	// Degraded names the reason this detection fell back to the
	// classical periodogram ("" = full-quality robust path): one of
	// ReasonBudgetExceeded or ReasonSolverFailed.
	Degraded string

	Periodogram []float64 // half-range hybrid (robust-in-band) periodogram
	ACF         []float64 // Huber-ACF, lags 0..N−1
}

// Degradation reasons reported in Result.Degraded.
const (
	// ReasonBudgetExceeded: the robust solve blew its stage budget.
	ReasonBudgetExceeded = "periodogram_budget_exceeded"
	// ReasonSolverFailed: the robust regression failed (divergence or
	// an injected solver fault).
	ReasonSolverFailed = "robust_solver_failed"
)

// FisherTest runs Fisher's g-test on half-range periodogram ordinates
// p[1:] (p[0], the DC term, is ignored). It returns the statistic, the
// exact p-value, and the argmax index into p.
func FisherTest(p []float64) (g, pValue float64, kHat int) {
	if len(p) < 3 {
		return 0, 1, 0
	}
	sum := 0.0
	kHat = 1
	for k := 1; k < len(p); k++ {
		sum += p[k]
		if p[k] > p[kHat] {
			kHat = k
		}
	}
	if sum <= 0 {
		return 0, 1, 0
	}
	g = p[kHat] / sum
	n := len(p) - 1
	return g, dist.FisherGPValue(g, n), kHat
}

// Single detects at most one periodicity in x. The robust
// M-periodogram is evaluated exactly on padded-frequency indices
// [kLo, kHi] (the caller passes the wavelet level's nominal passband;
// pass 1 and 2*len(x) to robustify the whole band), with the classical
// periodogram elsewhere, following §3.4.1.
func Single(x []float64, kLo, kHi int, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	n := len(x)
	if n < 8 {
		return Result{}, fmt.Errorf("detect: series too short (%d)", n)
	}
	// Centre the series so the DC ordinate vanishes: the ACF is defined
	// on centred data, and an uncentred mean would dominate the
	// Wiener–Khinchin inversion. (Wavelet coefficients arriving from
	// the pipeline are already near zero-mean; this also makes the
	// detector safe for standalone use.)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	padded := make([]float64, 2*n)
	for i, v := range x {
		padded[i] = v - mean
	}
	// Resolve the Huber threshold from the unpadded series: the padded
	// half is structurally zero and would drag a MAD-based ζ toward
	// zero, over-shrinking every robust ordinate relative to the
	// classical ones outside the band and breaking Fisher's test.
	if cfg.MPOpts.Zeta <= 0 {
		s := robust.MADN(padded[:n])
		if s == 0 {
			s = math.Sqrt(robust.Variance(padded[:n]))
		}
		if s == 0 {
			s = 1
		}
		cfg.MPOpts.Zeta = 1.345 * s
	}
	// Fit the robust harmonic regressions on the real samples only;
	// the padding exists for the frequency grid and the Wiener–Khinchin
	// inversion, and including its structural zeros in the loss would
	// shrink strong ordinates more than weak ones.
	cfg.MPOpts.FitLength = n
	cfg.MPOpts.Parallel = cfg.MPOpts.Parallel || cfg.Parallel
	if cfg.MPOpts.Trace == nil {
		cfg.MPOpts.Trace = cfg.Trace
	}
	// Arm the Fisher prefilter at the significance level this detection
	// will test at: frequencies certified below the acceptance floor
	// fall back to the cheap clipped-series ordinate (see
	// spectrum/prefilter.go). Callers can force the exact path with
	// MPOpts.NoPrefilter.
	if cfg.MPOpts.PrefilterAlpha == 0 {
		cfg.MPOpts.PrefilterAlpha = cfg.Alpha
	}

	stp := cfg.Trace.StartStage(trace.StagePeriodogram)
	half, degraded, err := hybridWithBudget(padded, kLo, kHi, cfg)
	if err != nil {
		stp.End()
		return Result{}, err
	}
	res := Result{Periodogram: half, Degraded: degraded}

	g, pv, kHat := FisherTest(half)
	res.GStat, res.PValue, res.KHat = g, pv, kHat
	if kHat > 0 {
		cand := int(math.Round(float64(2*n) / float64(kHat)))
		// A valid period must repeat at least twice in the unpadded
		// series and not be degenerate.
		if cand >= cfg.MinPeriod && cand <= n/2 {
			res.Candidate = cand
		}
	}
	stp.End()
	cfg.Trace.CountBool(trace.StagePeriodogram, pv < cfg.Alpha, "fisher_pass", "fisher_reject")

	stv := cfg.Trace.StartStage(trace.StageValidation)
	acf, err := spectrum.ACFFromPeriodogram(spectrum.FullRange(half), n)
	if err != nil {
		stv.End()
		return Result{}, err
	}
	res.ACF = acf

	if pv >= cfg.Alpha || res.Candidate == 0 {
		stv.End()
		return res, nil
	}

	res.ACFPeriod = acfMedianPeriod(acf, res.Candidate, cfg)
	if res.ACFPeriod != 0 {
		lo, hi := acceptRange(half, n, kHat)
		if float64(res.ACFPeriod) >= lo && float64(res.ACFPeriod) <= hi &&
			res.ACFPeriod >= cfg.MinPeriod && res.ACFPeriod <= n/2 &&
			acfPersists(acf, res.ACFPeriod, cfg.ACFHeight) {
			res.Final = res.ACFPeriod
			res.Periodic = true
		}
	}
	stv.End()
	cfg.Trace.CountBool(trace.StageValidation, res.Periodic, "acf_accept", "acf_reject")
	return res, nil
}

// hybridWithBudget runs the hybrid robust periodogram under
// cfg.Budget and, unless cfg.NoFallback, degrades to the classical
// periodogram when the robust solve fails or exhausts its budget
// while the caller's own context is still live. The returned string
// is the degradation reason ("" on the full-quality path).
func hybridWithBudget(padded []float64, kLo, kHi int, cfg Config) ([]float64, string, error) {
	mp := cfg.MPOpts
	parent := mp.Ctx
	var cancel context.CancelFunc
	if cfg.Budget > 0 && mp.Loss != spectrum.LossL2 {
		base := parent
		if base == nil {
			base = context.Background()
		}
		mp.Ctx, cancel = context.WithTimeout(base, cfg.Budget)
	}
	half, err := spectrum.HybridPeriodogram(padded, kLo, kHi, mp)
	if cancel != nil {
		cancel()
	}
	if err == nil {
		return half, "", nil
	}
	// The caller's own context expiring is a genuine cancellation —
	// the request is dead, so a degraded answer helps no one.
	if parent != nil && parent.Err() != nil {
		return nil, "", parent.Err()
	}
	if cfg.NoFallback || cfg.MPOpts.Loss == spectrum.LossL2 {
		return nil, "", err
	}
	reason := ReasonSolverFailed
	if errors.Is(err, context.DeadlineExceeded) {
		reason = ReasonBudgetExceeded
	}
	l2 := cfg.MPOpts
	l2.Loss = spectrum.LossL2
	half, err2 := spectrum.HybridPeriodogram(padded, kLo, kHi, l2)
	if err2 != nil {
		return nil, "", err
	}
	cfg.Trace.Count(trace.StagePeriodogram, "degraded_fallbacks", 1)
	return half, reason, nil
}

// acfPersists checks that the autocorrelation stays elevated at the
// second and third multiples of the candidate period. This is the
// gate that separates genuine periodicity from band-passed noise: the
// detector runs on wavelet coefficients, and band-limited noise is
// pseudo-periodic at the band's centre frequency for about one
// correlation length (~1.5 cycles) — its ACF envelope then collapses
// (first sinc zero at 1.5 cycles, sidelobes below ~0.2 afterwards),
// while a deterministic periodicity keeps near-constant ACF peaks at
// every multiple. Without this check Fisher's test — whose white-noise
// null is void on band-passed data — plus a one-cycle ACF bump lets
// roughly a third of pure-noise windows through.
func acfPersists(acf []float64, period int, height float64) bool {
	n := len(acf)
	need := height * 0.8
	for m := 2; m <= 3; m++ {
		lag := m * period
		if lag >= n-1 {
			break
		}
		w := period / 20
		if w < 2 {
			w = 2
		}
		best := math.Inf(-1)
		for i := lag - w; i <= lag+w && i < n; i++ {
			if i >= 1 && acf[i] > best {
				best = acf[i]
			}
		}
		if best < need {
			return false
		}
	}
	// Periods too long to observe a second multiple pass by default;
	// they already required several observed cycles elsewhere.
	return true
}

// acfMedianPeriod summarizes the ACF peak structure as the median
// distance between qualifying peaks (Huber-ACF-Med).
func acfMedianPeriod(acf []float64, candidate int, cfg Config) int {
	n := len(acf)
	// Unbiased ACF estimates explode at the largest lags; keep the
	// well-estimated 3/4 and never fewer than two candidate multiples.
	limit := n * 3 / 4
	if limit < 2*candidate+2 {
		limit = minInt(n, 2*candidate+2)
	}
	minDist := candidate / 4
	if minDist < 2 {
		minDist = 2
	}
	idx := peaks.Find(acf[:limit], peaks.Options{
		Height:      cfg.ACFHeight,
		MinDistance: minDist,
	})
	// Drop lag-0 adjacency artifacts: a peak closer than MinPeriod to
	// zero cannot start a period.
	for len(idx) > 0 && idx[0] < cfg.MinPeriod {
		idx = idx[1:]
	}
	if len(idx) == 0 {
		return 0
	}
	if len(idx) == 1 {
		// A single peak is its own distance estimate from lag 0.
		return idx[0]
	}
	return peaks.MedianDistance(idx)
}

// CandidateRange returns the period interval R_k that the periodogram
// bin kHat can resolve for a padded series of length 2n (§3.4.2): the
// midpoints toward the neighbouring bins, widened by 1% of the period
// (at least one sample) because for long periods observed over few
// cycles the ACF peak-spacing estimate carries more jitter than one
// sample.
func CandidateRange(n, kHat int) (lo, hi float64) {
	np := float64(2 * n)
	k := float64(kHat)
	slack := math.Max(1, 0.01*np/k)
	lo = 0.5*(np/(k+1)+np/k) - slack
	if kHat <= 1 {
		hi = float64(n)
	} else {
		hi = 0.5*(np/k+np/(k-1)) + slack
	}
	return lo, hi
}

// acceptRange is CandidateRange extended over the argmax's neighbour
// bins when they hold comparable power. A true frequency midway
// between two bins splits its energy across both, and the Fisher
// argmax lands on either one depending on the window phase while the
// (correct) ACF distance falls in the other bin's half-interval; the
// paper's single-bin interval then rejects it and detection flickers
// with the window offset. Noise argmaxes rarely have a comparable
// neighbour, so the acceptance region stays narrow for them.
func acceptRange(half []float64, n, kHat int) (lo, hi float64) {
	kL, kR := kHat, kHat
	if kHat-1 >= 1 && half[kHat-1] >= 0.5*half[kHat] {
		kL = kHat - 1
	}
	if kHat+1 < len(half) && half[kHat+1] >= 0.5*half[kHat] {
		kR = kHat + 1
	}
	lo, _ = CandidateRange(n, kR)
	_, hi = CandidateRange(n, kL)
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
