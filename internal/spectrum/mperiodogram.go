// Package spectrum implements the spectral estimation core of
// RobustPeriod: the classical DFT periodogram, the robust
// M-periodogram family (Huber and LAD losses, solved by IRLS or ADMM),
// the hybrid passband evaluation of §3.4.1, and the Wiener–Khinchin
// construction of the robust Huber-ACF (Eq. 13).
package spectrum

import (
	"context"
	"fmt"
	"math"

	"robustperiod/internal/dsp/fft"
	"robustperiod/internal/faults"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
)

// Loss selects the M-estimation loss of the robust periodogram.
type Loss int

// Supported losses. LossL2 reproduces the classical periodogram
// exactly; LossLAD is the Laplace periodogram of Li (2008); LossHuber
// is the paper's choice (Eq. 7).
const (
	LossHuber Loss = iota
	LossLAD
	LossL2
)

func (l Loss) String() string {
	switch l {
	case LossHuber:
		return "huber"
	case LossLAD:
		return "lad"
	case LossL2:
		return "l2"
	default:
		return fmt.Sprintf("loss(%d)", int(l))
	}
}

// Solver selects the optimizer for the per-frequency M-regression.
type Solver int

// SolverIRLS is the default. On the padded Huber layout
// (2·FitLength == N) it takes Newton steps, which end once the set of
// outlying samples stops changing, with iteratively reweighted least
// squares (IRLS) as the safeguard; everywhere else (other layouts, the
// LAD loss) it runs IRLS. SolverADMM is the alternating direction
// method the paper cites. Both converge to the same optimum; see the
// ablation benches.
const (
	SolverIRLS Solver = iota
	SolverADMM
)

func (s Solver) String() string {
	if s == SolverADMM {
		return "admm"
	}
	return "irls"
}

// Options configures the M-periodogram.
type Options struct {
	Loss    Loss
	Solver  Solver
	Zeta    float64 // Huber threshold; <= 0 means 1.345 × MADN of the series
	MaxIter int     // per-frequency iteration cap; <= 0 means 30
	Tol     float64 // relative convergence tolerance; <= 0 means 1e-8
	Rho     float64 // ADMM penalty; <= 0 means 1

	// Trace, when non-nil, accumulates the solver engine's
	// diagnostics under the "periodogram" stage: total Newton/IRLS/ADMM
	// iterations ("solver_iters") and frequencies skipped by the
	// prefilter ("prefilter_skips"). Tallies accumulate locally per
	// worker and merge once per call, so the hot solver loops never
	// touch a shared lock.
	Trace *trace.Trace

	// Ctx, when non-nil, is polled between per-frequency regressions
	// and between solver iterations; once it is cancelled the
	// periodogram functions stop and return Ctx.Err(). A nil Ctx (the
	// zero value) never cancels.
	Ctx context.Context

	// FitLength, when positive, restricts the M-regression to the
	// first FitLength samples while keeping the frequency grid of the
	// full (zero-padded) series, and rescales the ordinates to the
	// padded vanilla-periodogram convention. Fitting the regression on
	// the padded zeros would penalize strong ordinates more than weak
	// ones (the padding residuals grow with the fitted amplitude),
	// systematically biasing the Wiener–Khinchin ACF toward the bin
	// period; excluding the padding removes that bias. 0 fits all
	// samples.
	FitLength int

	// PrefilterAlpha, when in (0, 1), arms the vanilla-periodogram
	// prefilter inside HybridPeriodogram: any frequency whose exact
	// Huber ordinate is provably below the Fisher-g acceptance floor
	// at this significance level is not solved exactly — the
	// clipped-series vanilla ordinate is substituted (and the skip
	// counted under the "prefilter_skips" trace counter), which
	// cannot change the set of Fisher-accepted frequencies (see
	// prefilter.go for the certificate). The prefilter needs the
	// padded detect layout (2·FitLength == len(x)) and the Huber
	// loss; in any other configuration the exact path runs
	// unconditionally. 0 (the zero value) disables it. MPeriodogram
	// never prefilters: its contract is the exact band.
	PrefilterAlpha float64

	// NoPrefilter forces the exact solve for every frequency even
	// when PrefilterAlpha is set — the reference configuration of the
	// equivalence tests.
	NoPrefilter bool
}

func (o Options) withDefaults(x []float64) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Rho <= 0 {
		o.Rho = 1
	}
	if o.FitLength <= 0 || o.FitLength > len(x) {
		o.FitLength = len(x)
	}
	if o.Zeta <= 0 {
		fit := x[:o.FitLength]
		s := robust.MADN(fit)
		if s == 0 {
			s = math.Sqrt(robust.Variance(fit))
		}
		if s == 0 {
			s = 1
		}
		o.Zeta = 1.345 * s
	}
	return o
}

// Periodogram returns the half-range classical periodogram
// P[k] = |Σ_t x_t e^{−i2πkt/N}|²/N for k = 0..⌊N/2⌋ (Eq. 5).
func Periodogram(x []float64) []float64 {
	return fft.HalfPeriodogram(x)
}

// MPeriodogram returns the robust M-periodogram ordinates
// P^M_k = (N/4)·‖β̂(k)‖² for every k in [kLo, kHi] (Eq. 6). The slice
// is indexed from 0: out[i] corresponds to frequency index kLo+i.
// Frequencies must satisfy 0 < kLo <= kHi < ⌈N/2⌉ (the harmonic
// regressors degenerate at DC and Nyquist; use Periodogram there).
func MPeriodogram(x []float64, kLo, kHi int, opts Options) ([]float64, error) {
	n := len(x)
	if n < 4 {
		return nil, fmt.Errorf("spectrum: series too short (%d)", n)
	}
	if kLo < 1 || kHi < kLo || kHi >= (n+1)/2 {
		return nil, fmt.Errorf("spectrum: frequency range [%d,%d] invalid for N=%d", kLo, kHi, n)
	}
	opts = opts.withDefaults(x)
	// Fault points: "spectrum/solver" simulates a robust-regression
	// failure (IRLS/ADMM divergence surrogate), "spectrum/stall" a
	// stage stall (its delay action sleeps inside the solve until
	// Ctx ends, so a caller-imposed stage budget sees it exactly like
	// a slow solve).
	if err := faults.Check(faults.PointSpectrumSolver); err != nil {
		return nil, err
	}
	if err := faults.CheckDone(faults.PointSpectrumStall, ctxDone(opts.Ctx)); err != nil {
		return nil, err
	}
	if opts.Loss == LossL2 {
		// The sum-of-squares M-periodogram is exactly the classical
		// periodogram (the paper notes the equivalence below Eq. 6);
		// take the O(N log N) FFT path instead of per-frequency OLS.
		p := fft.HalfPeriodogram(x)
		out := make([]float64, kHi-kLo+1)
		copy(out, p[kLo:kHi+1])
		return out, nil
	}
	// The exact band, never prefiltered: callers of MPeriodogram get
	// the true M-ordinate at every requested frequency.
	return solveBand(x, kLo, kHi, opts, nil)
}

// checkOrdinates rejects a solve that produced a non-finite ordinate
// (a diverged robust regression): surfacing it as an error lets the
// detector fall back to the classical periodogram instead of feeding
// NaN into Fisher's test, where it would silently void the verdict.
func checkOrdinates(out []float64, kLo int) error {
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("spectrum: robust solver diverged (non-finite ordinate at k=%d)", kLo+i)
		}
	}
	return nil
}

// ctxDone returns the context's done channel, or nil for a nil context
// (a nil channel never receives, so cancelled() stays false).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled non-blockingly reports whether done has fired.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// olsInit returns the exact least-squares harmonic fit by solving the
// unweighted 2×2 normal equations; this is both the L2 solution and
// the starting iterate of the robust solvers. (For integer
// frequencies over the full sample this reduces to
// (2/N)·[Σx·cos, Σx·sin], but the exact solve also covers
// FitLength-restricted fits where the regressors are not orthogonal.)
func olsInit(x, cosB, sinB []float64) (a, b float64) {
	var scc, sss, scs, sxc, sxs float64
	for t := range x {
		c, s := cosB[t], sinB[t]
		scc += c * c
		sss += s * s
		scs += c * s
		sxc += x[t] * c
		sxs += x[t] * s
	}
	det := scc*sss - scs*scs
	if det == 0 || math.IsNaN(det) {
		return 0, 0
	}
	return (sxc*sss - sxs*scs) / det, (sxs*scc - sxc*scs) / det
}

// solveIRLSFrom minimizes Σ γ(a·cos + b·sin − x) by iteratively
// reweighted least squares on the 2×2 normal equations, starting from
// the given iterate (the OLS init). iters reports the reweighting
// iterations executed (for the tracing layer).
func solveIRLSFrom(x, cosB, sinB []float64, a0, b0 float64, opts Options, done <-chan struct{}) (a, b float64, iters int) {
	a, b = a0, b0
	if opts.Loss == LossL2 {
		return a, b, 0
	}
	const ladEps = 1e-8
	for iter := 0; iter < opts.MaxIter; iter++ {
		if cancelled(done) {
			return a, b, iters
		}
		iters++
		var scc, sss, scs, sxc, sxs float64
		for t := range x {
			r := a*cosB[t] + b*sinB[t] - x[t]
			var w float64
			if opts.Loss == LossLAD {
				w = 1 / math.Max(math.Abs(r), ladEps)
			} else {
				w = robust.HuberWeight(r, opts.Zeta)
			}
			c, s := cosB[t], sinB[t]
			scc += w * c * c
			sss += w * s * s
			scs += w * c * s
			sxc += w * x[t] * c
			sxs += w * x[t] * s
		}
		det := scc*sss - scs*scs
		if det == 0 || math.IsNaN(det) {
			return a, b, iters
		}
		na := (sxc*sss - sxs*scs) / det
		nb := (sxs*scc - sxc*scs) / det
		da, db := na-a, nb-b
		a, b = na, nb
		if da*da+db*db <= opts.Tol*opts.Tol*(a*a+b*b+1e-12) {
			break
		}
	}
	return a, b, iters
}

// solveADMMFrom minimizes Σ γ(z) subject to z = Φβ − x via ADMM with
// penalty ρ, starting from the given iterate; the β-update solves the
// exact 2×2 normal equations of Φβ = x + z − u. z and u are
// caller-provided scratch (len ≥ len(x)), overwritten here. iters
// reports the ADMM iterations executed.
func solveADMMFrom(x, cosB, sinB []float64, a0, b0 float64, z, u []float64, opts Options, done <-chan struct{}) (a, b float64, iters int) {
	a, b = a0, b0
	if opts.Loss == LossL2 {
		return a, b, 0
	}
	var scc, sss, scs float64
	for t := range x {
		c, s := cosB[t], sinB[t]
		scc += c * c
		sss += s * s
		scs += c * s
	}
	det := scc*sss - scs*scs
	if det == 0 || math.IsNaN(det) {
		return a, b, 0
	}
	for t := range x {
		z[t] = a*cosB[t] + b*sinB[t] - x[t]
		u[t] = 0
	}
	rho := opts.Rho
	for iter := 0; iter < 4*opts.MaxIter; iter++ {
		if cancelled(done) {
			return a, b, iters
		}
		iters++
		// β-update: least squares of Φβ = x + z − u.
		var sc, ss float64
		for t := range x {
			v := x[t] + z[t] - u[t]
			sc += v * cosB[t]
			ss += v * sinB[t]
		}
		na := (sc*sss - ss*scs) / det
		nb := (ss*scc - sc*scs) / det
		// z-update: prox of the loss at v = Φβ − x + u.
		maxResid := 0.0
		for t := range x {
			v := na*cosB[t] + nb*sinB[t] - x[t] + u[t]
			var zt float64
			if opts.Loss == LossLAD {
				// soft threshold by 1/ρ
				switch {
				case v > 1/rho:
					zt = v - 1/rho
				case v < -1/rho:
					zt = v + 1/rho
				default:
					zt = 0
				}
			} else {
				zt = huberProx(v, opts.Zeta, rho)
			}
			// dual update uses the new z.
			r := na*cosB[t] + nb*sinB[t] - x[t] - zt
			u[t] += r
			z[t] = zt
			if ar := math.Abs(r); ar > maxResid {
				maxResid = ar
			}
		}
		da, db := na-a, nb-b
		a, b = na, nb
		if maxResid < opts.Tol*10 && da*da+db*db <= opts.Tol*opts.Tol*(a*a+b*b+1e-12) {
			break
		}
	}
	return a, b, iters
}

// huberProx returns argmin_z huber_ζ(z) + (ρ/2)(z − v)².
func huberProx(v, zeta, rho float64) float64 {
	if math.Abs(v) <= zeta*(1+rho)/rho {
		return rho * v / (1 + rho)
	}
	if v > 0 {
		return v - zeta/rho
	}
	return v + zeta/rho
}

// RobustNyquist returns the M-estimated ordinate at the Nyquist
// frequency of an even-length series: the harmonic regressor collapses
// to (−1)^t, so this is a one-parameter robust location fit, scaled to
// match the classical P_N = (Σ(−1)^t x)²/N under the L2 loss.
func RobustNyquist(x []float64, opts Options) float64 {
	n := len(x)
	if n < 2 || n%2 != 0 {
		return NyquistOrdinate(x)
	}
	opts = opts.withDefaults(x)
	fit := x[:opts.FitLength]
	m := len(fit)
	// OLS init: beta = Σ(−1)^t x / m.
	beta := 0.0
	sign := 1.0
	for _, v := range fit {
		beta += sign * v
		sign = -sign
	}
	beta /= float64(m)
	scale := float64(m) * float64(m) / float64(n)
	if opts.Loss == LossL2 {
		return scale * beta * beta
	}
	const ladEps = 1e-8
	done := ctxDone(opts.Ctx)
	iters := int64(0)
	defer func() { opts.Trace.Count(trace.StagePeriodogram, trace.CounterSolverIters, iters) }()
	for iter := 0; iter < opts.MaxIter; iter++ {
		if cancelled(done) {
			break
		}
		iters++
		var sw, swx float64
		sign = 1.0
		for _, v := range fit {
			r := beta*sign - v
			var w float64
			if opts.Loss == LossLAD {
				w = 1 / math.Max(math.Abs(r), ladEps)
			} else {
				w = robust.HuberWeight(r, opts.Zeta)
			}
			sw += w
			swx += w * sign * v
			sign = -sign
		}
		if sw == 0 {
			break
		}
		nb := swx / sw
		d := nb - beta
		beta = nb
		if d*d <= opts.Tol*opts.Tol*(beta*beta+1e-12) {
			break
		}
	}
	if p := scale * beta * beta; !math.IsNaN(p) && !math.IsInf(p, 0) {
		return p
	}
	// Diverged robust location fit: the classical ordinate is the
	// graceful answer for a single bin.
	return NyquistOrdinate(x)
}

// HybridPeriodogram returns the half-range periodogram of x with
// robust M-ordinates on [kLo, kHi] and classical DFT ordinates
// elsewhere — the paper's speedup of computing Eq. 6 only on the
// wavelet level's nominal passband. Indices outside (0, N/2) are
// always classical, except that when the robust band reaches the last
// interior bin the Nyquist ordinate is robustified too — otherwise a
// classical Nyquist bin would keep the full outlier energy that every
// neighbouring robust bin has downweighted, and Fisher's test would
// lock onto it. The returned slice has ⌊N/2⌋+1 entries.
func HybridPeriodogram(x []float64, kLo, kHi int, opts Options) ([]float64, error) {
	p := Periodogram(x)
	if p == nil {
		return nil, fmt.Errorf("spectrum: empty series")
	}
	if opts.Loss == LossL2 {
		// Classical ordinates everywhere — nothing to patch.
		return p, nil
	}
	if kLo < 1 {
		kLo = 1
	}
	nyq := len(x) / 2
	if kHi >= (len(x)+1)/2 {
		kHi = (len(x)+1)/2 - 1
	}
	if kHi < kLo {
		return p, nil
	}
	if len(x) < 4 {
		return nil, fmt.Errorf("spectrum: series too short (%d)", len(x))
	}
	opts = opts.withDefaults(x)
	if err := faults.Check(faults.PointSpectrumSolver); err != nil {
		return nil, err
	}
	if err := faults.CheckDone(faults.PointSpectrumStall, ctxDone(opts.Ctx)); err != nil {
		return nil, err
	}
	robustNyq := len(x)%2 == 0 && kHi == nyq-1 && nyq < len(p)
	// The Fisher prefilter applies here and not in MPeriodogram: only
	// the hybrid array feeds Fisher's test, so only here is "below the
	// acceptance floor" a meaningful certificate.
	pre := buildPrefilter(x, kLo, kHi, opts, p, robustNyq, getPlan(len(x), opts.FitLength))
	m, err := solveBand(x, kLo, kHi, opts, pre)
	if err != nil {
		return nil, err
	}
	copy(p[kLo:kHi+1], m)
	if robustNyq {
		p[nyq] = RobustNyquist(x, opts)
	}
	return p, nil
}
