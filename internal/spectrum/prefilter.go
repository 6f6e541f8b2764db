package spectrum

// The vanilla-periodogram prefilter: a certificate that lets the
// hybrid periodogram skip the exact per-frequency M-regression for
// frequencies that provably cannot pass Fisher's g-test, substituting
// a cheap FFT-derived ordinate instead.
//
// Setup. The detect pipeline solves Eq. 6 on a zero-padded series of
// length N = 2m with the regression fitted on the first m samples, so
// the design columns φ_t = (cos 2πkt/N, sin 2πkt/N) over t < m have an
// exactly orthogonal Gram: Σφ_tφ_tᵀ = (m/2)·I for every integer
// 1 ≤ k < N/2 (the angle 2πk/N = πk/m sweeps full cycles that cancel).
// The Huber loss L(β) = Σ_t ρ_ζ(φ_tᵀβ − x_t) then has:
//
//   gradient at zero   ∇L(0) = −Σ ψ_ζ(x_t)·φ_t, whose norm g_k is
//     exactly √(N·C_k) where C_k is the vanilla periodogram ordinate
//     of the ζ-clipped (winsorized) series, zero-padded like x — one
//     FFT yields g_k for every frequency at once;
//   smoothness          ψ_ζ is 1-Lipschitz, so ∇L is (m/2)-Lipschitz
//     (the Gram's largest eigenvalue), giving the lower bound
//     ‖β̂‖ ≥ g_k/(m/2) and hence P^M_k ≥ C_k: the cheap ordinate
//     never overstates the exact one;
//   strong convexity    on the ball ‖β‖ ≤ ρ, every sample with
//     |x_t| ≤ ζ − ρ keeps its residual inside the quadratic region,
//     so L is μ-strongly convex there with
//     μ(ρ) = m/2 − #{t < m : |x_t| > ζ − ρ}, and whenever
//     g_k < ρ·μ(ρ) the global minimizer lies inside the ball with
//     ‖β̂‖ ≤ g_k/μ(ρ), giving the upper bound
//     P^M_k ≤ B_k = C_k · (m/(2μ(ρ)))².
//
// Fisher's test accepts the argmax k̂ only when P[k̂]/ΣP[k] exceeds the
// critical value g_crit(α, N/2). The sum is lower-bounded without any
// exact solve: out-of-band ordinates are the classical ones verbatim,
// and in-band ordinates are at least C_k. So any frequency with
// B_k < g_crit · S_lower is certified: its exact ordinate could never
// pass the test, and the engine substitutes C_k (≤ B_k, and ≤ the
// exact ordinate) instead of running the solver. On the noise floor —
// the vast majority of bins — that removes the M-regression entirely.
//
// The certificate needs the exact Gram identity, so the prefilter arms
// only for the padded layout 2·FitLength == N, and only for the Huber
// loss (LAD has no quadratic region to make μ positive).

import (
	"math"

	"robustperiod/internal/dsp/fft"
)

// prefilterResult carries the per-frequency verdicts for one band.
type prefilterResult struct {
	skip  []bool    // indexed k-kLo: certified below the Fisher floor
	cheap []float64 // clipped-series vanilla ordinate C_k, same index
	skips int
}

// ballFractions is the grid of trust-ball radii, as fractions of ζ,
// over which the upper bound is minimized. Small balls keep μ large
// (few samples leave the quadratic region) but only certify small
// gradients; the first radius that contains g_k/μ wins.
var ballFractions = [...]float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2}

// rungSizes counts, for each ball fraction f, the fit samples with
// |x_t| > ζ·(1 − f): the samples whose residual can leave Huber's
// quadratic region somewhere on the ball of radius ζf.
func rungSizes(fit []float64, zeta float64) (size [len(ballFractions)]int) {
	for _, v := range fit {
		v = math.Abs(v)
		for i, f := range ballFractions {
			if v > zeta*(1-f) {
				size[i]++
			}
		}
	}
	return size
}

// buildPrefilter computes the skip certificate for [kLo, kHi], or nil
// when the prefilter cannot arm (wrong loss, no alpha, not the padded
// 2m == N layout). classical is the half-range classical periodogram
// of x; robustNyq reports whether the caller will replace the Nyquist
// ordinate (its classical value then may not lower-bound the final
// array, so it is excluded from S_lower). opts must carry defaults.
func buildPrefilter(x []float64, kLo, kHi int, opts Options, classical []float64, robustNyq bool, plan *trigPlan) *prefilterResult {
	n := len(x)
	m := opts.FitLength
	if opts.NoPrefilter || opts.Loss != LossHuber || 2*m != n {
		return nil
	}
	// A narrow band cannot repay the clipped-series FFT the certificate
	// costs; solve it exactly.
	if kHi-kLo+1 < solveChunk {
		return nil
	}
	alpha := opts.PrefilterAlpha
	if !(alpha > 0 && alpha < 1) {
		return nil
	}
	zeta := opts.Zeta

	// Clipped-series vanilla periodogram: C_k = g_k²/N for k ≤ N/2.
	clipped := make([]float64, n)
	for t := 0; t < m; t++ {
		v := x[t]
		if v > zeta {
			v = zeta
		} else if v < -zeta {
			v = -zeta
		}
		clipped[t] = v
	}
	pClip := fft.HalfPeriodogram(clipped)

	// μ(ρ) for each ball radius.
	var mu [len(ballFractions)]float64
	anyBall := false
	for i, out := range rungSizes(x[:m], zeta) {
		mu[i] = float64(m)/2 - float64(out)
		if mu[i] > 0 {
			anyBall = true
		}
	}
	if !anyBall {
		return nil
	}

	// S_lower: out-of-band classical ordinates are exact; in-band the
	// exact ordinate is at least C_k (the smoothness bound above). DC
	// never enters Fisher's sum; the Nyquist bin is dropped when the
	// caller is about to robustify it.
	nyq := len(classical) - 1
	sLower := 0.0
	for k := 1; k <= nyq; k++ {
		switch {
		case k >= kLo && k <= kHi:
			sLower += pClip[k]
		case k == nyq && robustNyq:
			// excluded: lower-bounded by zero
		default:
			sLower += classical[k]
		}
	}
	if !(sLower > 0) {
		return nil
	}
	floor := plan.fisherCritical(alpha) * sLower

	pre := &prefilterResult{
		skip:  make([]bool, kHi-kLo+1),
		cheap: make([]float64, kHi-kLo+1),
	}
	halfM := float64(m) / 2
	for k := kLo; k <= kHi; k++ {
		ck := pClip[k]
		pre.cheap[k-kLo] = ck
		// Smallest ball that certifies this gradient gives the largest
		// μ and the tightest bound B_k.
		gk := float64(n) * ck // g_k², compared against (ρ·μ)²
		for i, f := range ballFractions {
			if mu[i] <= 0 {
				continue
			}
			rho := zeta * f
			if gk < rho*rho*mu[i]*mu[i] {
				q := halfM / mu[i]
				if ck*q*q < floor {
					pre.skip[k-kLo] = true
					pre.skips++
				}
				break
			}
		}
	}
	if pre.skips == 0 {
		return nil
	}
	return pre
}
