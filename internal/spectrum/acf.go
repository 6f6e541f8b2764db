package spectrum

import (
	"fmt"

	"robustperiod/internal/dsp/fft"
)

// FullRange mirrors a half-range periodogram (k = 0..N, where the
// underlying series has even length N' = 2N) back to all N' ordinates
// using the conjugate symmetry of real series: P[N'−k] = P[k].
// len(half) must be N+1 (it includes both DC and Nyquist).
func FullRange(half []float64) []float64 {
	n := len(half) - 1 // Nyquist index
	if n < 1 {
		out := make([]float64, len(half))
		copy(out, half)
		return out
	}
	full := make([]float64, 2*n)
	copy(full, half)
	for k := n + 1; k < 2*n; k++ {
		full[k] = half[2*n-k]
	}
	return full
}

// ACFFromPeriodogram converts a full-range periodogram of a zero-padded
// series (original length n, padded length len(full) = 2n) into the
// unbiased normalized autocorrelation function via the Wiener–Khinchin
// theorem (Eq. 13 of the paper, with the additional factor n that makes
// ACF(0) = 1):
//
//	p_t = IDFT{P}_t,   ACF(t) = n·p_t / ((n−t)·p_0),  t = 0..n−1.
//
// Because the series was zero-padded to twice its length, the circular
// autocovariance p_t equals the linear autocovariance, so the estimate
// is exact, robust (it inherits the robustness of the periodogram),
// and costs O(n log n). P is real, so Re IDFT{P}_t = Re DFT{P}_t / len(P):
// one real forward transform gives p_t up to a factor that cancels in
// the ratio.
func ACFFromPeriodogram(full []float64, n int) ([]float64, error) {
	if len(full) < 2*n {
		return nil, fmt.Errorf("spectrum: full periodogram length %d < 2n = %d", len(full), 2*n)
	}
	acf := make([]float64, n)
	fft.HalfSpectrumRe(full, acf) // acf[t] = Re DFT{P}_t until scaled below
	p0 := acf[0]
	if p0 == 0 {
		clear(acf)
		acf[0] = 1
		return acf, nil
	}
	for t := range acf {
		acf[t] = float64(n) * acf[t] / (float64(n-t) * p0)
	}
	return acf, nil
}

// HuberACF is the paper's robust autocorrelation: it builds the
// half-range Huber periodogram of the zero-padded series (robust
// ordinates on the whole usable band), mirrors it, and applies the
// Wiener–Khinchin inversion. x is the (already preprocessed) series of
// length n; it is zero-padded to 2n internally.
func HuberACF(x []float64, opts Options) ([]float64, error) {
	n := len(x)
	if n < 4 {
		return nil, fmt.Errorf("spectrum: series too short (%d)", n)
	}
	padded := make([]float64, 2*n)
	copy(padded, x)
	if opts.FitLength <= 0 {
		opts.FitLength = n
	}
	half, err := HybridPeriodogram(padded, 1, n-1, opts)
	if err != nil {
		return nil, err
	}
	return ACFFromPeriodogram(FullRange(half), n)
}

// DirectACF returns the unbiased normalized sample ACF computed
// directly in O(n²); used as the reference implementation and in the
// ablation benches.
func DirectACF(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for _, v := range x {
		c0 += (v - mean) * (v - mean)
	}
	c0 /= float64(n)
	out := make([]float64, n)
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for t := 0; t < n; t++ {
		var s float64
		for i := 0; i+t < n; i++ {
			s += (x[i] - mean) * (x[i+t] - mean)
		}
		out[t] = s / (float64(n-t) * c0)
	}
	return out
}

// NyquistOrdinate returns the classical periodogram value at the
// Nyquist frequency of an even-length series:
// P_N = (Σ_t (−1)^t x_t)² / N'.
func NyquistOrdinate(x []float64) float64 {
	var s float64
	sign := 1.0
	for _, v := range x {
		s += sign * v
		sign = -sign
	}
	return s * s / float64(len(x))
}
