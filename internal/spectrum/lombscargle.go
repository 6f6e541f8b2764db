package spectrum

import (
	"fmt"
	"math"
)

// LombScargle computes the Lomb–Scargle normalized periodogram of an
// unevenly sampled series: observations y taken at times ts (not
// necessarily equispaced), evaluated at the given frequencies (cycles
// per unit time). It is the standard spectral tool when samples are
// missing or irregular — the alternative to interpolating gaps before
// an FFT periodogram, which biases power toward low frequencies.
//
//	P(f) = ½ [ (Σ ȳ_i cos ω(t_i−τ))² / Σ cos² ω(t_i−τ)
//	         + (Σ ȳ_i sin ω(t_i−τ))² / Σ sin² ω(t_i−τ) ]
//
// with ω = 2πf, ȳ the mean-centred values and τ the Lomb phase offset
// tan(2ωτ) = Σ sin 2ωt_i / Σ cos 2ωt_i. With the 1/σ̂² normalization
// applied here, each ordinate is asymptotically Exp(1) under the
// white-noise null, so Fisher-style thresholds apply directly.
func LombScargle(ts, y []float64, freqs []float64) ([]float64, error) {
	n := len(y)
	if n != len(ts) {
		return nil, fmt.Errorf("spectrum: %d times vs %d values", len(ts), n)
	}
	if n < 4 {
		return nil, fmt.Errorf("spectrum: series too short (%d)", n)
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	variance := 0.0
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - mean
		variance += yc[i] * yc[i]
	}
	variance /= float64(n - 1)
	if variance == 0 {
		return make([]float64, len(freqs)), nil
	}
	out := make([]float64, len(freqs))
	for fi, f := range freqs {
		if f <= 0 {
			continue
		}
		w := 2 * math.Pi * f
		var s2, c2 float64
		for _, t := range ts {
			s, c := math.Sincos(2 * w * t)
			s2 += s
			c2 += c
		}
		tau := math.Atan2(s2, c2) / (2 * w)
		var cy, sy, cc, ss float64
		for i, t := range ts {
			s, c := math.Sincos(w * (t - tau))
			cy += yc[i] * c
			sy += yc[i] * s
			cc += c * c
			ss += s * s
		}
		p := 0.0
		if cc > 0 {
			p += cy * cy / cc
		}
		if ss > 0 {
			p += sy * sy / ss
		}
		out[fi] = p / (2 * variance)
	}
	return out, nil
}

// LombScargleFrequencyGrid returns a standard evaluation grid for a
// time span T: frequencies from 1/T up to the pseudo-Nyquist implied
// by the median sampling interval, with `oversample`× the natural
// resolution (oversample <= 0 means 4).
func LombScargleFrequencyGrid(ts []float64, oversample float64) []float64 {
	n := len(ts)
	if n < 4 {
		return nil
	}
	if oversample <= 0 {
		oversample = 4
	}
	span := ts[n-1] - ts[0]
	if span <= 0 {
		return nil
	}
	// Median gap → pseudo-Nyquist.
	gaps := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		if d := ts[i] - ts[i-1]; d > 0 {
			gaps = append(gaps, d)
		}
	}
	if len(gaps) == 0 {
		return nil
	}
	// In-place selection of the median gap.
	med := medianFloat(gaps)
	fMax := 0.5 / med
	df := 1 / (oversample * span)
	var freqs []float64
	for f := 1 / span; f <= fMax; f += df {
		freqs = append(freqs, f)
	}
	return freqs
}

func medianFloat(x []float64) float64 {
	// Simple insertion-based selection is fine for the grid helper.
	buf := append([]float64(nil), x...)
	for i := 1; i < len(buf); i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	m := len(buf) / 2
	if len(buf)%2 == 1 {
		return buf[m]
	}
	return (buf[m-1] + buf[m]) / 2
}
