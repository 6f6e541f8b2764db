// Package ar provides autoregressive modelling: Yule-Walker and Burg
// coefficient estimation via Levinson-Durbin recursion, AIC-based
// order selection, and the AR spectral density. It is the substrate of
// the findFrequency baseline (Hyndman's forecast::findfrequency fits
// an AR model and reads the period off the spectral density maximum).
package ar

import (
	"fmt"
	"math"
)

// Model is a fitted autoregressive model
// x_t = Σ_{i=1..p} a_i x_{t−i} + e_t with innovation variance Sigma2.
type Model struct {
	Coeffs []float64 // a_1..a_p
	Sigma2 float64   // innovation variance
	Order  int
	AIC    float64
	Mean   float64 // sample mean removed before fitting
}

// autocovariance returns c_0..c_maxLag (biased estimator) of the
// mean-centred series; the mean itself is also returned.
func autocovariance(x []float64, maxLag int) (c []float64, mean float64) {
	n := len(x)
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c = make([]float64, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += (x[i] - mean) * (x[i+lag] - mean)
		}
		c[lag] = s / float64(n)
	}
	return c, mean
}

// YuleWalker fits an AR(p) model by solving the Yule-Walker equations
// with the Levinson-Durbin recursion. It errors on degenerate input
// (constant series or order out of range).
func YuleWalker(x []float64, order int) (*Model, error) {
	n := len(x)
	if order < 1 || order >= n {
		return nil, fmt.Errorf("ar: order %d out of range for n=%d", order, n)
	}
	c, mean := autocovariance(x, order)
	if c[0] <= 0 {
		return nil, fmt.Errorf("ar: zero-variance series")
	}
	a, sigma2, err := levinson(c, order)
	if err != nil {
		return nil, err
	}
	m := &Model{Coeffs: a, Sigma2: sigma2, Order: order, Mean: mean}
	m.AIC = aic(n, sigma2, order)
	return m, nil
}

// levinson solves the Toeplitz system of Yule-Walker equations,
// returning the AR coefficients and the innovation variance.
func levinson(c []float64, order int) ([]float64, float64, error) {
	a := make([]float64, order)
	prev := make([]float64, order)
	e := c[0]
	for k := 1; k <= order; k++ {
		acc := c[k]
		for j := 1; j < k; j++ {
			acc -= a[j-1] * c[k-j]
		}
		if e <= 0 {
			return nil, 0, fmt.Errorf("ar: Levinson recursion broke down at order %d", k)
		}
		kappa := acc / e
		copy(prev, a[:k-1])
		a[k-1] = kappa
		for j := 1; j < k; j++ {
			a[j-1] = prev[j-1] - kappa*prev[k-1-j]
		}
		e *= 1 - kappa*kappa
	}
	return a, e, nil
}

// Burg fits an AR(p) model with Burg's method, which estimates
// reflection coefficients by minimizing forward+backward prediction
// error; it is usually more accurate than Yule-Walker on short series.
func Burg(x []float64, order int) (*Model, error) {
	n := len(x)
	if order < 1 || order >= n {
		return nil, fmt.Errorf("ar: order %d out of range for n=%d", order, n)
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	f := make([]float64, n) // forward errors
	b := make([]float64, n) // backward errors
	e := 0.0
	for i, v := range x {
		f[i] = v - mean
		b[i] = v - mean
		e += (v - mean) * (v - mean)
	}
	e /= float64(n)
	if e == 0 {
		return nil, fmt.Errorf("ar: zero-variance series")
	}
	a := make([]float64, order)
	prev := make([]float64, order)
	for k := 1; k <= order; k++ {
		var num, den float64
		for i := k; i < n; i++ {
			num += f[i] * b[i-1]
			den += f[i]*f[i] + b[i-1]*b[i-1]
		}
		if den == 0 {
			return nil, fmt.Errorf("ar: Burg breakdown at order %d", k)
		}
		kappa := 2 * num / den
		copy(prev, a[:k-1])
		a[k-1] = kappa
		for j := 1; j < k; j++ {
			a[j-1] = prev[j-1] - kappa*prev[k-1-j]
		}
		for i := n - 1; i >= k; i-- {
			fi := f[i]
			f[i] = fi - kappa*b[i-1]
			b[i] = b[i-1] - kappa*fi
		}
		e *= 1 - kappa*kappa
	}
	m := &Model{Coeffs: a, Sigma2: e, Order: order, Mean: mean}
	m.AIC = aic(n, e, order)
	return m, nil
}

func aic(n int, sigma2 float64, order int) float64 {
	if sigma2 <= 0 {
		return math.Inf(-1)
	}
	return float64(n)*math.Log(sigma2) + 2*float64(order+1)
}

// FitAIC fits AR models of order 1..maxOrder with the given fitter
// ("yw" or "burg") and returns the model minimizing AIC. maxOrder <= 0
// picks the R default min(n−1, 10·log10(n)).
func FitAIC(x []float64, maxOrder int, method string) (*Model, error) {
	n := len(x)
	if n < 8 {
		return nil, fmt.Errorf("ar: series too short (%d)", n)
	}
	if maxOrder <= 0 {
		maxOrder = int(10 * math.Log10(float64(n)))
	}
	if maxOrder >= n {
		maxOrder = n - 1
	}
	var best *Model
	for p := 1; p <= maxOrder; p++ {
		var m *Model
		var err error
		if method == "burg" {
			m, err = Burg(x, p)
		} else {
			m, err = YuleWalker(x, p)
		}
		if err != nil {
			continue
		}
		if best == nil || m.AIC < best.AIC {
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("ar: no model could be fitted")
	}
	return best, nil
}

// SpectralDensity evaluates the AR model's power spectral density at
// nFreq equally spaced frequencies in (0, 1/2):
//
//	S(f) = σ² / |1 − Σ a_j e^{−i2πfj}|²
//
// It returns the frequencies and densities.
func (m *Model) SpectralDensity(nFreq int) (freqs, density []float64) {
	if nFreq < 1 {
		nFreq = 256
	}
	freqs = make([]float64, nFreq)
	density = make([]float64, nFreq)
	for i := 0; i < nFreq; i++ {
		f := (float64(i) + 0.5) / (2 * float64(nFreq)) // (0, 1/2)
		var re, im float64
		re = 1
		for j, a := range m.Coeffs {
			ang := 2 * math.Pi * f * float64(j+1)
			re -= a * math.Cos(ang)
			im += a * math.Sin(ang)
		}
		freqs[i] = f
		density[i] = m.Sigma2 / (re*re + im*im)
	}
	return freqs, density
}

// DominantPeriod returns the period 1/f* at the spectral density
// maximum, or 0 when the maximum sits at the lowest evaluated
// frequency (no finite periodicity — R's findfrequency applies the
// same guard).
func (m *Model) DominantPeriod(nFreq int) float64 {
	freqs, dens := m.SpectralDensity(nFreq)
	best := 0
	for i := range dens {
		if dens[i] > dens[best] {
			best = i
		}
	}
	if best == 0 {
		return 0
	}
	return 1 / freqs[best]
}
