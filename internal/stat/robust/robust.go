// Package robust provides robust location and scale estimators used
// throughout RobustPeriod: medians via quickselect, the median absolute
// deviation, the biweight midvariance, and the Huber loss family.
//
// All estimators operate on float64 slices and never mutate their input
// unless the function name says so (the ...InPlace variants).
package robust

import (
	"errors"
	"math"
)

// ErrEmpty is returned (or causes a panic in Must* helpers) when an
// estimator is asked to summarize an empty sample.
var ErrEmpty = errors.New("robust: empty sample")

// Median returns the sample median of x without mutating it.
// For even-length samples it returns the mean of the two middle order
// statistics. It panics on an empty slice.
func Median(x []float64) float64 {
	if len(x) == 0 {
		panic(ErrEmpty)
	}
	buf := make([]float64, len(x))
	copy(buf, x)
	return MedianInPlace(buf)
}

// MedianInPlace returns the median of x, reordering x as a side effect.
// It runs in expected O(n) time using quickselect.
func MedianInPlace(x []float64) float64 {
	n := len(x)
	if n == 0 {
		panic(ErrEmpty)
	}
	if n%2 == 1 {
		return SelectInPlace(x, n/2)
	}
	hi := SelectInPlace(x, n/2)
	// After selecting the n/2-th order statistic, the lower partition
	// holds all elements <= hi; its maximum is the (n/2-1)-th statistic.
	lo := math.Inf(-1)
	for _, v := range x[:n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// SelectInPlace returns the k-th smallest element (0-indexed) of x,
// partially reordering x. It uses median-of-three quickselect with a
// small-array insertion sort cutoff, giving expected O(n) time.
func SelectInPlace(x []float64, k int) float64 {
	if k < 0 || k >= len(x) {
		panic("robust: select index out of range")
	}
	lo, hi := 0, len(x)-1
	for {
		if hi-lo < 12 {
			insertionSort(x[lo : hi+1])
			return x[k]
		}
		p := partition(x, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return x[p]
		}
	}
}

func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// partition uses a median-of-three pivot and returns the final pivot
// index after Hoare-style partitioning around it.
func partition(x []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if x[mid] < x[lo] {
		x[mid], x[lo] = x[lo], x[mid]
	}
	if x[hi] < x[lo] {
		x[hi], x[lo] = x[lo], x[hi]
	}
	if x[hi] < x[mid] {
		x[hi], x[mid] = x[mid], x[hi]
	}
	pivot := x[mid]
	x[mid], x[hi-1] = x[hi-1], x[mid]
	i, j := lo, hi-1
	for {
		for i++; x[i] < pivot; i++ {
		}
		for j--; x[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		x[i], x[j] = x[j], x[i]
	}
	x[i], x[hi-1] = x[hi-1], x[i]
	return i
}

// MAD returns the median absolute deviation of x about its median,
// without the Gaussian consistency constant. Use MADN for the
// normal-consistent version.
func MAD(x []float64) float64 {
	_, mad := MedianAndMAD(x)
	return mad
}

// MADConsistency is the constant that makes MAD a consistent estimator
// of the standard deviation under a normal model (1/Φ⁻¹(3/4)).
const MADConsistency = 1.4826022185056018

// MADN returns the normal-consistent MAD: MAD(x) * 1.4826....
func MADN(x []float64) float64 { return MAD(x) * MADConsistency }

// MedianAndMAD returns both the median and the (raw) MAD in one pass
// over the sorted copies, which is cheaper than calling Median and MAD
// separately.
func MedianAndMAD(x []float64) (med, mad float64) {
	if len(x) == 0 {
		panic(ErrEmpty)
	}
	buf := make([]float64, len(x))
	copy(buf, x)
	med = MedianInPlace(buf)
	for i, v := range x {
		buf[i] = math.Abs(v - med)
	}
	return med, MedianInPlace(buf)
}

// Mean returns the arithmetic mean of x. It panics on empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		panic(ErrEmpty)
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (n-1 denominator).
// It returns 0 for samples of size < 2.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// BiweightMidvariance returns Tukey's biweight midvariance of x, a
// robust and efficient scale estimator (Wilcox 2017). Points further
// than nine (raw) MADs from the median receive zero weight. When the
// MAD is zero (over half the sample is identical) it falls back to the
// classical variance of the non-identical part, or 0.
//
// This is the estimator RobustPeriod uses for the per-level wavelet
// variance (Eq. 4 of the paper), where it is additionally scaled by the
// number of non-boundary coefficients; see wavelet.RobustVariance.
func BiweightMidvariance(x []float64) float64 {
	n := len(x)
	if n == 0 {
		panic(ErrEmpty)
	}
	med, mad := MedianAndMAD(x)
	if mad == 0 {
		return Variance(x)
	}
	num, den := 0.0, 0.0
	for _, v := range x {
		u := (v - med) / (9 * mad)
		if math.Abs(u) >= 1 {
			continue
		}
		u2 := u * u
		w := 1 - u2
		d := v - med
		num += d * d * w * w * w * w
		den += w * (1 - 5*u2)
	}
	if den == 0 {
		return 0
	}
	return float64(n) * num / (den * den)
}

// HuberLoss evaluates the Huber loss γ_ζ at r: quadratic inside [-ζ, ζ]
// and linear outside (Eq. 7 of the paper).
func HuberLoss(r, zeta float64) float64 {
	a := math.Abs(r)
	if a <= zeta {
		return 0.5 * r * r
	}
	return zeta*a - 0.5*zeta*zeta
}

// HuberWeight is the IRLS weight ψ(r)/r for the Huber loss, with
// weight 1 at r = 0.
func HuberWeight(r, zeta float64) float64 {
	a := math.Abs(r)
	if a <= zeta {
		return 1
	}
	return zeta / a
}

// Clip returns sign(x)·min(|x|, c): the Ψ function the paper uses for
// coarse outlier removal after normalization (§3.2).
func Clip(x, c float64) float64 {
	if x > c {
		return c
	}
	if x < -c {
		return -c
	}
	return x
}

// Winsorize returns a copy of x with every value standardized by the
// median/MADN and clipped to [-c, c] — the preprocessing transform
// y' = Ψ((y−μ)/s) from §3.2 of the paper. If the MADN is zero the
// series is centred only (scale left at 1) so constant series survive.
func Winsorize(x []float64, c float64) []float64 {
	med, mad := MedianAndMAD(x)
	s := mad * MADConsistency
	if s == 0 {
		s = 1
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = Clip((v-med)/s, c)
	}
	return out
}
