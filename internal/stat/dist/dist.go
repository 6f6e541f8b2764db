// Package dist provides the probability distributions and significance
// tests RobustPeriod relies on: the normal CDF, the exact null
// distribution of Fisher's g-statistic for periodogram ordinates, and
// the Siegel multi-period threshold derived from it.
package dist

import (
	"math"
	"sort"
)

// NormalCDF returns P(Z <= x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// LogChoose returns ln C(n, k) via lgamma.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// FisherGPValue returns the exact null tail probability P(g >= g0) of
// Fisher's g-statistic computed over n periodogram ordinates:
//
//	P(g >= g0) = Σ_{k=1}^{⌊1/g0⌋∧n} (−1)^{k−1} C(n,k) (1 − k·g0)^{n−1}
//
// evaluated in log space term by term. The result is clamped to [0, 1].
// g0 outside (0, 1] returns 1 (any g is at least 1/n under the null).
func FisherGPValue(g0 float64, n int) float64 {
	if n <= 1 || g0 <= 0 {
		return 1
	}
	if g0 >= 1 {
		// g can equal 1 only in degenerate cases; tail mass is the
		// single k=1 term at the boundary, which is 0.
		return 0
	}
	kMax := int(1 / g0)
	if kMax > n {
		kMax = n
	}
	sum := 0.0
	comp := 0.0 // Kahan compensation
	for k := 1; k <= kMax; k++ {
		base := 1 - float64(k)*g0
		if base <= 0 {
			break
		}
		logTerm := LogChoose(n, k) + float64(n-1)*math.Log(base)
		term := math.Exp(logTerm)
		if k%2 == 0 {
			term = -term
		}
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
		// Terms decay geometrically once C(n,k) growth is beaten by the
		// (1−k·g0)^{n−1} decay; stop when negligible.
		if math.Abs(term) < 1e-18 && k > 2 {
			break
		}
	}
	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// FisherGCritical returns the critical value g_α with
// P(g >= g_α) = alpha under the null, found by bisection. It is used
// both for Fisher's test and as the base of the Siegel threshold.
func FisherGCritical(alpha float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	lo, hi := 1/float64(n), 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if FisherGPValue(mid, n) > alpha {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return (lo + hi) / 2
}

// KSStatisticNormal returns the Kolmogorov–Smirnov statistic of x
// against a normal distribution with the given mean and standard
// deviation: D = sup |F̂(x) − Φ((x−μ)/σ)|. x is not modified.
func KSStatisticNormal(x []float64, mean, sd float64) float64 {
	n := len(x)
	if n == 0 || sd <= 0 {
		return 1
	}
	buf := append([]float64(nil), x...)
	sort.Float64s(buf)
	d := 0.0
	for i, v := range buf {
		cdf := NormalCDF((v - mean) / sd)
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		if diff := math.Abs(cdf - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(cdf - hi); diff > d {
			d = diff
		}
	}
	return d
}

// SiegelThreshold returns the per-ordinate threshold t = λ·g_α used by
// Siegel's compound periodicity test (Siegel 1980, Walden 1992):
// every normalized ordinate p̃_k = P_k/ΣP exceeding t is declared a
// periodic component. λ=0.6 is Siegel's recommended value for multiple
// periodicities.
func SiegelThreshold(alpha, lambda float64, n int) float64 {
	return lambda * FisherGCritical(alpha, n)
}
