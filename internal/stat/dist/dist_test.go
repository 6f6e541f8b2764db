package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !close(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogChoose(t *testing.T) {
	if got := LogChoose(10, 3); !close(got, math.Log(120), 1e-10) {
		t.Errorf("LogChoose(10,3) = %v", got)
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("out-of-range k should be -Inf")
	}
	if got := LogChoose(1000, 500); !close(got, 689.467261567851, 1e-6) {
		t.Errorf("LogChoose(1000,500) = %v", got)
	}
}

func TestFisherGPValueBounds(t *testing.T) {
	for _, n := range []int{5, 50, 500} {
		for _, g := range []float64{0.001, 0.01, 0.05, 0.1, 0.3, 0.7, 0.99} {
			p := FisherGPValue(g, n)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Errorf("p-value out of range: g=%v n=%d p=%v", g, n, p)
			}
		}
	}
	if FisherGPValue(0.5, 1) != 1 {
		t.Error("n=1 should return 1")
	}
	if FisherGPValue(0, 100) != 1 {
		t.Error("g0=0 should return 1")
	}
	if FisherGPValue(1.2, 100) != 0 {
		t.Error("g0>=1 should return 0")
	}
}

func TestFisherGPValueMonotoneInG(t *testing.T) {
	n := 100
	prev := 1.1
	for g := 0.02; g < 0.9; g += 0.005 {
		p := FisherGPValue(g, n)
		if p > prev+1e-12 {
			t.Fatalf("p-value not non-increasing at g=%v: %v > %v", g, p, prev)
		}
		prev = p
	}
}

func TestFisherGPValueSmallNExact(t *testing.T) {
	// For n=2: P(g>=g0) = 2(1-g0) for g0 in [1/2, 1].
	for _, g0 := range []float64{0.5, 0.6, 0.8, 0.95} {
		want := 2 * (1 - g0)
		if got := FisherGPValue(g0, 2); !close(got, want, 1e-12) {
			t.Errorf("n=2 g0=%v: got %v want %v", g0, got, want)
		}
	}
	// For n=3, g0 >= 1/2: P = 3(1-g0)^2.
	for _, g0 := range []float64{0.5, 0.7, 0.9} {
		want := 3 * (1 - g0) * (1 - g0)
		if got := FisherGPValue(g0, 3); !close(got, want, 1e-12) {
			t.Errorf("n=3 g0=%v: got %v want %v", g0, got, want)
		}
	}
}

func TestFisherGPValueMatchesMonteCarlo(t *testing.T) {
	// Under the null (white Gaussian noise) the exact formula should
	// match the empirical distribution of g.
	rng := rand.New(rand.NewSource(42))
	n := 30
	trials := 4000
	gs := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		// Exponential ordinates are the exact null for periodogram bins.
		sum, max := 0.0, 0.0
		for i := 0; i < n; i++ {
			e := rng.ExpFloat64()
			sum += e
			if e > max {
				max = e
			}
		}
		gs[tr] = max / sum
	}
	sort.Float64s(gs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		g0 := gs[int(q*float64(trials))]
		want := 1 - q
		got := FisherGPValue(g0, n)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("quantile %v: empirical tail %v, formula %v", q, want, got)
		}
	}
}

func TestFisherGCritical(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		for _, alpha := range []float64{0.05, 0.01, 0.001} {
			g := FisherGCritical(alpha, n)
			if p := FisherGPValue(g, n); !close(p, alpha, alpha*0.02+1e-9) {
				t.Errorf("n=%d alpha=%v: P(g>=crit)=%v", n, alpha, p)
			}
			if g <= 1/float64(n) || g >= 1 {
				t.Errorf("critical value out of range: %v", g)
			}
		}
	}
	// Larger n -> smaller critical value at fixed alpha.
	if FisherGCritical(0.05, 1000) >= FisherGCritical(0.05, 100) {
		t.Error("critical value should shrink with n")
	}
}

func TestKSStatisticNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// Gaussian sample: small D, non-significant p.
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 3 + 2*rng.NormFloat64()
	}
	d := KSStatisticNormal(x, 3, 2)
	if d > 0.05 {
		t.Errorf("Gaussian D = %v, want small", d)
	}
	// Heavy-tailed sample against normal: large D, significant p.
	y := make([]float64, 2000)
	for i := range y {
		y[i] = rng.NormFloat64() / (0.1 + math.Abs(rng.NormFloat64())) // Cauchy-ish
	}
	var mean, sd float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(y)))
	dy := KSStatisticNormal(y, mean, sd)
	if dy < 0.08 {
		t.Errorf("heavy-tailed D = %v, want large", dy)
	}
	// Degenerate inputs.
	if KSStatisticNormal(nil, 0, 1) != 1 || KSStatisticNormal(x, 0, 0) != 1 {
		t.Error("degenerate KS should return 1")
	}
}

func TestSiegelThreshold(t *testing.T) {
	th := SiegelThreshold(0.05, 0.6, 200)
	if !close(th, 0.6*FisherGCritical(0.05, 200), 1e-15) {
		t.Error("Siegel threshold should be lambda * Fisher critical")
	}
	if th <= 0 || th >= 1 {
		t.Errorf("threshold out of range: %v", th)
	}
}

func BenchmarkFisherGPValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FisherGPValue(0.01, 1000)
	}
}

func BenchmarkFisherGCritical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FisherGCritical(0.01, 1000)
	}
}
