package ar

import (
	"math"
	"math/rand"
	"testing"
)

// simulateAR generates x_t = Σ a_i x_{t-i} + σ·ε_t.
func simulateAR(coeffs []float64, sigma float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := len(coeffs)
	x := make([]float64, n+200)
	for t := p; t < len(x); t++ {
		v := sigma * rng.NormFloat64()
		for i, a := range coeffs {
			v += a * x[t-1-i]
		}
		x[t] = v
	}
	return x[200:]
}

func TestYuleWalkerRecoversAR1(t *testing.T) {
	x := simulateAR([]float64{0.7}, 1, 20000, 1)
	m, err := YuleWalker(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-0.7) > 0.03 {
		t.Errorf("a1 = %v, want ~0.7", m.Coeffs[0])
	}
	if math.Abs(m.Sigma2-1) > 0.1 {
		t.Errorf("sigma2 = %v, want ~1", m.Sigma2)
	}
}

func TestYuleWalkerRecoversAR2(t *testing.T) {
	want := []float64{1.2, -0.5}
	x := simulateAR(want, 1, 30000, 2)
	m, err := YuleWalker(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(m.Coeffs[i]-want[i]) > 0.05 {
			t.Errorf("a%d = %v, want %v", i+1, m.Coeffs[i], want[i])
		}
	}
}

func TestBurgRecoversAR2(t *testing.T) {
	want := []float64{1.2, -0.5}
	x := simulateAR(want, 1, 5000, 3)
	m, err := Burg(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(m.Coeffs[i]-want[i]) > 0.05 {
			t.Errorf("a%d = %v, want %v", i+1, m.Coeffs[i], want[i])
		}
	}
}

func TestBurgBetterThanYWOnShortSeries(t *testing.T) {
	// Aggregate estimation error over many short series; Burg should
	// be at least as good on average.
	var errYW, errBurg float64
	want := []float64{0.9}
	for seed := int64(0); seed < 40; seed++ {
		x := simulateAR(want, 1, 60, 100+seed)
		if m, err := YuleWalker(x, 1); err == nil {
			errYW += math.Abs(m.Coeffs[0] - 0.9)
		}
		if m, err := Burg(x, 1); err == nil {
			errBurg += math.Abs(m.Coeffs[0] - 0.9)
		}
	}
	if errBurg > errYW*1.1 {
		t.Errorf("Burg error %v much worse than YW %v", errBurg, errYW)
	}
}

func TestFitAICSelectsReasonableOrder(t *testing.T) {
	x := simulateAR([]float64{1.2, -0.5}, 1, 4000, 4)
	m, err := FitAIC(x, 12, "yw")
	if err != nil {
		t.Fatal(err)
	}
	if m.Order < 2 || m.Order > 6 {
		t.Errorf("selected order %d, want near 2", m.Order)
	}
	mb, err := FitAIC(x, 12, "burg")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Order < 2 || mb.Order > 6 {
		t.Errorf("burg selected order %d", mb.Order)
	}
}

func TestErrors(t *testing.T) {
	if _, err := YuleWalker([]float64{1, 2, 3}, 5); err == nil {
		t.Error("order >= n should error")
	}
	if _, err := YuleWalker(make([]float64, 50), 2); err == nil {
		t.Error("constant series should error")
	}
	if _, err := Burg(make([]float64, 50), 2); err == nil {
		t.Error("constant series should error (burg)")
	}
	if _, err := FitAIC([]float64{1, 2}, 3, "yw"); err == nil {
		t.Error("tiny series should error")
	}
}

func TestSpectralDensityPeakAtARResonance(t *testing.T) {
	// AR(2) with complex roots at frequency f0: a1 = 2r·cos(2πf0),
	// a2 = −r². Pick f0 = 0.1 (period 10), r = 0.95.
	f0 := 0.1
	r := 0.95
	coeffs := []float64{2 * r * math.Cos(2*math.Pi*f0), -r * r}
	x := simulateAR(coeffs, 1, 8000, 5)
	m, err := YuleWalker(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := m.DominantPeriod(2048)
	if math.Abs(p-10) > 0.5 {
		t.Errorf("dominant period %v, want ~10", p)
	}
}

func TestDominantPeriodGuardOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	zeroCount := 0
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, 500)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		m, err := FitAIC(x, 10, "yw")
		if err != nil {
			t.Fatal(err)
		}
		p := m.DominantPeriod(1024)
		if p == 0 || p > 250 {
			zeroCount++
		}
	}
	// White noise should usually trip the low-frequency guard or give
	// an implausibly long period; either way no confident period.
	if zeroCount < 3 {
		t.Logf("white-noise guard fired only %d/10 times (acceptable but noting)", zeroCount)
	}
}

func TestSpectralDensityPositive(t *testing.T) {
	x := simulateAR([]float64{0.5}, 1, 1000, 7)
	m, _ := YuleWalker(x, 1)
	_, dens := m.SpectralDensity(512)
	for i, d := range dens {
		if d <= 0 || math.IsNaN(d) {
			t.Fatalf("density[%d] = %v", i, d)
		}
	}
	// AR(1) with positive coefficient: monotone decreasing density.
	for i := 1; i < len(dens); i++ {
		if dens[i] > dens[i-1]+1e-12 {
			t.Fatalf("AR(1) density not decreasing at %d", i)
		}
	}
}

func BenchmarkFitAIC(b *testing.B) {
	x := simulateAR([]float64{1.2, -0.5}, 1, 2000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitAIC(x, 20, "yw"); err != nil {
			b.Fatal(err)
		}
	}
}
