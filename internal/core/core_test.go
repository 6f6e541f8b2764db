package core

import (
	"math"
	"math/rand"
	"testing"

	"robustperiod/internal/wavelet"
)

// paperSynthetic reproduces the paper's Fig. 3a generator: three
// sinusoids (T = 20, 50, 100, amplitude 1), a triangle trend of
// amplitude 10, Gaussian noise of variance sigma2 and an outlier
// fraction eta of spikes.
func paperSynthetic(n int, periods []int, sigma2, eta float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for _, p := range periods {
		phase := rng.Float64() * 2 * math.Pi
		for i := range x {
			x[i] += math.Sin(2*math.Pi*float64(i)/float64(p) + phase)
		}
	}
	// Triangle trend, amplitude 10, one ramp over the series.
	for i := range x {
		frac := float64(i) / float64(n)
		tri := 1 - math.Abs(2*frac-1) // 0→1→0
		x[i] += 10 * tri
	}
	sd := math.Sqrt(sigma2)
	for i := range x {
		x[i] += sd * rng.NormFloat64()
	}
	for i := range x {
		if rng.Float64() < eta {
			x[i] += (rng.Float64()*2 - 1) * 10
		}
	}
	return x
}

func containsNear(periods []int, want int, tolFrac float64) bool {
	for _, p := range periods {
		if math.Abs(float64(p-want)) <= tolFrac*float64(want) {
			return true
		}
	}
	return false
}

func TestDetectSingleCleanPeriod(t *testing.T) {
	x := paperSynthetic(1000, []int{100}, 0.01, 0, 1)
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsNear(res.Periods, 100, 0.02) {
		t.Fatalf("periods = %v, want ~100", res.Periods)
	}
	if len(res.Periods) > 1 {
		t.Errorf("spurious periods: %v", res.Periods)
	}
}

func TestDetectThreePeriodsMild(t *testing.T) {
	// Paper's mild condition: σ²=0.1, η=0.01.
	found := [3]int{}
	trials := 5
	for tr := 0; tr < trials; tr++ {
		x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, int64(100+tr))
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{20, 50, 100} {
			if containsNear(res.Periods, want, 0.02) {
				found[i]++
			}
		}
	}
	for i, want := range []int{20, 50, 100} {
		if found[i] < trials-1 {
			t.Errorf("period %d found only %d/%d times", want, found[i], trials)
		}
	}
}

func TestDetectThreePeriodsSevere(t *testing.T) {
	// Severe condition: σ²=1, η=0.1. Expect most periods still found.
	hits, total := 0, 0
	for tr := 0; tr < 5; tr++ {
		x := paperSynthetic(1000, []int{20, 50, 100}, 1, 0.1, int64(200+tr))
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []int{20, 50, 100} {
			total++
			if containsNear(res.Periods, want, 0.02) {
				hits++
			}
		}
	}
	if float64(hits) < 0.7*float64(total) {
		t.Errorf("severe condition recall %d/%d too low", hits, total)
	}
}

func TestDetectWhiteNoiseNoPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	falsePeriods := 0
	for tr := 0; tr < 5; tr++ {
		x := make([]float64, 1000)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		falsePeriods += len(res.Periods)
	}
	if falsePeriods > 1 {
		t.Errorf("%d false periods on white noise", falsePeriods)
	}
}

func TestDetectTrendOnlyNoPeriods(t *testing.T) {
	x := make([]float64, 800)
	for i := range x {
		frac := float64(i) / 800
		x[i] = 20*frac*frac + 5*frac
	}
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) != 0 {
		t.Errorf("trend-only series produced periods %v", res.Periods)
	}
}

func TestDetectShortSeriesFallback(t *testing.T) {
	// 20 points with period 5: too short for Daub8 MODWT (L=8 → level
	// 1 needs 8), so the Haar filter or fallback path must kick in.
	x := make([]float64, 20)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 5)
	}
	res, err := Detect(x, Options{Wavelet: wavelet.Daub20})
	if err != nil {
		t.Fatal(err)
	}
	// Daub20 (L=40) cannot do level 1 on 20 points → fallback single
	// detection must still find the period.
	if !containsNear(res.Periods, 5, 0.1) {
		t.Errorf("fallback path missed period 5: %v", res.Periods)
	}
}

func TestDetectTooShortErrors(t *testing.T) {
	if _, err := Detect(make([]float64, 10), Options{}); err == nil {
		t.Error("expected error")
	}
}

func TestDetectRejectsNonFinite(t *testing.T) {
	x := paperSynthetic(100, []int{20}, 0.1, 0, 1)
	x[50] = math.NaN()
	if _, err := Detect(x, Options{}); err == nil {
		t.Error("NaN input should error")
	}
	x[50] = math.Inf(1)
	if _, err := Detect(x, Options{}); err == nil {
		t.Error("Inf input should error")
	}
}

func TestDetectBadWaveletErrors(t *testing.T) {
	if _, err := Detect(make([]float64, 100), Options{Wavelet: wavelet.Kind(7)}); err == nil {
		t.Error("expected error for unsupported wavelet")
	}
}

func TestDetectNonRobustAblationDegrades(t *testing.T) {
	// Under severe outliers the non-robust variant should find fewer
	// true periods (aggregate over trials to avoid flakiness).
	robustHits, plainHits := 0, 0
	for tr := 0; tr < 6; tr++ {
		x := paperSynthetic(1000, []int{20, 50, 100}, 2, 0.2, int64(400+tr))
		r1, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Detect(x, Options{NonRobust: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []int{20, 50, 100} {
			if containsNear(r1.Periods, want, 0.02) {
				robustHits++
			}
			if containsNear(r2.Periods, want, 0.02) {
				plainHits++
			}
		}
	}
	if robustHits < plainHits {
		t.Errorf("robust hits %d < non-robust hits %d", robustHits, plainHits)
	}
	if robustHits == 0 {
		t.Error("robust variant found nothing under severe conditions")
	}
}

func TestDetectLevelDiagnostics(t *testing.T) {
	x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, 7)
	res, err := Detect(x, Options{EnergyShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 5 {
		t.Fatalf("only %d levels", len(res.Levels))
	}
	// Every level must be selected with EnergyShare=1 and numbered
	// correctly.
	for i, lv := range res.Levels {
		if lv.Level != i+1 {
			t.Errorf("level numbering broken at %d", i)
		}
		if !lv.Selected {
			t.Errorf("level %d not selected despite EnergyShare=1", lv.Level)
		}
	}
	// Levels 4, 5, 6 isolate T=20, 50, 100 (paper Fig. 5): their
	// wavelet variances should dominate.
	varSum := func(levels ...int) float64 {
		s := 0.0
		for _, j := range levels {
			s += res.Levels[j-1].Variance.Variance
		}
		return s
	}
	if varSum(4, 5, 6) < varSum(1, 2, 3) {
		t.Errorf("periodic levels do not dominate: %v vs %v", varSum(4, 5, 6), varSum(1, 2, 3))
	}
	if res.Preprocessed == nil || res.Trend == nil {
		t.Error("diagnostics missing")
	}
}

func TestDetectEnergyShareLimitsWork(t *testing.T) {
	x := paperSynthetic(1000, []int{50}, 0.1, 0.01, 8)
	res, err := Detect(x, Options{EnergyShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sel := 0
	for _, lv := range res.Levels {
		if lv.Selected {
			sel++
		}
	}
	if sel == 0 || sel == len(res.Levels) {
		t.Errorf("selection not pruning: %d of %d", sel, len(res.Levels))
	}
	if !containsNear(res.Periods, 50, 0.02) {
		t.Errorf("pruned detection missed the period: %v", res.Periods)
	}
}

func TestPassband(t *testing.T) {
	n := 1000
	// Level 1: periods [2,4] → k in [500, 1000] capped at n−1.
	kLo, kHi := Passband(n, 1)
	if kLo != 500 || kHi != 999 {
		t.Errorf("level 1: [%d,%d]", kLo, kHi)
	}
	// Level 5: periods [32,64] → k in [2000/64, 2000/32] = [31, 62].
	kLo, kHi = Passband(n, 5)
	if kLo != 31 || kHi != 62 {
		t.Errorf("level 5: [%d,%d]", kLo, kHi)
	}
	// Very deep level: clamps at 1.
	kLo, kHi = Passband(n, 20)
	if kLo != 1 || kHi < kLo {
		t.Errorf("deep level: [%d,%d]", kLo, kHi)
	}
}

func TestSamePeriod(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{100, 100, true},
		{100, 101, true},
		{100, 103, true},
		{100, 104, false},
		{20, 21, true},
		{20, 23, false},
		{720, 721, true},
		{720, 740, true},
		{720, 800, false},
	}
	for _, c := range cases {
		if got := samePeriod(c.a, c.b); got != c.want {
			t.Errorf("samePeriod(%d,%d) = %v", c.a, c.b, got)
		}
	}
}

func TestDetectSkipPreprocess(t *testing.T) {
	// Pre-normalized data detected without the HP/winsorize stage.
	x := paperSynthetic(1000, []int{50}, 0.05, 0, 9)
	// Remove the trend manually so SkipPreprocess sees stationary data.
	for i := range x {
		frac := float64(i) / 1000
		x[i] -= 10 * (1 - math.Abs(2*frac-1))
	}
	res, err := Detect(x, Options{SkipPreprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trend != nil {
		t.Error("trend should be nil when preprocessing is skipped")
	}
	if !containsNear(res.Periods, 50, 0.02) {
		t.Errorf("periods = %v", res.Periods)
	}
}

func BenchmarkDetectN1000(b *testing.B) {
	x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(x, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectN2000(b *testing.B) {
	x := paperSynthetic(2000, []int{20, 50, 100}, 0.1, 0.01, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(x, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
