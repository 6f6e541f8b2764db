package spectrum

import (
	"math"
	"math/rand"
	"testing"
)

func unevenSample(n int, period, noise float64, keep float64, seed int64) (ts, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Float64() > keep {
			continue
		}
		t := float64(i)
		ts = append(ts, t)
		y = append(y, math.Sin(2*math.Pi*t/period)+noise*rng.NormFloat64())
	}
	return ts, y
}

func TestLombScargleEvenSamplingMatchesPeriodogramPeak(t *testing.T) {
	n := 256
	period := 32.0
	ts := make([]float64, n)
	y := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		y[i] = math.Sin(2 * math.Pi * ts[i] / period)
	}
	freqs := make([]float64, 0, 100)
	for k := 1; k <= 100; k++ {
		freqs = append(freqs, float64(k)/512)
	}
	p, err := LombScargle(ts, y, freqs)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	if got := 1 / freqs[best]; math.Abs(got-period) > 1 {
		t.Errorf("L-S peak period %v, want %v", got, period)
	}
}

func TestLombScargleSurvivesMissingData(t *testing.T) {
	// 60% of samples randomly dropped — no interpolation, no bias.
	ts, y := unevenSample(1000, 50, 0.2, 0.4, 1)
	freqs := LombScargleFrequencyGrid(ts, 4)
	p, err := LombScargle(ts, y, freqs)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	period, power := 1/freqs[best], p[best]
	if math.Abs(period-50) > 2 {
		t.Errorf("period %v, want ~50", period)
	}
	if power < 20 {
		t.Errorf("peak power %v suspiciously low", power)
	}
}

func TestLombScargleWhiteNoiseCalibration(t *testing.T) {
	// Under the null each ordinate ~ Exp(1): the mean over many
	// ordinates should be near 1.
	rng := rand.New(rand.NewSource(2))
	ts := make([]float64, 400)
	y := make([]float64, 400)
	for i := range ts {
		ts[i] = float64(i) + 0.3*rng.Float64()
		y[i] = rng.NormFloat64()
	}
	freqs := LombScargleFrequencyGrid(ts, 1)
	p, err := LombScargle(ts, y, freqs)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	if mean < 0.5 || mean > 2 {
		t.Errorf("null ordinate mean %v, want ~1", mean)
	}
}

func TestLombScargleErrors(t *testing.T) {
	if _, err := LombScargle([]float64{1, 2}, []float64{1, 2, 3}, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := LombScargle([]float64{1}, []float64{1}, nil); err == nil {
		t.Error("tiny input should error")
	}
	// Constant series: all-zero spectrum, no error.
	ts := []float64{0, 1, 2, 3, 4}
	y := []float64{7, 7, 7, 7, 7}
	p, err := LombScargle(ts, y, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if v != 0 {
			t.Error("constant series should have zero power")
		}
	}
}

func TestLombScargleFrequencyGrid(t *testing.T) {
	ts := make([]float64, 100)
	for i := range ts {
		ts[i] = float64(i)
	}
	freqs := LombScargleFrequencyGrid(ts, 4)
	if len(freqs) == 0 {
		t.Fatal("empty grid")
	}
	if freqs[0] > 1.0/99*1.01 {
		t.Errorf("grid should start near 1/span, got %v", freqs[0])
	}
	if last := freqs[len(freqs)-1]; last > 0.5 {
		t.Errorf("grid exceeds pseudo-Nyquist: %v", last)
	}
	if LombScargleFrequencyGrid(ts[:2], 4) != nil {
		t.Error("degenerate input should give nil")
	}
	same := []float64{5, 5, 5, 5}
	if LombScargleFrequencyGrid(same, 4) != nil {
		t.Error("zero span should give nil")
	}
}

func BenchmarkLombScargle(b *testing.B) {
	ts, y := unevenSample(2000, 100, 0.3, 0.5, 3)
	freqs := LombScargleFrequencyGrid(ts, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LombScargle(ts, y, freqs); err != nil {
			b.Fatal(err)
		}
	}
}
