package spectrum

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"robustperiod/internal/dsp/fft"
)

func sinusoid(n int, period float64, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Sin(2*math.Pi*float64(i)/period)
	}
	return x
}

func addNoise(x []float64, sigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := append([]float64(nil), x...)
	for i := range out {
		out[i] += sigma * rng.NormFloat64()
	}
	return out
}

func addSpikes(x []float64, count int, mag float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := append([]float64(nil), x...)
	for i := 0; i < count; i++ {
		out[rng.Intn(len(out))] += mag
	}
	return out
}

func TestPeriodogramHalfRange(t *testing.T) {
	x := addNoise(sinusoid(128, 16, 1), 0.1, 1)
	half := Periodogram(x)
	full := fft.Periodogram(x)
	if len(half) != 65 {
		t.Fatalf("half length %d", len(half))
	}
	for k := range half {
		if half[k] != full[k] {
			t.Fatalf("half[%d] disagrees", k)
		}
	}
}

func TestMPeriodogramL2MatchesClassical(t *testing.T) {
	x := addNoise(sinusoid(200, 20, 2), 0.3, 2)
	p := Periodogram(x)
	m, err := MPeriodogram(x, 1, 99, Options{Loss: LossL2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 99; k++ {
		if math.Abs(m[k-1]-p[k]) > 1e-8*(p[k]+1) {
			t.Fatalf("k=%d: L2 M-periodogram %v vs classical %v", k, m[k-1], p[k])
		}
	}
}

func TestMPeriodogramHuberCleanDataMatchesClassical(t *testing.T) {
	// Without outliers, residuals stay in the quadratic zone at the
	// peak frequency, so Huber ≈ L2 where it matters.
	x := sinusoid(256, 32, 1)
	p := Periodogram(x)
	m, err := MPeriodogram(x, 8, 8, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0]-p[8]) > 0.05*p[8] {
		t.Errorf("clean peak: huber %v vs classical %v", m[0], p[8])
	}
}

func TestMPeriodogramHuberResistsOutliers(t *testing.T) {
	n := 400
	clean := sinusoid(n, 40, 1) // peak at k = 10
	dirty := addSpikes(clean, 20, 15, 3)
	pClean := Periodogram(clean)
	pDirty := Periodogram(dirty)
	mDirty, err := MPeriodogram(dirty, 1, 199, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	// Huber estimate of the peak should be much closer to the clean
	// value than the contaminated classical ordinate off-peak noise.
	peakErrHuber := math.Abs(mDirty[9] - pClean[10])
	peakErrVanilla := math.Abs(pDirty[10] - pClean[10])
	if peakErrHuber > peakErrVanilla {
		t.Errorf("huber peak error %v not better than vanilla %v", peakErrHuber, peakErrVanilla)
	}
	// And the argmax of the Huber spectrum must still be k=10.
	best := 0
	for i := range mDirty {
		if mDirty[i] > mDirty[best] {
			best = i
		}
	}
	if best+1 != 10 {
		t.Errorf("huber argmax k=%d, want 10", best+1)
	}
	// Off-peak contamination: total spurious energy should shrink.
	var offHuber, offVanilla float64
	for k := 1; k <= 199; k++ {
		if k >= 8 && k <= 12 {
			continue
		}
		offHuber += mDirty[k-1]
		offVanilla += pDirty[k]
	}
	if offHuber > offVanilla {
		t.Errorf("huber off-peak energy %v exceeds vanilla %v", offHuber, offVanilla)
	}
}

func TestMPeriodogramADMMAgreesWithIRLS(t *testing.T) {
	x := addSpikes(addNoise(sinusoid(240, 24, 1), 0.2, 4), 10, 8, 5)
	irls, err := MPeriodogram(x, 5, 30, Options{Loss: LossHuber, Solver: SolverIRLS})
	if err != nil {
		t.Fatal(err)
	}
	admm, err := MPeriodogram(x, 5, 30, Options{Loss: LossHuber, Solver: SolverADMM, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := range irls {
		denom := math.Max(irls[i], 1e-3)
		if math.Abs(irls[i]-admm[i])/denom > 0.05 {
			t.Errorf("k=%d: IRLS %v vs ADMM %v", i+5, irls[i], admm[i])
		}
	}
}

func TestMPeriodogramLADRuns(t *testing.T) {
	x := addSpikes(sinusoid(200, 25, 1), 10, 10, 6)
	m, err := MPeriodogram(x, 1, 99, Options{Loss: LossLAD})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range m {
		if m[i] > m[best] {
			best = i
		}
	}
	if best+1 != 8 {
		t.Errorf("LAD argmax k=%d, want 8 (period 25 of N=200)", best+1)
	}
}

func TestMPeriodogramErrors(t *testing.T) {
	x := sinusoid(64, 8, 1)
	if _, err := MPeriodogram(x, 0, 5, Options{}); err == nil {
		t.Error("kLo=0 should error")
	}
	if _, err := MPeriodogram(x, 5, 4, Options{}); err == nil {
		t.Error("kHi<kLo should error")
	}
	if _, err := MPeriodogram(x, 1, 32, Options{}); err == nil {
		t.Error("kHi at Nyquist should error")
	}
	if _, err := MPeriodogram([]float64{1, 2}, 1, 1, Options{}); err == nil {
		t.Error("tiny series should error")
	}
}

func TestHybridPeriodogramPatchesBand(t *testing.T) {
	x := addSpikes(sinusoid(256, 32, 1), 8, 10, 7)
	base := Periodogram(x)
	hyb, err := HybridPeriodogram(x, 10, 20, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyb) != len(base) {
		t.Fatal("length mismatch")
	}
	for k := range base {
		inBand := k >= 10 && k <= 20
		same := hyb[k] == base[k]
		if inBand && same && base[k] > 1e-9 {
			t.Errorf("k=%d inside band unchanged", k)
		}
		if !inBand && !same {
			t.Errorf("k=%d outside band modified", k)
		}
	}
	// Degenerate band collapses to classical.
	hyb2, err := HybridPeriodogram(x, 50, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range base {
		if hyb2[k] != base[k] {
			t.Fatal("empty band should return classical periodogram")
		}
	}
}

func TestFullRangeMirror(t *testing.T) {
	x := addNoise(sinusoid(64, 8, 1), 0.2, 8)
	padded := make([]float64, 128)
	copy(padded, x)
	half := Periodogram(padded)
	full := FullRange(half)
	want := fft.Periodogram(padded)
	if len(full) != 128 {
		t.Fatalf("full length %d", len(full))
	}
	for k := range want {
		if math.Abs(full[k]-want[k]) > 1e-9 {
			t.Fatalf("k=%d: mirrored %v vs direct %v", k, full[k], want[k])
		}
	}
}

func TestACFFromPeriodogramMatchesDirect(t *testing.T) {
	x := addNoise(sinusoid(100, 20, 1), 0.1, 9)
	// Zero-mean the series the way the pipeline does (winsorized data
	// is already centred); DirectACF centres internally, so centre here.
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
	padded := make([]float64, 200)
	copy(padded, x)
	full := fft.Periodogram(padded)
	acf, err := ACFFromPeriodogram(full, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := DirectACF(x)
	if math.Abs(acf[0]-1) > 1e-9 {
		t.Errorf("acf[0] = %v", acf[0])
	}
	for lag := 0; lag < 90; lag++ { // long lags amplify tiny differences
		if math.Abs(acf[lag]-want[lag]) > 1e-6 {
			t.Fatalf("lag %d: WK %v vs direct %v", lag, acf[lag], want[lag])
		}
	}
}

// TestACFFromPeriodogramWarmAllocs pins the Wiener–Khinchin ACF to its
// output; the half spectrum comes from the plan's pool, which the
// race detector empties at random, hence the slack of one. At a
// Bluestein half (1000) and a power-of-two half (1024).
func TestACFFromPeriodogramWarmAllocs(t *testing.T) {
	for _, n := range []int{1000, 1024} {
		padded := make([]float64, 2*n)
		copy(padded, addNoise(sinusoid(n, 20, 1), 0.1, 9))
		full := fft.Periodogram(padded)
		acf := func() {
			if _, err := ACFFromPeriodogram(full, n); err != nil {
				t.Fatal(err)
			}
		}
		acf()
		if allocs := testing.AllocsPerRun(100, acf); allocs > 2 {
			t.Errorf("n=%d: warm ACFFromPeriodogram allocated %.0f objects per run, want at most 2", n, allocs)
		}
	}
}

// TestACFFromPeriodogramWarmBytes pins the bytes of a warm
// Wiener–Khinchin ACF to its own n lags (plus allocator rounding): the
// half spectrum is taken in a pooled buffer.
func TestACFFromPeriodogramWarmBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	for _, n := range []int{1000, 1024} {
		padded := make([]float64, 2*n)
		copy(padded, addNoise(sinusoid(n, 20, 1), 0.1, 9))
		full := fft.Periodogram(padded)
		if _, err := ACFFromPeriodogram(full, n); err != nil {
			t.Fatal(err)
		}
		const runs = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			ACFFromPeriodogram(full, n) //nolint:errcheck // checked above
		}
		runtime.ReadMemStats(&m1)
		perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
		if limit := uint64(8*n + 2048); perRun > limit {
			t.Errorf("n=%d: warm ACFFromPeriodogram allocated %d bytes per run, want at most %d", n, perRun, limit)
		}
	}
}

// TestHybridPeriodogramHoldsHalfOnly: the half-range periodogram that a
// detection keeps (detect.Result.Periodogram) holds its ⌊N/2⌋+1
// ordinates and no mirrored half behind them.
func TestHybridPeriodogramHoldsHalfOnly(t *testing.T) {
	for _, n := range []int{500, 512} {
		padded := make([]float64, 2*n)
		copy(padded, addNoise(sinusoid(n, 20, 1), 0.1, 9))
		half, err := HybridPeriodogram(padded, 10, 120, Options{Loss: LossHuber, FitLength: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(half) != n+1 || cap(half) != n+1 {
			t.Errorf("n=%d: periodogram len %d cap %d, want %d", n, len(half), cap(half), n+1)
		}
	}
}

func TestACFFromPeriodogramLengthError(t *testing.T) {
	if _, err := ACFFromPeriodogram(make([]float64, 10), 10); err == nil {
		t.Error("short periodogram should error")
	}
}

func TestHuberACFRobustness(t *testing.T) {
	n := 300
	clean := sinusoid(n, 30, 1)
	dirty := addSpikes(clean, 15, 12, 10)
	cleanACF := DirectACF(clean)
	dirtyACF := DirectACF(dirty)
	hACF, err := HuberACF(dirty, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	// Compare over informative lags.
	var errH, errD float64
	for lag := 1; lag < 150; lag++ {
		errH += math.Abs(hACF[lag] - cleanACF[lag])
		errD += math.Abs(dirtyACF[lag] - cleanACF[lag])
	}
	if errH >= errD {
		t.Errorf("Huber-ACF error %v not better than contaminated direct ACF %v", errH, errD)
	}
	// The lag-30 peak must survive.
	if hACF[30] < 0.5 {
		t.Errorf("hACF[30] = %v, want > 0.5", hACF[30])
	}
}

func TestHuberACFShortSeriesError(t *testing.T) {
	if _, err := HuberACF([]float64{1, 2, 3}, Options{}); err == nil {
		t.Error("expected error")
	}
}

func TestDirectACFBasics(t *testing.T) {
	if DirectACF(nil) != nil {
		t.Error("nil for empty")
	}
	acf := DirectACF([]float64{5, 5, 5})
	if acf[0] != 1 {
		t.Error("degenerate series should have acf[0]=1")
	}
	x := sinusoid(120, 24, 1)
	acf = DirectACF(x)
	if acf[24] < 0.9 {
		t.Errorf("acf at true period = %v", acf[24])
	}
	if acf[12] > -0.9 {
		t.Errorf("acf at half period = %v, want near -1", acf[12])
	}
}

func TestNyquistOrdinate(t *testing.T) {
	x := addNoise(sinusoid(64, 8, 1), 0.5, 11)
	want := fft.Periodogram(x)[32]
	if got := NyquistOrdinate(x); math.Abs(got-want) > 1e-9 {
		t.Errorf("Nyquist %v vs FFT %v", got, want)
	}
}

// Property: the Huber M-periodogram with auto-ζ is scale equivariant —
// P(a·x) = a²·P(x) — because ζ scales with the MADN of the data.
func TestMPeriodogramScaleEquivariance(t *testing.T) {
	x := addSpikes(addNoise(sinusoid(300, 30, 1), 0.2, 30), 8, 6, 31)
	base, err := MPeriodogram(x, 5, 30, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{0.1, 3, 50} {
		scaled := make([]float64, len(x))
		for i, v := range x {
			scaled[i] = a * v
		}
		got, err := MPeriodogram(scaled, 5, 30, Options{Loss: LossHuber})
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			want := a * a * base[k]
			if math.Abs(got[k]-want) > 1e-6*(want+1e-9) {
				t.Fatalf("a=%v k=%d: got %v want %v", a, k+5, got[k], want)
			}
		}
	}
}

// Property: M-periodograms whose chunks run on helpers are
// bit-identical to the one-worker run.
func TestMPeriodogramParallelIdentical(t *testing.T) {
	withProcs(t, 4)
	x := addSpikes(addNoise(sinusoid(600, 40, 1), 0.3, 32), 15, 8, 33)
	seq, err := oneWorker(func() ([]float64, error) { return MPeriodogram(x, 1, 299, Options{Loss: LossHuber}) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := MPeriodogram(x, 1, 299, Options{Loss: LossHuber})
	if err != nil {
		t.Fatal(err)
	}
	for k := range seq {
		if seq[k] != par[k] {
			t.Fatalf("k=%d: %v vs %v", k+1, seq[k], par[k])
		}
	}
}

func TestRobustNyquistMatchesClassicalOnCleanData(t *testing.T) {
	// Alternating series concentrates energy at Nyquist.
	x := make([]float64, 128)
	for i := range x {
		x[i] = 1
		if i%2 == 1 {
			x[i] = -1
		}
	}
	want := NyquistOrdinate(x)
	got := RobustNyquist(x, Options{Loss: LossHuber})
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("robust Nyquist %v vs classical %v", got, want)
	}
	// Odd length falls back to the classical ordinate.
	odd := x[:127]
	if RobustNyquist(odd, Options{}) != NyquistOrdinate(odd) {
		t.Error("odd-length fallback broken")
	}
}

func TestLossSolverStrings(t *testing.T) {
	if LossHuber.String() != "huber" || LossLAD.String() != "lad" || LossL2.String() != "l2" {
		t.Error("Loss.String broken")
	}
	if SolverIRLS.String() != "irls" || SolverADMM.String() != "admm" {
		t.Error("Solver.String broken")
	}
	if Loss(99).String() == "" {
		t.Error("unknown loss should still print")
	}
}

func BenchmarkMPeriodogramIRLSBand(b *testing.B) {
	x := addSpikes(addNoise(sinusoid(2000, 100, 1), 0.3, 12), 40, 8, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPeriodogram(x, 10, 40, Options{Loss: LossHuber}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPeriodogramADMMBand(b *testing.B) {
	x := addSpikes(addNoise(sinusoid(2000, 100, 1), 0.3, 12), 40, 8, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPeriodogram(x, 10, 40, Options{Loss: LossHuber, Solver: SolverADMM}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuberACF(b *testing.B) {
	x := addNoise(sinusoid(1000, 50, 1), 0.3, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HuberACF(x, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectACF(b *testing.B) {
	x := addNoise(sinusoid(1000, 50, 1), 0.3, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DirectACF(x)
	}
}
