package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// FFT returns the forward DFT of x, leaving x as it is: the tests'
// entry point to Transform.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	Transform(out)
	return out
}

// IFFT returns the inverse DFT of x normalized by 1/N, so that
// IFFT(FFT(x)) == x, as the conjugate of the forward transform of the
// conjugate.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	Transform(out)
	inv := 1 / float64(len(x))
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

// FFTReal returns the DFT of a real series as a full-length spectrum:
// the half spectrum from the production real path, mirrored by
// conjugate symmetry at even lengths, and the complex transform at odd
// ones. FuzzFFTReal holds it to Transform.
func FFTReal(x []float64) []complex128 {
	n := len(x)
	if n%2 == 1 {
		return complexTransform(x)
	}
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	halfSpectrum(x, out[:n/2+1])
	for k := 1; k < n/2; k++ {
		out[n-k] = cmplx.Conj(out[k])
	}
	return out
}

// naiveDFT is the O(N²) reference transform.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
		if inverse {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 100, 127, 128, 255, 1000} {
		x := randComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x, false)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestIFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 3, 8, 15, 16, 50, 64, 81} {
		x := randComplex(rng, n)
		got := IFFT(x)
		want := naiveDFT(x, true)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 6, 16, 33, 100, 256, 999, 1024, 2048} {
		x := randComplex(rng, n)
		y := IFFT(FFT(x))
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("round trip n=%d: max error %g", n, e)
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT or IFFT mutated its input")
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Error("FFT(nil) should be empty")
	}
	got := FFT([]complex128{42})
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("FFT of singleton = %v", got)
	}
}

func TestParseval(t *testing.T) {
	// Σ|x|² == (1/N)Σ|X|² for every size, including Bluestein sizes.
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{9, 16, 37, 128, 300} {
		x := randComplex(rng, n)
		spec := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i] * cmplx.Conj(x[i]))
			ef += real(spec[i] * cmplx.Conj(spec[i]))
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-8*et {
			t.Errorf("Parseval violated at n=%d: %g vs %g", n, et, ef)
		}
	}
}

func TestFFTRealKnownSinusoid(t *testing.T) {
	// x[t] = cos(2π·5t/64): energy concentrated at bins 5 and 59.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 5 * float64(i) / float64(n))
	}
	spec := FFTReal(x)
	for k := 0; k < n; k++ {
		mag := cmplx.Abs(spec[k])
		if k == 5 || k == 59 {
			if math.Abs(mag-32) > 1e-9 {
				t.Errorf("bin %d magnitude %v, want 32", k, mag)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude %v, want 0", k, mag)
		}
	}
}

func TestFFTRealMatchesComplexPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Cover the half-length path at power-of-two and Bluestein halves
	// against the plain complex transform and the naive DFT, plus the
	// odd-length complex path. The last five are padded lengths of
	// service-sized series: 2·168, 2·1000, 2·1008, 2·1009 (a prime
	// half, so Bluestein runs inside) and 2·1024.
	for _, n := range []int{2, 4, 8, 16, 64, 128, 256, 1024, 6, 10, 100, 97, 336, 2000, 2016, 2018, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := FFTReal(x)
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := naiveDFT(c, false)
		Transform(c)
		for k := range c {
			if cmplx.Abs(got[k]-c[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d: %v vs %v", n, k, got[k], c[k])
			}
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d: %v vs naive %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 21, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := FFTReal(x)
		for k := 1; k < n; k++ {
			if cmplx.Abs(spec[k]-cmplx.Conj(spec[n-k])) > 1e-9 {
				t.Fatalf("n=%d: conjugate symmetry broken at k=%d", n, k)
			}
		}
	}
}

func TestPeriodogramPeak(t *testing.T) {
	n := 200
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 20) // freq bin 10
	}
	p := Periodogram(x)
	if len(p) != n {
		t.Fatalf("length %d", len(p))
	}
	best := 1
	for k := 2; k < n/2; k++ {
		if p[k] > p[best] {
			best = k
		}
	}
	if best != 10 {
		t.Errorf("peak at bin %d, want 10", best)
	}
	// DC bin of a zero-mean sinusoid is ~0.
	if p[0] > 1e-18 {
		t.Errorf("DC leakage %v", p[0])
	}
}

func TestPeriodogramEmpty(t *testing.T) {
	if Periodogram(nil) != nil {
		t.Error("want nil for empty input")
	}
}

func TestAutocorrelationProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/25) + 0.1*rng.NormFloat64()
	}
	acf := Autocorrelation(x)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Errorf("acf[0] = %v, want 1", acf[0])
	}
	for t2 := 1; t2 < len(acf); t2++ {
		if acf[t2] > 1+1e-9 {
			t.Errorf("acf[%d] = %v exceeds 1", t2, acf[t2])
		}
	}
	// Period-25 sinusoid: strong positive correlation at lag 25.
	if acf[25] < 0.8 {
		t.Errorf("acf[25] = %v, want > 0.8", acf[25])
	}
	if acf[12] > 0 {
		t.Errorf("acf[12] = %v, want negative (half period)", acf[12])
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := Autocorrelation(x)
	// Direct biased estimator.
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var r0 float64
	for _, v := range x {
		r0 += (v - mean) * (v - mean)
	}
	for lag := 0; lag < len(x); lag++ {
		var s float64
		for i := 0; i+lag < len(x); i++ {
			s += (x[i] - mean) * (x[i+lag] - mean)
		}
		want := s / r0
		if math.Abs(got[lag]-want) > 1e-9 {
			t.Fatalf("lag %d: got %v want %v", lag, got[lag], want)
		}
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	acf := Autocorrelation([]float64{3, 3, 3, 3})
	if acf[0] != 1 {
		t.Errorf("acf[0] = %v, want 1 for degenerate series", acf[0])
	}
}

// Property: linearity of the transform.
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%60)
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		y := randComplex(r, n)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + alpha*y[i]
		}
		fs := FFT(sum)
		fx := FFT(x)
		fy := FFT(y)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fx[i]+alpha*fy[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBluesteinPooledBufferConcurrent runs Bluestein transforms of one
// input from many goroutines at once, so pooled work buffers pass
// between calls and goroutines: every output must be bit-identical to
// the first call's, whatever a reused buffer held before.
func TestBluesteinPooledBufferConcurrent(t *testing.T) {
	for _, n := range []int{6, 336, 1000, 1152} {
		x := randComplex(rand.New(rand.NewSource(int64(n))), n)
		want := FFT(x)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got := FFT(x)
					for k := range got {
						if got[k] != want[k] {
							t.Errorf("n=%d: call %d bin %d = %v, want %v", n, i, k, got[k], want[k])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestBluesteinWarmTransformAllocatesNothing pins the pooled work
// buffer: once a length's chirp plan is cached, an in-place transform
// of a non-power-of-two length allocates nothing. (Under -race,
// sync.Pool drops a quarter of its Puts at random; the integer
// average AllocsPerRun reports still reads 0.)
func TestBluesteinWarmTransformAllocatesNothing(t *testing.T) {
	in := randComplex(rand.New(rand.NewSource(3)), 1152)
	x := make([]complex128, len(in))
	transform := func() {
		copy(x, in)
		Transform(x)
	}
	transform()
	if allocs := testing.AllocsPerRun(200, transform); allocs != 0 {
		t.Fatalf("warm Bluestein Transform allocated %.0f objects per run, want 0", allocs)
	}
}

// TestPlanCacheBoundedConcurrent transforms 100 distinct
// non-power-of-two lengths from 8 goroutines at once, so plans are
// built, shared and evicted concurrently: the cache never holds more
// than maxOtherPlans of them, and every output equals its sequential
// value bit for bit, whichever plan build produced it.
func TestPlanCacheBoundedConcurrent(t *testing.T) {
	const lengths = 100
	inputs := make([][]complex128, lengths)
	want := make([][]complex128, lengths)
	for i := range inputs {
		n := 201 + 2*i // odd, so never a power of two
		inputs[i] = randComplex(rand.New(rand.NewSource(int64(n))), n)
		want[i] = FFT(inputs[i])
	}
	otherPlans := func() int {
		plans.mu.Lock()
		defer plans.mu.Unlock()
		c := 0
		for n := range plans.byLen {
			if !isPow2(n) {
				c++
			}
		}
		return c
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range inputs {
				i := (j*7 + g*13) % lengths
				got := FFT(inputs[i])
				for k := range got {
					if got[k] != want[i][k] {
						t.Errorf("n=%d bin %d = %v, want %v", len(got), k, got[k], want[i][k])
						return
					}
				}
				if c := otherPlans(); c > maxOtherPlans {
					t.Errorf("cache holds %d non-power-of-two plans, cap %d", c, maxOtherPlans)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPeriodogramWarmAllocs pins a warm Periodogram to its output; the
// half spectrum comes from the plan's pool, which the race detector
// empties at random, hence the slack of one. At a Bluestein half
// (1000) and a power-of-two half (1024).
func TestPeriodogramWarmAllocs(t *testing.T) {
	for _, n := range []int{2000, 2048} {
		x := make([]float64, n)
		for i := range x[:n/2] {
			x[i] = math.Sin(float64(i))
		}
		Periodogram(x)
		if allocs := testing.AllocsPerRun(100, func() { Periodogram(x) }); allocs > 2 {
			t.Errorf("n=%d: warm Periodogram allocated %.0f objects per run, want at most 2", n, allocs)
		}
	}
}

// TestHalfPeriodogramMatchesPeriodogram: the half periodogram is the
// full one's first ⌊N/2⌋+1 ordinates bit for bit, and holds no more.
func TestHalfPeriodogramMatchesPeriodogram(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 7, 64, 100, 999, 2000, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		full, half := Periodogram(x), HalfPeriodogram(x)
		if len(half) != n/2+1 || cap(half) != n/2+1 {
			t.Fatalf("n=%d: half periodogram len %d cap %d, want %d", n, len(half), cap(half), n/2+1)
		}
		for k, v := range half {
			if v != full[k] {
				t.Fatalf("n=%d: P[%d] = %v, full periodogram %v", n, k, v, full[k])
			}
		}
	}
	if HalfPeriodogram(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

// TestHalfPeriodogramWarmBytes pins the bytes of a warm HalfPeriodogram
// to its own ⌊N/2⌋+1 ordinates (plus allocator rounding): the half
// spectrum is taken in a pooled buffer and nothing is mirrored. The
// full Periodogram's N ordinates would fail it.
func TestHalfPeriodogramWarmBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	for _, n := range []int{2000, 2048} {
		x := make([]float64, n)
		for i := range x[:n/2] {
			x[i] = math.Sin(float64(i))
		}
		HalfPeriodogram(x)
		const runs = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			HalfPeriodogram(x)
		}
		runtime.ReadMemStats(&m1)
		perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
		if limit := uint64(8*(n/2+1) + 2048); perRun > limit {
			t.Errorf("n=%d: warm HalfPeriodogram allocated %d bytes per run, want at most %d", n, perRun, limit)
		}
	}
}

func BenchmarkFFTPow2(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randComplex(rng, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randComplex(rng, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkAutocorrelation(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Autocorrelation(x)
	}
}
