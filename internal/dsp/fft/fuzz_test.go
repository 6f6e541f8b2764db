package fft_test

import (
	"math"
	"math/cmplx"
	"testing"

	"robustperiod/internal/dsp/fft"
	"robustperiod/internal/spectrum"
)

// FuzzFFTReal decodes one byte per sample (a signed value in
// [−128, 128)) into a series of length 1–4096 and checks that FFTReal
// matches the complex transform of the complexified series within
// 1e-9·n·max|x|. At even lengths n it also checks the Wiener–Khinchin
// ACF: the first n/2 samples, centred and zero-padded to n, give
// through ACFFromPeriodogram the direct unbiased ACF, within 1e-9·n.
func FuzzFFTReal(f *testing.F) {
	tone := make([]byte, 2000)
	for i := range tone {
		tone[i] = byte(int8(100 * math.Sin(2*math.Pi*float64(i)/24)))
	}
	f.Add(tone)
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, 336))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		if n < 1 || n > 4096 {
			return
		}
		x := make([]float64, n)
		c := make([]complex128, n)
		maxAbs := 0.0
		for i, b := range data {
			x[i] = float64(int8(b))
			c[i] = complex(x[i], 0)
			maxAbs = math.Max(maxAbs, math.Abs(x[i]))
		}
		got := fft.FFTReal(x)
		fft.Transform(c)
		tol := 1e-9 * float64(n) * maxAbs
		for k := range c {
			if cmplx.Abs(got[k]-c[k]) > tol {
				t.Fatalf("n=%d k=%d: FFTReal %v, Transform %v", n, k, got[k], c[k])
			}
		}
		if n%2 == 1 {
			return
		}
		m := n / 2
		mean := 0.0
		for _, v := range x[:m] {
			mean += v
		}
		mean /= float64(m)
		padded := make([]float64, n)
		for i, v := range x[:m] {
			padded[i] = v - mean
		}
		acf, err := spectrum.ACFFromPeriodogram(fft.Periodogram(padded), m)
		if err != nil {
			t.Fatal(err)
		}
		want := spectrum.DirectACF(x[:m])
		for lag := range want {
			if math.Abs(acf[lag]-want[lag]) > 1e-9*float64(n) {
				t.Fatalf("n=%d lag %d: ACFFromPeriodogram %v, DirectACF %v", n, lag, acf[lag], want[lag])
			}
		}
	})
}
