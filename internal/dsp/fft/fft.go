// Package fft implements the fast Fourier transform substrate that
// RobustPeriod's spectral machinery is built on: an iterative radix-2
// Cooley-Tukey transform for power-of-two sizes, Bluestein's chirp-z
// algorithm for arbitrary sizes, and real-input helpers (periodogram,
// autocorrelation). Only the standard library is used.
//
// Conventions: FFT computes X[k] = Σ_t x[t]·exp(-2πi·kt/N) (no
// normalization); IFFT divides by N so IFFT(FFT(x)) == x.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFT returns the forward discrete Fourier transform of x. The input
// is not modified. Any length is supported: power-of-two lengths use
// radix-2 Cooley-Tukey, other lengths use Bluestein's algorithm.
// An empty input yields an empty output.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	Transform(out)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x, normalized
// by 1/N. The input is not modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	InverseTransform(out)
	return out
}

// Transform performs an in-place forward DFT of x.
func Transform(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, false)
		return
	}
	bluestein(x, false)
}

// InverseTransform performs an in-place inverse DFT of x (with 1/N
// normalization).
func InverseTransform(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, true)
	} else {
		bluestein(x, true)
	}
	inv := 1 / float64(n)
	for i := range x {
		x[i] *= complex(inv, 0)
	}
}

// radix2 runs an iterative in-place Cooley-Tukey transform; len(x)
// must be a power of two. If inverse is true the conjugate twiddles
// are used (no normalization here).
func radix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// Precompute the twiddle increment with a stable recurrence.
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// chirpPlan holds the input-independent half of a Bluestein transform
// of one (length, direction) pair: the chirp itself and the forward
// transform of the chirp filter. Building it costs n complex
// exponentials plus one radix-2 transform — the majority of a
// Bluestein call — so plans are cached: the detect pipeline transforms
// the same non-power-of-two padded length dozens of times per request.
// The plan also pools the m-long work buffers of its transforms, so a
// warm Bluestein call allocates nothing.
type chirpPlan struct {
	chirp []complex128 // exp(sign·iπt²/n), t < n
	bhat  []complex128 // FFT of the chirp filter, length m
	work  sync.Pool    // *[]complex128 of length m
}

type chirpKey struct {
	n       int
	inverse bool
}

var chirpCache struct {
	mu    sync.Mutex
	plans map[chirpKey]*chirpPlan
}

// chirpCacheCap bounds the cache; one entry per distinct transform
// length and direction, a handful per process in practice.
const chirpCacheCap = 16

func getChirpPlan(n, m int, inverse bool) *chirpPlan {
	key := chirpKey{n, inverse}
	chirpCache.mu.Lock()
	if p, ok := chirpCache.plans[key]; ok {
		chirpCache.mu.Unlock()
		return p
	}
	chirpCache.mu.Unlock()

	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[t] = exp(sign * i*pi*t^2/n). Reduce t^2 mod 2n to keep the
	// angle small and accurate for large n.
	p := &chirpPlan{
		chirp: make([]complex128, n),
		bhat:  make([]complex128, m),
	}
	p.work.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	for t := 0; t < n; t++ {
		sq := (int64(t) * int64(t)) % int64(2*n)
		ang := sign * math.Pi * float64(sq) / float64(n)
		p.chirp[t] = cmplx.Exp(complex(0, ang))
	}
	for t := 0; t < n; t++ {
		p.bhat[t] = cmplx.Conj(p.chirp[t])
	}
	for t := 1; t < n; t++ {
		p.bhat[m-t] = cmplx.Conj(p.chirp[t])
	}
	radix2(p.bhat, false)

	chirpCache.mu.Lock()
	defer chirpCache.mu.Unlock()
	if q, ok := chirpCache.plans[key]; ok {
		return q // lost a build race; share the first
	}
	if chirpCache.plans == nil {
		chirpCache.plans = make(map[chirpKey]*chirpPlan, chirpCacheCap)
	}
	if len(chirpCache.plans) >= chirpCacheCap {
		for k := range chirpCache.plans {
			delete(chirpCache.plans, k)
			break
		}
	}
	chirpCache.plans[key] = p
	return p
}

// bluestein computes an arbitrary-length DFT as a convolution with a
// chirp, using two power-of-two radix-2 transforms internally (the
// third — the chirp filter's — comes precomputed from the plan cache).
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p := getChirpPlan(n, m, inverse)
	buf := p.work.Get().(*[]complex128)
	a := *buf
	for t := 0; t < n; t++ {
		a[t] = x[t] * p.chirp[t]
	}
	clear(a[n:])
	radix2(a, false)
	for i := range a {
		a[i] *= p.bhat[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for t := 0; t < n; t++ {
		x[t] = a[t] * scale * p.chirp[t]
	}
	p.work.Put(buf)
}

// FFTReal returns the DFT of a real-valued series as a full-length
// complex spectrum. Even power-of-two lengths use the half-size
// complex-FFT trick (packing even samples into the real part and odd
// samples into the imaginary part), which roughly halves the work;
// other lengths fall back to a complex transform.
func FFTReal(x []float64) []complex128 {
	n := len(x)
	if n >= 4 && n%2 == 0 && (n/2)&(n/2-1) == 0 {
		return fftRealEven(x)
	}
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	Transform(c)
	return c
}

// fftRealEven computes the DFT of a real series of even length n with
// one complex FFT of length n/2: z[t] = x[2t] + i·x[2t+1], then the
// even/odd sub-spectra are unpacked from z's conjugate symmetry and
// recombined with twiddles.
func fftRealEven(x []float64) []complex128 {
	n := len(x)
	h := n / 2
	z := make([]complex128, h)
	for t := 0; t < h; t++ {
		z[t] = complex(x[2*t], x[2*t+1])
	}
	radix2(z, false)
	out := make([]complex128, n)
	for k := 0; k <= h/2; k++ {
		var zk, zmk complex128
		zk = z[k%h]
		if k == 0 {
			zmk = z[0]
		} else {
			zmk = z[h-k]
		}
		// Even/odd sub-spectra from the packed transform.
		e := complex(0.5, 0) * (zk + cmplx.Conj(zmk))
		o := complex(0, -0.5) * (zk - cmplx.Conj(zmk))
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw := complex(c, s)
		out[k] = e + tw*o
		if k > 0 && k < h {
			// Conjugate symmetry of a real input fills the top half;
			// the lower half below h is completed via X[h−k] relation.
			out[n-k] = cmplx.Conj(out[k])
		}
	}
	// X[k] for h/2 < k < h follows from the same unpacking evaluated
	// directly (equivalently conjugate relations on the packed FFT).
	for k := h/2 + 1; k < h; k++ {
		zk := z[k]
		zmk := z[h-k]
		e := complex(0.5, 0) * (zk + cmplx.Conj(zmk))
		o := complex(0, -0.5) * (zk - cmplx.Conj(zmk))
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw := complex(c, s)
		out[k] = e + tw*o
		out[n-k] = cmplx.Conj(out[k])
	}
	// Nyquist bin: X[h] = E[0] − O[0] with twiddle e^{−iπ} = −1.
	e0 := complex(0.5, 0) * (z[0] + cmplx.Conj(z[0]))
	o0 := complex(0, -0.5) * (z[0] - cmplx.Conj(z[0]))
	out[h] = e0 - o0
	return out
}

// IFFTReal inverts a spectrum that is known to come from a real series
// and returns only the real parts. The caller guarantees conjugate
// symmetry; imaginary residue is discarded.
func IFFTReal(spec []complex128) []float64 {
	c := IFFT(spec)
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = real(v)
	}
	return out
}

// Periodogram returns P[k] = |X[k]|² / N for k = 0..N-1, the classical
// (full-range) DFT periodogram of a real series (Eq. 5 of the paper).
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := FFTReal(x)
	p := make([]float64, n)
	inv := 1 / float64(n)
	for k, v := range spec {
		re, im := real(v), imag(v)
		p[k] = (re*re + im*im) * inv
	}
	return p
}

// Autocorrelation returns the biased sample autocovariance-based ACF
// r[t] = Σ_{n} x̄[n]·x̄[n+t] / Σ x̄[n]² for lags 0..len(x)-1, computed
// in O(N log N) via zero-padded FFTs (x̄ is the mean-centred series).
// This is the classical fast ACF used by the non-robust baselines.
func Autocorrelation(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	m := 1
	for m < 2*n {
		m <<= 1
	}
	buf := make([]complex128, m)
	for i, v := range x {
		buf[i] = complex(v-mean, 0)
	}
	Transform(buf)
	for i, v := range buf {
		re, im := real(v), imag(v)
		buf[i] = complex(re*re+im*im, 0)
	}
	InverseTransform(buf)
	out := make([]float64, n)
	r0 := real(buf[0])
	if r0 == 0 {
		out[0] = 1
		return out
	}
	for t := 0; t < n; t++ {
		out[t] = real(buf[t]) / r0
	}
	return out
}
