// Package fft implements the fast Fourier transform substrate that
// RobustPeriod's spectral machinery is built on: an iterative radix-2
// Cooley-Tukey transform for power-of-two sizes, Bluestein's chirp-z
// algorithm for other sizes, and real-input helpers (half spectrum,
// periodogram, autocorrelation). Only the standard library is used.
//
// Everything a transform of one length can reuse lives in a cached
// plan for that length: the twiddle table and bit-reversal permutation
// of a power of two, the chirp and filter spectrum of a Bluestein
// length, and the unpack twiddles of a real transform of twice the
// length. A real series of even length is transformed as a complex
// series of half its length. Inverse transforms conjugate around the
// forward ones, so no plan holds a second table.
//
// Convention: Transform computes X[k] = Σ_t x[t]·exp(-2πi·kt/N), with
// no normalization.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Transform performs an in-place forward DFT of x. Any length is
// supported: power-of-two lengths use radix-2 Cooley-Tukey, other
// lengths use Bluestein's algorithm.
func Transform(x []complex128) {
	if len(x) <= 1 {
		return
	}
	planFor(len(x)).transform(x)
}

// plan holds what every transform of one length n can reuse. Building
// one costs O(n) complex exponentials, plus one radix-2 transform for
// a Bluestein length, so plans are cached by length: the detect
// pipeline transforms the same padded length dozens of times per
// request.
type plan struct {
	// Power-of-two n: forward twiddles exp(−2πik/n) for k < n/2, and
	// the bit-reversal permutation.
	twiddle []complex128
	rev     []int32

	// Other n: Bluestein's chirp exp(−iπt²/n) for t < n, the forward
	// transform of its filter scaled by 1/m (m = len(bhat), a power of
	// two ≥ 2n−1), the radix-2 plan of length m, and pooled m-long
	// work buffers, so a warm Bluestein call allocates nothing.
	chirp []complex128
	bhat  []complex128
	inner *plan
	work  sync.Pool // *[]complex128 of length m

	// Real transforms of length 2n: exp(−iπk/n) for k ≤ n/2, the
	// twiddles that unpack the half-length transform, and pooled
	// (n+1)-long buffers for the half spectra that the periodograms
	// and HalfSpectrumRe read and drop.
	unpack []complex128
	half   sync.Pool // *[]complex128 of length n+1
}

// maxOtherPlans bounds the cached plans whose length is not a power of
// two: a service sees many distinct series lengths, and each such plan
// holds about 5n complex values. Power-of-two plans are one per octave
// and always kept.
const maxOtherPlans = 16

var plans struct {
	mu     sync.Mutex
	byLen  map[int]*plan
	others int // cached lengths that are not powers of two
}

func isPow2(n int) bool { return n&(n-1) == 0 }

// planFor returns the cached plan for length n ≥ 1, building it on a
// miss. Building happens outside the lock; when two goroutines race to
// build one length, both share the first plan stored.
func planFor(n int) *plan {
	plans.mu.Lock()
	p, ok := plans.byLen[n]
	plans.mu.Unlock()
	if ok {
		return p
	}
	p = newPlan(n)

	plans.mu.Lock()
	defer plans.mu.Unlock()
	if q, ok := plans.byLen[n]; ok {
		return q
	}
	if plans.byLen == nil {
		plans.byLen = make(map[int]*plan)
	}
	if !isPow2(n) {
		if plans.others >= maxOtherPlans {
			for k := range plans.byLen {
				if !isPow2(k) {
					delete(plans.byLen, k)
					plans.others--
					break
				}
			}
		}
		plans.others++
	}
	plans.byLen[n] = p
	return p
}

func newPlan(n int) *plan {
	p := &plan{unpack: make([]complex128, n/2+1)}
	p.half.New = func() any {
		buf := make([]complex128, n+1)
		return &buf
	}
	for k := range p.unpack {
		s, c := math.Sincos(-math.Pi * float64(k) / float64(n))
		p.unpack[k] = complex(c, s)
	}
	if isPow2(n) {
		p.twiddle = make([]complex128, n/2)
		for k := range p.twiddle {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.twiddle[k] = complex(c, s)
		}
		p.rev = make([]int32, n)
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
		return p
	}

	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.inner = planFor(m)
	p.work.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	// chirp[t] = exp(−iπt²/n). Reduce t² mod 2n to keep the angle
	// small and accurate for large n.
	p.chirp = make([]complex128, n)
	for t := range p.chirp {
		sq := (int64(t) * int64(t)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(sq) / float64(n))
		p.chirp[t] = complex(c, s)
	}
	p.bhat = make([]complex128, m)
	for t := 0; t < n; t++ {
		p.bhat[t] = cmplx.Conj(p.chirp[t])
	}
	for t := 1; t < n; t++ {
		p.bhat[m-t] = cmplx.Conj(p.chirp[t])
	}
	p.inner.radix2(p.bhat)
	scale := 1 / float64(m)
	for i, v := range p.bhat {
		p.bhat[i] = complex(real(v)*scale, imag(v)*scale)
	}
	return p
}

// transform runs the forward DFT of x in place; len(x) is the plan's
// length.
func (p *plan) transform(x []complex128) {
	if p.rev != nil {
		p.radix2(x)
		return
	}
	p.bluestein(x)
}

// radix2 runs an iterative in-place Cooley-Tukey transform over the
// plan's power-of-two length, reading every twiddle from the table.
func (p *plan) radix2(x []complex128) {
	n := len(x)
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n == 2 {
		x[0], x[1] = x[0]+x[1], x[0]-x[1]
		return
	}
	// The first two stages in one pass: their twiddles are 1 and −i,
	// so they need no multiplication.
	for i := 0; i+3 < n; i += 4 {
		a0, a1 := x[i]+x[i+1], x[i]-x[i+1]
		a2, a3 := x[i+2]+x[i+3], x[i+2]-x[i+3]
		b3 := complex(imag(a3), -real(a3)) // −i·a3
		x[i], x[i+2] = a0+a2, a0-a2
		x[i+1], x[i+3] = a1+b3, a1-b3
	}
	tw := p.twiddle
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			hi = hi[:len(lo)]
			for k, j := 0, 0; k < len(lo); k, j = k+1, j+stride {
				a := lo[k]
				b := hi[k] * tw[j]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution with the
// plan's chirp: one forward radix-2 transform of the chirped input, a
// product with the filter spectrum, and one inverse radix-2 transform
// taken as the conjugate of a forward one.
func (p *plan) bluestein(x []complex128) {
	buf := p.work.Get().(*[]complex128)
	a := *buf
	for t, c := range p.chirp {
		a[t] = x[t] * c
	}
	clear(a[len(x):])
	p.inner.radix2(a)
	for i, b := range p.bhat {
		a[i] = cmplx.Conj(a[i] * b)
	}
	p.inner.radix2(a)
	for t, c := range p.chirp {
		x[t] = cmplx.Conj(a[t]) * c
	}
	p.work.Put(buf)
}

func complexTransform(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	Transform(c)
	return c
}

// halfSpectrum writes X[k], k = 0..h, of the real series x of even
// length n = 2h ≥ 2 into out (length h+1). It packs
// z[t] = x[2t] + i·x[2t+1] into out[:h], transforms it, and unpacks
// the pairs (k, h−k) in place: with E and O the spectra of the even
// and odd samples, E[k] = (Z[k] + conj Z[h−k])/2,
// O[k] = (Z[k] − conj Z[h−k])/2i, X[k] = E[k] + W^k·O[k] and
// X[h−k] = conj(E[k] − W^k·O[k]), where W = exp(−2πi/n).
func halfSpectrum(x []float64, out []complex128) {
	h := len(x) / 2
	for t := range out[:h] {
		out[t] = complex(x[2*t], x[2*t+1])
	}
	if h > 1 {
		p := planFor(h)
		p.transform(out[:h])
		for k := 1; k <= h/2; k++ {
			a, b := out[k], out[h-k]
			ere, eim := 0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))
			ore, oim := 0.5*(imag(a)+imag(b)), 0.5*(real(b)-real(a))
			w := p.unpack[k]
			tre := real(w)*ore - imag(w)*oim
			tim := real(w)*oim + imag(w)*ore
			out[k] = complex(ere+tre, eim+tim)
			out[h-k] = complex(ere-tre, tim-eim)
		}
	}
	z0 := out[0]
	out[0] = complex(real(z0)+imag(z0), 0)
	out[h] = complex(real(z0)-imag(z0), 0)
}

// Periodogram returns P[k] = |X[k]|² / N for k = 0..N-1, the classical
// (full-range) DFT periodogram of a real series (Eq. 5 of the paper).
// It computes the half spectrum and mirrors it: P[N−k] = P[k].
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := make([]float64, n)
	halfPower(x, p[:n/2+1])
	for k := n/2 + 1; k < n; k++ {
		p[k] = p[n-k]
	}
	return p
}

// HalfPeriodogram returns P[k] for k = 0..⌊N/2⌋ only, the half of
// Periodogram that determines the rest, equal to it bit for bit, for
// callers that read no higher ordinate. An empty input yields nil.
func HalfPeriodogram(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	p := make([]float64, len(x)/2+1)
	halfPower(x, p)
	return p
}

// HalfSpectrumRe writes Re X[k] of the real series x into out[k] for
// k < len(out) ≤ ⌊N/2⌋+1, taking the half spectrum in a pooled buffer
// at even lengths.
func HalfSpectrumRe(x, out []float64) {
	if len(out) == 0 {
		return
	}
	withHalfSpectrum(x, func(spec []complex128) {
		for k := range out {
			out[k] = real(spec[k])
		}
	})
}

// halfPower writes |X[k]|²/N, k = 0..⌊N/2⌋, of the real series x into
// p.
func halfPower(x, p []float64) {
	inv := 1 / float64(len(x))
	withHalfSpectrum(x, func(spec []complex128) {
		for k, v := range spec {
			re, im := real(v), imag(v)
			p[k] = (re*re + im*im) * inv
		}
	})
}

// withHalfSpectrum calls use with X[k], k = 0..⌊N/2⌋, of the real
// series x (N ≥ 1). An even length takes the half spectrum in a buffer
// pooled on the half-length plan, which use must not retain.
func withHalfSpectrum(x []float64, use func(spec []complex128)) {
	n := len(x)
	if n%2 == 1 {
		use(complexTransform(x)[:n/2+1])
		return
	}
	pl := planFor(n / 2)
	buf := pl.half.Get().(*[]complex128)
	halfSpectrum(x, *buf)
	use(*buf)
	pl.half.Put(buf)
}

// Autocorrelation returns the biased sample autocovariance-based ACF
// r[t] = Σ_{n} x̄[n]·x̄[n+t] / Σ x̄[n]² for lags 0..len(x)-1, computed
// in O(N log N) via zero-padded FFTs (x̄ is the mean-centred series).
// This is the classical fast ACF used by the non-robust baselines.
// Both transforms are real: the power spectrum is real and even, so
// its forward transform is m times its inverse, and the factor m
// cancels in the ratio to lag 0.
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
	buf := make([]float64, m)
	for i, v := range x {
		buf[i] = v - mean
	}
	spec := make([]complex128, m/2+1)
	halfSpectrum(buf, spec)
	for k, v := range spec {
		re, im := real(v), imag(v)
		buf[k] = re*re + im*im
	}
	for k := len(spec); k < m; k++ {
		buf[k] = buf[m-k]
	}
	halfSpectrum(buf, spec)
	out := make([]float64, n)
	r0 := real(spec[0])
	if r0 == 0 {
		out[0] = 1
		return out
	}
	for t := range out {
		out[t] = real(spec[t]) / r0
	}
	return out
}
