package spectrum

import (
	"encoding/binary"
	"math"
	"testing"

	"robustperiod/internal/stat/robust"
)

// FuzzOrthoHuber drives the orthogonal-layout Huber solve (Newton
// steps with the IRLS safeguard) with arbitrary fits, thresholds ζ and
// frequencies k. The fit is decoded two bytes per sample into
// [−8, 8) and zero-padded to the detect layout; ζ is clamped to
// [1e-3, 1e3], and a non-positive or non-finite ζ takes the MADN
// default. Properties: the fit is finite, the solve stays within
// MaxIter, its Huber loss is no larger than at the OLS start, and the
// ladder's rung scan returns the full scan's bits.
func FuzzOrthoHuber(f *testing.F) {
	tone := make([]byte, 2*64)
	for t := 0; t < 64; t++ {
		v := int16(4096 * math.Sin(2*math.Pi*float64(t)/8))
		if t%7 == 0 {
			v = 30000 // outlier
		}
		binary.LittleEndian.PutUint16(tone[2*t:], uint16(v))
	}
	f.Add(tone, 0.0, 8)
	f.Add(tone, 0.01, 3)
	f.Add(make([]byte, 2*16), 1.0, 1) // zeros
	f.Fuzz(func(t *testing.T, data []byte, zeta float64, k int) {
		m := len(data) / 2
		if m > 512 {
			m = 512
		}
		if m < 4 {
			return
		}
		x := make([]float64, 2*m)
		for i := 0; i < m; i++ {
			x[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 4096
		}
		switch {
		case !(zeta > 0) || math.IsInf(zeta, 0):
			zeta = 0
		case zeta < 1e-3:
			zeta = 1e-3
		case zeta > 1e3:
			zeta = 1e3
		}
		k = 1 + int(uint(k)%uint(m-1))
		opts := Options{Loss: LossHuber, FitLength: m, Zeta: zeta}.withDefaults(x)
		fit := x[:m]
		cosB, sinB := make([]float64, m), make([]float64, m)
		sxc, sxs := getPlan(2*m, m).fillDot(cosB, sinB, fit, k)
		var lad ladder
		lad.build(fit, opts.Zeta)

		a, b, iters := solveIRLSOrthoHuber(fit, cosB, sinB, &lad, sxc, sxs, opts, nil)
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("k=%d ζ=%g: non-finite fit (%v, %v)", k, opts.Zeta, a, b)
		}
		if iters > opts.MaxIter {
			t.Fatalf("k=%d ζ=%g: %d iterations, MaxIter %d", k, opts.Zeta, iters, opts.MaxIter)
		}
		loss := func(a, b float64) float64 {
			sum := 0.0
			for i, v := range fit {
				sum += robust.HuberLoss(a*cosB[i]+b*sinB[i]-v, opts.Zeta)
			}
			return sum
		}
		halfM := float64(m) / 2
		got, start := loss(a, b), loss(sxc/halfM, sxs/halfM)
		if got > start*(1+1e-9)+1e-12 {
			t.Fatalf("k=%d ζ=%g: loss %.17g at the result, %.17g at the OLS start", k, opts.Zeta, got, start)
		}
		fa, fb, fIters := solveIRLSOrthoHuber(fit, cosB, sinB, nil, sxc, sxs, opts, nil)
		if math.Float64bits(a) != math.Float64bits(fa) || math.Float64bits(b) != math.Float64bits(fb) || iters != fIters {
			t.Fatalf("k=%d ζ=%g: ladder (%v, %v, %d iters), full scan (%v, %v, %d iters)", k, opts.Zeta, a, b, iters, fa, fb, fIters)
		}
	})
}
