package wavelet

import (
	"fmt"
	"math"

	"robustperiod/internal/faults"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
)

// MODWT holds a maximal overlap discrete wavelet transform of a series:
// J levels of wavelet coefficients (each the same length as the input)
// plus the final level's scaling coefficients.
type MODWT struct {
	Filter    *Filter
	Levels    int
	W         [][]float64 // W[j-1] = level-j wavelet coefficients, len N each
	V         []float64   // level-J scaling coefficients, len N
	N         int
	nonZero   bool
	reflected bool
}

// MaxLevel returns the deepest MODWT level for which the level's
// equivalent filter still fits inside the series (L_j <= N), i.e. at
// least one non-boundary coefficient exists for the unbiased variance.
func MaxLevel(n int, f *Filter) int {
	j := 0
	for f.EquivalentWidth(j+1) <= n {
		j++
		if j >= 30 {
			break
		}
	}
	return j
}

// Transform computes a level-J MODWT of x with filter f using the
// pyramid algorithm with circular boundary treatment. It errors if
// J < 1, if x is shorter than the base filter, or if J exceeds the
// depth supported by len(x) for power-of-two scale growth.
func Transform(x []float64, f *Filter, levels int) (*MODWT, error) {
	n := len(x)
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels must be >= 1, got %d", levels)
	}
	if n < f.Len() {
		return nil, fmt.Errorf("wavelet: series length %d shorter than filter %d", n, f.Len())
	}
	if (1 << uint(levels)) > n*2 {
		return nil, fmt.Errorf("wavelet: level %d too deep for series length %d", levels, n)
	}
	L := f.Len()
	gt := make([]float64, L) // MODWT scaling filter g/√2
	ht := make([]float64, L) // MODWT wavelet filter h/√2
	for l := 0; l < L; l++ {
		gt[l] = f.g[l] / math.Sqrt2
		ht[l] = f.h[l] / math.Sqrt2
	}
	out := &MODWT{Filter: f, Levels: levels, N: n}
	out.W = make([][]float64, levels)
	v := append([]float64(nil), x...)
	for j := 1; j <= levels; j++ {
		stride := 1 << uint(j-1)
		wj := make([]float64, n)
		vj := make([]float64, n)
		for t := 0; t < n; t++ {
			var sw, sv float64
			idx := t
			for l := 0; l < L; l++ {
				sw += ht[l] * v[idx]
				sv += gt[l] * v[idx]
				idx -= stride
				if idx < 0 {
					idx += n
					// stride can exceed n for deep levels; fold fully.
					for idx < 0 {
						idx += n
					}
				}
			}
			wj[t] = sw
			vj[t] = sv
		}
		out.W[j-1] = wj
		v = vj
	}
	out.V = v
	out.nonZero = true
	return out, nil
}

// TransformTraced is Transform instrumented with the pipeline trace:
// the pyramid computation is timed under trace.StageMODWT, and the
// stage records the levels computed and the total boundary
// coefficients that the unbiased wavelet variance will exclude
// (each level loses L_j − 1 coefficients, capped at the series
// length). A nil tr makes this exactly Transform.
func TransformTraced(x []float64, f *Filter, levels int, tr *trace.Trace) (*MODWT, error) {
	// Fault point "wavelet/transform": an allocation-failure surrogate
	// for the pyramid buffers (J levels × N coefficients each) — the
	// pipeline degrades to direct single-period detection on it.
	if err := faults.Check(faults.PointWaveletTransfrm); err != nil {
		return nil, err
	}
	st := tr.StartStage(trace.StageMODWT)
	m, err := Transform(x, f, levels)
	st.End()
	if err != nil || !tr.Enabled() {
		return m, err
	}
	tr.Count(trace.StageMODWT, "levels", int64(levels))
	boundary := int64(0)
	for j := 1; j <= levels; j++ {
		b := f.EquivalentWidth(j) - 1
		if b > len(x) {
			b = len(x)
		}
		boundary += int64(b)
	}
	tr.Count(trace.StageMODWT, "boundary_dropped", boundary)
	return m, nil
}

// TransformReflected computes a MODWT of x with reflection boundary
// treatment: the series is extended by its mirror image to length 2N,
// transformed circularly, and the first N coefficients of every level
// are returned. The circular wrap point then joins x with its own
// reflection — a smooth continuation — instead of joining x[N−1] to
// x[0] with an arbitrary phase jump, which for wide equivalent filters
// (deep levels) otherwise distorts most coefficients. The result is
// not energy-preserving or invertible; use Transform when you need
// reconstruction.
func TransformReflected(x []float64, f *Filter, levels int) (*MODWT, error) {
	// Fault point "wavelet/reflect": the reflection-extended transform
	// doubles the working set, so it is the likeliest allocation to
	// fail first; the pipeline just skips the boundary fallback.
	if err := faults.Check(faults.PointWaveletReflect); err != nil {
		return nil, err
	}
	n := len(x)
	ext := make([]float64, 2*n)
	copy(ext, x)
	for i := 0; i < n; i++ {
		ext[n+i] = x[n-1-i]
	}
	m, err := Transform(ext, f, levels)
	if err != nil {
		return nil, err
	}
	for j := range m.W {
		m.W[j] = m.W[j][:n]
	}
	m.V = m.V[:n]
	m.N = n
	m.reflected = true
	return m, nil
}

// Inverse reconstructs the original series from the transform. It is
// the exact inverse of Transform up to floating point error. It
// panics on a reflection-boundary transform, which is not invertible
// from the retained coefficients.
func (m *MODWT) Inverse() []float64 {
	if m.reflected {
		panic("wavelet: reflected MODWT is not invertible")
	}
	L := m.Filter.Len()
	gt := make([]float64, L)
	ht := make([]float64, L)
	for l := 0; l < L; l++ {
		gt[l] = m.Filter.g[l] / math.Sqrt2
		ht[l] = m.Filter.h[l] / math.Sqrt2
	}
	v := append([]float64(nil), m.V...)
	n := m.N
	for j := m.Levels; j >= 1; j-- {
		stride := 1 << uint(j-1)
		w := m.W[j-1]
		prev := make([]float64, n)
		for t := 0; t < n; t++ {
			var s float64
			idx := t
			for l := 0; l < L; l++ {
				s += ht[l]*w[idx] + gt[l]*v[idx]
				idx += stride
				for idx >= n {
					idx -= n
				}
			}
			prev[t] = s
		}
		v = prev
	}
	return v
}

// Energy returns Σ over all wavelet levels of ‖W_j‖² plus ‖V_J‖².
// By the energy-preservation property of the MODWT this equals ‖x‖².
func (m *MODWT) Energy() float64 {
	e := sumSq(m.V)
	for _, w := range m.W {
		e += sumSq(w)
	}
	return e
}

// LevelVariance describes one level's robust unbiased wavelet variance
// and how trustworthy it is.
type LevelVariance struct {
	Level    int     // 1-based level j
	Variance float64 // robust unbiased wavelet variance ν²_j (Eq. 4)
	Boundary int     // number of excluded boundary coefficients L_j − 1
	Count    int     // M_j = N − L_j + 1 non-boundary coefficients used
}

// RobustVariances returns the per-level robust unbiased wavelet
// variances of the transform (Eq. 4 of the paper): the biweight
// midvariance of each level's non-boundary coefficients. Levels whose
// equivalent filter no longer leaves minCount non-boundary
// coefficients fall back to using all coefficients (biased but usable)
// and report Count accordingly.
func (m *MODWT) RobustVariances(minCount int) []LevelVariance {
	if minCount < 2 {
		minCount = 2
	}
	out := make([]LevelVariance, m.Levels)
	for j := 1; j <= m.Levels; j++ {
		lj := m.Filter.EquivalentWidth(j)
		w := m.W[j-1]
		start := lj - 1
		if len(w)-start < minCount {
			start = 0
		}
		seg := w[start:]
		out[j-1] = LevelVariance{
			Level:    j,
			Variance: robust.BiweightMidvariance(seg),
			Boundary: start,
			Count:    len(seg),
		}
	}
	return out
}

// ClassicalVariances mirrors RobustVariances but uses the ordinary
// sample variance; used by the non-robust ablation (NR-RobustPeriod).
func (m *MODWT) ClassicalVariances(minCount int) []LevelVariance {
	if minCount < 2 {
		minCount = 2
	}
	out := make([]LevelVariance, m.Levels)
	for j := 1; j <= m.Levels; j++ {
		lj := m.Filter.EquivalentWidth(j)
		w := m.W[j-1]
		start := lj - 1
		if len(w)-start < minCount {
			start = 0
		}
		seg := w[start:]
		out[j-1] = LevelVariance{
			Level:    j,
			Variance: robust.Variance(seg),
			Boundary: start,
			Count:    len(seg),
		}
	}
	return out
}
