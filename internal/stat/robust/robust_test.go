package robust

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMedianSmall(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{2, 1}, 1.5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5}, 5},
		{[]float64{-1, 0, 1}, 0},
		{[]float64{1e9, -1e9}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{9, 3, 7, 1, 5}
	want := append([]float64(nil), in...)
	Median(in)
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("Median mutated its input: %v", in)
		}
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	Median(nil)
}

func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		got := Median(x)
		s := append([]float64(nil), x...)
		sort.Float64s(s)
		var want float64
		if n%2 == 1 {
			want = s[n/2]
		} else {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if !almostEq(got, want, 1e-9) {
			t.Fatalf("trial %d: Median=%v want %v", trial, got, want)
		}
	}
}

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(20)) // many duplicates
		}
		s := append([]float64(nil), x...)
		sort.Float64s(s)
		k := rng.Intn(n)
		buf := append([]float64(nil), x...)
		if got := SelectInPlace(buf, k); got != s[k] {
			t.Fatalf("Select(x,%d)=%v want %v (x=%v)", k, got, s[k], x)
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectInPlace([]float64{1, 2}, 2)
}

func TestMAD(t *testing.T) {
	// x = {1,2,3,4,5}: median 3, |dev| = {2,1,0,1,2}, MAD = 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); !almostEq(got, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD([]float64{7, 7, 7}); got != 0 {
		t.Errorf("MAD of constant = %v, want 0", got)
	}
}

func TestMADNConsistency(t *testing.T) {
	// For a large normal sample, MADN should approximate sigma.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 200000)
	for i := range x {
		x[i] = rng.NormFloat64() * 2.5
	}
	if got := MADN(x); !almostEq(got, 2.5, 0.03) {
		t.Errorf("MADN = %v, want ~2.5", got)
	}
}

func TestMedianAndMADAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		med, mad := MedianAndMAD(x)
		if !almostEq(med, Median(x), 1e-12) || math.Float64bits(mad) != math.Float64bits(MAD(x)) {
			t.Fatalf("MedianAndMAD disagrees with Median/MAD")
		}
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !almostEq(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of single point should be 0")
	}
}

func TestBiweightMidvarianceGaussian(t *testing.T) {
	// On clean Gaussian data the biweight midvariance estimates sigma^2
	// with high efficiency.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 100000)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
	}
	got := BiweightMidvariance(x)
	if !almostEq(got, 9, 0.25) {
		t.Errorf("BiweightMidvariance = %v, want ~9", got)
	}
}

func TestBiweightMidvarianceRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	clean := BiweightMidvariance(x)
	// Corrupt 5% with huge spikes: classical variance explodes, the
	// biweight estimate barely moves.
	dirty := append([]float64(nil), x...)
	for i := 0; i < len(dirty)/20; i++ {
		dirty[rng.Intn(len(dirty))] = 1000
	}
	got := BiweightMidvariance(dirty)
	if math.Abs(got-clean) > 0.2*clean {
		t.Errorf("biweight moved too much under outliers: clean=%v dirty=%v", clean, got)
	}
	if v := Variance(dirty); v < 100*clean {
		t.Errorf("sanity: classical variance should explode, got %v", v)
	}
}

func TestBiweightMidvarianceConstant(t *testing.T) {
	if got := BiweightMidvariance([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("constant sample: got %v, want 0", got)
	}
}

func TestHuberLossPieces(t *testing.T) {
	zeta := 1.5
	if got := HuberLoss(1, zeta); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("quadratic piece: %v", got)
	}
	if got := HuberLoss(-1, zeta); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("quadratic piece (neg): %v", got)
	}
	if got := HuberLoss(3, zeta); !almostEq(got, 1.5*3-0.5*1.5*1.5, 1e-12) {
		t.Errorf("linear piece: %v", got)
	}
	// Continuity at the knot.
	if !almostEq(HuberLoss(zeta-1e-9, zeta), HuberLoss(zeta+1e-9, zeta), 1e-6) {
		t.Error("Huber loss discontinuous at zeta")
	}
}

func TestHuberPsiAndWeight(t *testing.T) {
	zeta := 2.0
	for _, r := range []float64{-5, -2, -1, 0, 0.5, 2, 10} {
		// ψ, the derivative of the Huber loss, is r clipped to [-ζ, ζ].
		psi := Clip(r, zeta)
		w := HuberWeight(r, zeta)
		if r != 0 && !almostEq(w*r, psi, 1e-12) {
			t.Errorf("weight identity broken at r=%v: w*r=%v psi=%v", r, w*r, psi)
		}
		if w < 0 || w > 1 {
			t.Errorf("weight out of [0,1]: %v", w)
		}
	}
}

func TestClip(t *testing.T) {
	if Clip(5, 3) != 3 || Clip(-5, 3) != -3 || Clip(2, 3) != 2 {
		t.Error("Clip broken")
	}
}

func TestWinsorize(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 1000}
	out := Winsorize(x, 3)
	if len(out) != len(x) {
		t.Fatal("length changed")
	}
	for _, v := range out {
		if math.Abs(v) > 3 {
			t.Errorf("value %v escaped clip", v)
		}
	}
	// The outlier must be clipped to exactly +3.
	if out[5] != 3 {
		t.Errorf("outlier clipped to %v, want 3", out[5])
	}
	// Constant series: scale falls back to 1, everything maps to 0.
	for _, v := range Winsorize([]float64{5, 5, 5}, 3) {
		if v != 0 {
			t.Errorf("constant series should winsorize to 0, got %v", v)
		}
	}
}

// Property: the median minimizes the L1 distance among candidate points
// in the sample.
func TestMedianMinimizesL1Property(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
		}
		m := Median(x)
		cost := func(c float64) float64 {
			s := 0.0
			for _, v := range x {
				s += math.Abs(v - c)
			}
			return s
		}
		cm := cost(m)
		for _, v := range x {
			if cost(v) < cm-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Winsorize output is always bounded by c and is a monotone
// transform of the input ordering.
func TestWinsorizeBoundedProperty(t *testing.T) {
	f := func(raw []int16, cRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		c := 0.5 + float64(cRaw%50)/10
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
		}
		out := Winsorize(x, c)
		for i := range out {
			if math.Abs(out[i]) > c+1e-12 {
				return false
			}
			for j := range out {
				if x[i] < x[j] && out[i] > out[j]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MAD is translation invariant and scale equivariant.
func TestMADEquivarianceProperty(t *testing.T) {
	f := func(raw []int8, shift int8, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		scale := 1 + float64(scaleRaw%9)
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
			y[i] = scale*float64(v) + float64(shift)
		}
		return almostEq(MAD(y), scale*MAD(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMedian(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Median(x)
	}
}

func BenchmarkBiweightMidvariance(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BiweightMidvariance(x)
	}
}
