package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"robustperiod/internal/stat/dist"
)

// MustFilter is NewFilter that panics on an error, for the tests that
// build the package's own filter constants.
func MustFilter(k Kind) *Filter {
	f, err := NewFilter(k)
	if err != nil {
		panic(err)
	}
	return f
}

func TestFilterProperties(t *testing.T) {
	kinds := []Kind{Haar, Daub4, Daub6, Daub8, Daub10, Daub12, Daub16, Daub20, LA8, LA16}
	for _, k := range kinds {
		f, err := NewFilter(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		g, h := f.g, f.Wavelet()
		width := int(k)
		if width < 0 {
			width = -width
		}
		if len(g) != width || len(h) != width {
			t.Fatalf("%v: wrong length", k)
		}
		// Σg = √2, Σg² = 1.
		var sg, sg2, sh, sh2 float64
		for i := range g {
			sg += g[i]
			sg2 += g[i] * g[i]
			sh += h[i]
			sh2 += h[i] * h[i]
		}
		if math.Abs(sg-math.Sqrt2) > 1e-9 {
			t.Errorf("%v: Σg = %v, want √2", k, sg)
		}
		if math.Abs(sg2-1) > 1e-9 {
			t.Errorf("%v: Σg² = %v, want 1", k, sg2)
		}
		if math.Abs(sh) > 1e-9 {
			t.Errorf("%v: Σh = %v, want 0", k, sh)
		}
		if math.Abs(sh2-1) > 1e-9 {
			t.Errorf("%v: Σh² = %v, want 1", k, sh2)
		}
		// Orthogonality to even shifts: Σ g_l g_{l+2m} = 0 for m != 0,
		// and Σ g_l h_{l+2m} = 0 for all m.
		L := len(g)
		for m := 1; m < L/2; m++ {
			var gg, gh float64
			for l := 0; l+2*m < L; l++ {
				gg += g[l] * g[l+2*m]
				gh += g[l] * h[l+2*m]
			}
			if math.Abs(gg) > 1e-8 {
				t.Errorf("%v: scaling not orthogonal to shift %d: %v", k, m, gg)
			}
			if math.Abs(gh) > 1e-8 {
				t.Errorf("%v: g/h not orthogonal at shift %d: %v", k, m, gh)
			}
		}
	}
}

func TestNewFilterUnsupported(t *testing.T) {
	if _, err := NewFilter(Kind(5)); err == nil {
		t.Fatal("expected error for unsupported width")
	}
}

func TestKindString(t *testing.T) {
	if Haar.String() != "haar" || Daub8.String() != "db4" || Daub20.String() != "db10" {
		t.Error("Kind.String naming wrong")
	}
	if LA8.String() != "la8" || LA16.String() != "la16" {
		t.Error("LA naming wrong")
	}
}

func TestEquivalentWidth(t *testing.T) {
	f := MustFilter(Daub8) // L = 8
	// L_j = (2^j − 1)(L−1) + 1.
	for j, want := range map[int]int{1: 8, 2: 22, 3: 50, 4: 106} {
		if got := f.EquivalentWidth(j); got != want {
			t.Errorf("L_%d = %d, want %d", j, got, want)
		}
	}
}

func TestMaxLevel(t *testing.T) {
	f := MustFilter(Daub8)
	n := 1000
	j := MaxLevel(n, f)
	if f.EquivalentWidth(j) > n {
		t.Errorf("MaxLevel %d has L_j = %d > %d", j, f.EquivalentWidth(j), n)
	}
	if f.EquivalentWidth(j+1) <= n {
		t.Errorf("MaxLevel %d not maximal", j)
	}
	if got := MaxLevel(1, f); got != 0 {
		t.Errorf("tiny series MaxLevel = %d, want 0", got)
	}
}

func TestMODWTHaarLevel1Known(t *testing.T) {
	// Haar MODWT level-1: w[t] = (x[t] − x[t−1])/2, v[t] = (x[t]+x[t−1])/2.
	x := []float64{4, 8, 2, 6}
	m, err := Transform(x, MustFilter(Haar), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantW := []float64{(4.0 - 6) / 2, (8.0 - 4) / 2, (2.0 - 8) / 2, (6.0 - 2) / 2}
	wantV := []float64{(4.0 + 6) / 2, (8.0 + 4) / 2, (2.0 + 8) / 2, (6.0 + 2) / 2}
	for i := range x {
		if math.Abs(m.W[0][i]-wantW[i]) > 1e-12 {
			t.Errorf("w[%d] = %v, want %v", i, m.W[0][i], wantW[i])
		}
		if math.Abs(m.V[i]-wantV[i]) > 1e-12 {
			t.Errorf("v[%d] = %v, want %v", i, m.V[i], wantV[i])
		}
	}
}

func TestMODWTEnergyPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []Kind{Haar, Daub4, Daub8, Daub20} {
		f := MustFilter(k)
		for _, n := range []int{64, 100, 333} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			levels := MaxLevel(n, f)
			if levels < 1 {
				continue
			}
			m, err := Transform(x, f, levels)
			if err != nil {
				t.Fatal(err)
			}
			ex := sumSq(x)
			if em := m.Energy(); math.Abs(em-ex) > 1e-8*ex {
				t.Errorf("%v n=%d: energy %v vs %v", k, n, em, ex)
			}
		}
	}
}

func TestMODWTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []Kind{Haar, Daub8, Daub12} {
		f := MustFilter(k)
		n := 200
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		levels := MaxLevel(n, f)
		m, err := Transform(x, f, levels)
		if err != nil {
			t.Fatal(err)
		}
		y := m.Inverse()
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("%v: round trip broke at %d: %v vs %v", k, i, x[i], y[i])
			}
		}
	}
}

func TestInversePanicsOnReflected(t *testing.T) {
	x := make([]float64, 128)
	m, _ := TransformReflected(x, MustFilter(Haar), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Inverse()
}

func TestMODWTErrors(t *testing.T) {
	f := MustFilter(Daub8)
	if _, err := Transform([]float64{1, 2, 3}, f, 1); err == nil {
		t.Error("series shorter than filter should error")
	}
	if _, err := Transform(make([]float64, 100), f, 0); err == nil {
		t.Error("levels=0 should error")
	}
	if _, err := Transform(make([]float64, 16), MustFilter(Haar), 10); err == nil {
		t.Error("excessive depth should error")
	}
}

func TestMODWTIsolatesPeriodicComponent(t *testing.T) {
	// A period-32 sinusoid (frequency 1/32) lies in the level-5
	// passband [1/64, 1/32]; its energy should concentrate at level 5.
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 32)
	}
	f := MustFilter(Daub8)
	levels := MaxLevel(n, f)
	m, err := Transform(x, f, levels)
	if err != nil {
		t.Fatal(err)
	}
	best, bestE := 0, -1.0
	for j := 1; j <= levels; j++ {
		if e := sumSq(m.W[j-1]); e > bestE {
			bestE = e
			best = j
		}
	}
	// Period T=32: 2^j <= T < 2^{j+1} gives j=5.
	if best != 5 {
		t.Errorf("dominant level = %d, want 5", best)
	}
}

func TestRobustVariancesRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/50) + 0.05*rng.NormFloat64()
	}
	f := MustFilter(Daub8)
	levels := MaxLevel(n, f)
	m, _ := Transform(x, f, levels)
	vars := m.RobustVariances(16)
	if len(vars) != levels {
		t.Fatalf("got %d variances", len(vars))
	}
	best := 0
	for i, lv := range vars {
		if lv.Level != i+1 {
			t.Fatalf("level numbering broken")
		}
		if lv.Variance < 0 {
			t.Fatalf("negative variance at level %d", lv.Level)
		}
		if lv.Variance > vars[best].Variance {
			best = i
		}
	}
	// T=50 sits in [32, 64) → level 5.
	if vars[best].Level != 5 {
		t.Errorf("max-variance level = %d, want 5", vars[best].Level)
	}
}

func TestRobustVariancesResistOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 512
	clean := make([]float64, n)
	for i := range clean {
		clean[i] = math.Sin(2*math.Pi*float64(i)/50) + 0.05*rng.NormFloat64()
	}
	dirty := append([]float64(nil), clean...)
	for k := 0; k < n/50; k++ {
		dirty[rng.Intn(n)] += 30
	}
	f := MustFilter(Daub8)
	levels := MaxLevel(n, f)
	mc, _ := Transform(clean, f, levels)
	md, _ := Transform(dirty, f, levels)
	vc := mc.RobustVariances(16)
	vd := md.RobustVariances(16)
	// The dominant (periodic) level must stay the same despite spikes.
	argmax := func(v []LevelVariance) int {
		b := 0
		for i := range v {
			if v[i].Variance > v[b].Variance {
				b = i
			}
		}
		return v[b].Level
	}
	if argmax(vc) != argmax(vd) {
		t.Errorf("outliers changed the dominant level: %d vs %d", argmax(vc), argmax(vd))
	}
	// Classical variances, by contrast, inflate a lot at the spike-
	// dominated fine levels.
	cd := md.ClassicalVariances(16)
	if cd[0].Variance < 5*vd[0].Variance {
		t.Errorf("sanity: classical level-1 variance should blow up (classical %v robust %v)",
			cd[0].Variance, vd[0].Variance)
	}
}

func TestVarianceBoundaryExclusion(t *testing.T) {
	f := MustFilter(Daub8)
	n := 300
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	m, _ := Transform(x, f, 3)
	vars := m.RobustVariances(16)
	for _, lv := range vars {
		lj := f.EquivalentWidth(lv.Level)
		if n-lj+1 >= 16 {
			if lv.Boundary != lj-1 || lv.Count != n-lj+1 {
				t.Errorf("level %d: boundary=%d count=%d, want %d/%d",
					lv.Level, lv.Boundary, lv.Count, lj-1, n-lj+1)
			}
		} else if lv.Boundary != 0 || lv.Count != n {
			t.Errorf("level %d: fallback not applied", lv.Level)
		}
	}
}

func TestDWTHaarKnown(t *testing.T) {
	// Periodic Haar DWT of {4,8,2,6}, level 1:
	// V[t] = (x[2t] + x[2t+1])/√2, W[t] = (x[2t+1] − x[2t])/√2
	// (sign convention depends on QMF; check energy and magnitudes).
	x := []float64{4, 8, 2, 6}
	d, err := DWTransform(x, MustFilter(Haar), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.W[0]) != 2 || len(d.V) != 2 {
		t.Fatalf("wrong sizes: %d %d", len(d.W[0]), len(d.V))
	}
	s2 := math.Sqrt2
	wantV := []float64{12 / s2, 8 / s2}
	wantWAbs := []float64{4 / s2, 4 / s2}
	for i := range wantV {
		if math.Abs(d.V[i]-wantV[i]) > 1e-12 {
			t.Errorf("V[%d] = %v, want %v", i, d.V[i], wantV[i])
		}
		if math.Abs(math.Abs(d.W[0][i])-wantWAbs[i]) > 1e-12 {
			t.Errorf("|W[%d]| = %v, want %v", i, math.Abs(d.W[0][i]), wantWAbs[i])
		}
	}
}

func TestDWTEnergyPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []Kind{Haar, Daub4, Daub8} {
		f := MustFilter(k)
		n := 256
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		d, err := DWTransform(x, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		ex := sumSq(x)
		if e := d.Energy(); math.Abs(e-ex) > 1e-8*ex {
			t.Errorf("%v: DWT energy %v vs %v", k, e, ex)
		}
	}
}

func TestDWTTruncatesOddLengths(t *testing.T) {
	x := make([]float64, 103)
	for i := range x {
		x[i] = float64(i)
	}
	d, err := DWTransform(x, MustFilter(Haar), 3)
	if err != nil {
		t.Fatal(err)
	}
	// 103 → truncated to 96; level sizes 48, 24, 12.
	if len(d.W[0]) != 48 || len(d.W[1]) != 24 || len(d.W[2]) != 12 || len(d.V) != 12 {
		t.Errorf("level sizes: %d %d %d %d", len(d.W[0]), len(d.W[1]), len(d.W[2]), len(d.V))
	}
}

func TestDWTErrors(t *testing.T) {
	if _, err := DWTransform([]float64{1}, MustFilter(Haar), 1); err == nil {
		t.Error("too-short series should error")
	}
	if _, err := DWTransform(make([]float64, 64), MustFilter(Haar), 0); err == nil {
		t.Error("levels=0 should error")
	}
}

// Property: MODWT of a constant series has (near-)zero wavelet
// coefficients at every level — the wavelet filter kills constants.
func TestMODWTKillsConstantsProperty(t *testing.T) {
	f := func(cRaw int8, nRaw uint8) bool {
		n := 64 + int(nRaw)
		c := float64(cRaw)
		x := make([]float64, n)
		for i := range x {
			x[i] = c
		}
		m, err := Transform(x, MustFilter(Daub4), 3)
		if err != nil {
			return false
		}
		for _, w := range m.W {
			for _, v := range w {
				if math.Abs(v) > 1e-9*(math.Abs(c)+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MODWT is linear.
func TestMODWTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		a := rng.NormFloat64()
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			z[i] = x[i] + a*y[i]
		}
		fl := MustFilter(Daub4)
		mx, _ := Transform(x, fl, 3)
		my, _ := Transform(y, fl, 3)
		mz, _ := Transform(z, fl, 3)
		for j := 0; j < 3; j++ {
			for t := 0; t < n; t++ {
				if math.Abs(mz.W[j][t]-(mx.W[j][t]+a*my.W[j][t])) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMODWTGaussianizes empirically verifies the paper's §3.3.1 claim
// (via its reference [35], Mallows: "linear processes are nearly
// Gaussian"): wavelet coefficients of heavy-tailed noise are closer to
// Gaussian than the raw series, because each coefficient is a weighted
// sum. The KS distance to a fitted normal must shrink at coarser
// levels, where the effective filters are longer.
func TestMODWTGaussianizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4096
	x := make([]float64, n)
	for i := range x {
		// Student-t(3)-like heavy tails: normal over sqrt(chi2/df).
		den := math.Sqrt((sq(rng.NormFloat64()) + sq(rng.NormFloat64()) + sq(rng.NormFloat64())) / 3)
		if den < 0.05 {
			den = 0.05
		}
		x[i] = rng.NormFloat64() / den
	}
	m, err := Transform(x, MustFilter(Daub8), 5)
	if err != nil {
		t.Fatal(err)
	}
	ksOf := func(v []float64) float64 {
		var mean, sd float64
		for _, u := range v {
			mean += u
		}
		mean /= float64(len(v))
		for _, u := range v {
			sd += (u - mean) * (u - mean)
		}
		sd = math.Sqrt(sd / float64(len(v)))
		return dist.KSStatisticNormal(v, mean, sd)
	}
	raw := ksOf(x)
	level4 := ksOf(m.W[3])
	if level4 >= raw {
		t.Errorf("level-4 coefficients (D=%v) should be more Gaussian than raw data (D=%v)", level4, raw)
	}
	// And the coarser the level, the more Gaussian (longer filters).
	level1 := ksOf(m.W[0])
	if level4 >= level1 {
		t.Errorf("level 4 (D=%v) should beat level 1 (D=%v)", level4, level1)
	}
}

func sq(v float64) float64 { return v * v }

func BenchmarkMODWT(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 2048)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f := MustFilter(Daub8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transform(x, f, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustVariances(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 2048)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f := MustFilter(Daub8)
	m, _ := Transform(x, f, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RobustVariances(16)
	}
}
