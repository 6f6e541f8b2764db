package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"robustperiod/internal/wavelet"
)

// TestDetectWindowOffsetStability locks in the boundary-fallback fix:
// sliding a fixed-size window along a stationary periodic series must
// give (nearly) the same answer at every offset, regardless of the
// phase at the window edges. Before the reflection fallback, up to
// half the offsets failed outright.
func TestDetectWindowOffsetStability(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	long := make([]float64, 3000)
	for i := range long {
		long[i] = math.Sin(2*math.Pi*float64(i)/80) + 0.1*rng.NormFloat64()
	}
	fail := 0
	total := 0
	for off := 0; off+512 <= len(long); off += 37 {
		total++
		res, err := Detect(long[off:off+512], Options{})
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, p := range res.Periods {
			if p >= 77 && p <= 83 {
				ok = true
			}
		}
		if len(res.Periods) != 1 || !ok {
			fail++
		}
	}
	if fail > total/20 {
		t.Errorf("%d/%d window offsets mis-detected", fail, total)
	}
	// The pure-circular ablation must be measurably worse — this is
	// what the fallback exists for. (If this ever stops holding, the
	// fallback can be retired.)
	failCirc := 0
	for off := 0; off+512 <= len(long); off += 37 {
		res, err := Detect(long[off:off+512], Options{CircularBoundary: true})
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, p := range res.Periods {
			if p >= 77 && p <= 83 {
				ok = true
			}
		}
		if !ok {
			failCirc++
		}
	}
	if failCirc <= fail {
		t.Logf("circular ablation no longer worse (%d vs %d) — fallback may be unnecessary", failCirc, fail)
	}
}

// TestDetectParallelMatchesSequential verifies that running levels and
// band chunks on helper goroutines is a pure wall-clock optimization:
// the periods and every level's ordinates equal the one-worker run's.
func TestDetectParallelMatchesSequential(t *testing.T) {
	withProcs(t, 4)
	for tr := 0; tr < 4; tr++ {
		x := paperSynthetic(1000, []int{20, 50, 100}, 0.5, 0.05, int64(900+tr))
		seq, err := oneWorker(func() (*Result, error) { return Detect(x, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		par, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(seq, par); err != nil {
			t.Fatalf("trial %d: %v", tr, err)
		}
	}
}

// withProcs runs the test at GOMAXPROCS p, so detects get p−1 helper
// slots whatever the host's core count.
func withProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// oneWorker runs detect at GOMAXPROCS=1, where no helper slot exists:
// the reference every fan-out must reproduce bit for bit.
func oneWorker(detect func() (*Result, error)) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return detect()
}

// sameResult reports the first difference between two detections in
// their periods, level selection, verdicts or ordinates.
func sameResult(want, got *Result) error {
	if !slices.Equal(want.Periods, got.Periods) {
		return fmt.Errorf("periods %v, want %v", got.Periods, want.Periods)
	}
	if len(want.Levels) != len(got.Levels) {
		return fmt.Errorf("%d levels, want %d", len(got.Levels), len(want.Levels))
	}
	for j, w := range want.Levels {
		g := got.Levels[j]
		if w.Selected != g.Selected || w.Detection.Final != g.Detection.Final || w.Detection.KHat != g.Detection.KHat {
			return fmt.Errorf("level %d: selected=%v final=%d kHat=%d, want selected=%v final=%d kHat=%d",
				w.Level, g.Selected, g.Detection.Final, g.Detection.KHat, w.Selected, w.Detection.Final, w.Detection.KHat)
		}
		if !slices.Equal(w.Detection.Periodogram, g.Detection.Periodogram) {
			return fmt.Errorf("level %d: periodogram ordinates differ", w.Level)
		}
		if !slices.Equal(w.Detection.ACF, g.Detection.ACF) {
			return fmt.Errorf("level %d: ACF differs", w.Level)
		}
	}
	return nil
}

// TestPoolConcurrentDetectsFinish runs eight detects at once, each
// fanning out over its levels and then over its bands' chunks, with
// fewer helper slots than detects. All must finish (no fan-out waits
// on work that has not started), each equal to its one-worker run.
func TestPoolConcurrentDetectsFinish(t *testing.T) {
	withProcs(t, 4)
	const detects = 8
	series := make([][]float64, detects)
	refs := make([]*Result, detects)
	for g := range series {
		series[g] = paperSynthetic(1000, []int{20, 50 + 5*g, 100}, 0.3, 0.02, int64(700+g))
		ref, err := oneWorker(func() (*Result, error) { return Detect(series[g], Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		refs[g] = ref
	}
	errs := make([]error, detects)
	var wg sync.WaitGroup
	for g := range series {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Detect(series[g], Options{})
			if err == nil {
				err = sameResult(refs[g], res)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("detect %d: %v", g, err)
		}
	}
}

// TestDetectLowResMerge verifies that two adjacent-level estimates of
// one long-period component merge into a single answer, while genuine
// distinct long periods (ratio >= 1.3) survive.
func TestDetectLowResMerge(t *testing.T) {
	if !sameLowResComponent(80, 92, 512) {
		t.Error("80 vs 92 at n=512 should merge")
	}
	if sameLowResComponent(80, 120, 512) {
		t.Error("80 vs 120 should stay distinct")
	}
	if sameLowResComponent(20, 24, 512) {
		t.Error("short periods must not be merged by the low-res rule")
	}
}

// TestDetectWaveletEnergyGuard: a series whose variance sits entirely
// below the deepest wavelet level (a slow cubic) must be aperiodic.
func TestDetectWaveletEnergyGuard(t *testing.T) {
	x := make([]float64, 800)
	for i := range x {
		frac := float64(i) / 800
		x[i] = 100 * frac * frac * frac
	}
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) != 0 {
		t.Errorf("cubic trend produced periods %v", res.Periods)
	}
}

// TestDetectReflectedFallbackRecoversDeepLevel reproduces the cloud3
// situation: a period near the top of a deep level's band with few
// observed cycles, where one boundary treatment fails and the other
// succeeds.
func TestDetectReflectedFallbackRecoversDeepLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hits := 0
	trials := 8
	for tr := 0; tr < trials; tr++ {
		n := 1000
		x := make([]float64, n)
		phase := rng.Float64() * 2 * math.Pi
		for i := range x {
			x[i] = math.Sin(2*math.Pi*float64(i)/144+phase) + 0.2*rng.NormFloat64()
		}
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Periods {
			if p >= 140 && p <= 148 {
				hits++
				break
			}
		}
	}
	if hits < trials-1 {
		t.Errorf("period 144 found in only %d/%d random-phase trials", hits, trials)
	}
}

// TestDetectRobustTrendOption verifies the Huber-trend variant detects
// the same periods as the default on ordinary data and survives a
// sustained outlier block (the scenario the paper calls out: "many
// existing methods fail when outliers in the data last for some time").
func TestDetectRobustTrendOption(t *testing.T) {
	x := paperSynthetic(1000, []int{50}, 0.2, 0.01, 31)
	// Sustained block of elevated values.
	for i := 400; i < 430; i++ {
		x[i] += 15
	}
	res, err := Detect(x, Options{RobustTrend: true})
	if err != nil {
		t.Fatal(err)
	}
	if !containsNear(res.Periods, 50, 0.02) {
		t.Errorf("robust-trend variant missed the period: %v", res.Periods)
	}
	res2, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsNear(res2.Periods, 50, 0.02) {
		t.Logf("default variant missed under block outliers: %v (robust-trend found it)", res2.Periods)
	}
}

// TestDetectHaarDeepSeries sanity-checks an alternative filter on a
// deep-level period (Haar's short equivalent filters have the least
// boundary exposure).
func TestDetectHaarDeepSeries(t *testing.T) {
	x := paperSynthetic(2000, []int{300}, 0.1, 0.01, 13)
	res, err := Detect(x, Options{Wavelet: wavelet.Haar})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Periods {
		if p >= 290 && p <= 310 {
			found = true
		}
	}
	if !found {
		t.Errorf("Haar pipeline missed period 300: %v", res.Periods)
	}
}
