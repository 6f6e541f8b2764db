package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/wavelet"
)

// armFaults installs a fault plan for the test and guarantees it is
// disarmed on cleanup.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	faults.Enable(faults.MustParse(spec))
	t.Cleanup(faults.Disable)
}

func hasReason(degs []Degradation, reason string) bool {
	for _, d := range degs {
		if d.Reason == reason {
			return true
		}
	}
	return false
}

func TestConstantSeriesFastPath(t *testing.T) {
	for _, c := range []float64{0, 1, -273.15, 1e9} {
		x := make([]float64, 128)
		for i := range x {
			x[i] = c
		}
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatalf("constant %g: %v", c, err)
		}
		if len(res.Periods) != 0 {
			t.Errorf("constant %g: periods = %v, want none", c, res.Periods)
		}
		if !hasReason(res.Degraded, ReasonConstantSeries) {
			t.Errorf("constant %g: Degraded = %v, want %s", c, res.Degraded, ReasonConstantSeries)
		}
	}
	// Near-constant: one part in 10^14 of jitter is numerical noise,
	// not seasonality.
	x := make([]float64, 128)
	for i := range x {
		x[i] = 5e6 + 1e-8*float64(i%2)
	}
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) != 0 || !hasReason(res.Degraded, ReasonConstantSeries) {
		t.Errorf("near-constant: periods=%v degraded=%v", res.Periods, res.Degraded)
	}
	// A sparse spike train has MAD 0 but is genuinely periodic — it
	// must NOT take the constant fast path.
	spikes := make([]float64, 256)
	for i := 0; i < 256; i += 32 {
		spikes[i] = 10
	}
	res, err = Detect(spikes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasReason(res.Degraded, ReasonConstantSeries) {
		t.Error("spike train misclassified as constant")
	}
}

func TestConstantSeriesStillValidatesOptions(t *testing.T) {
	if _, err := Detect(make([]float64, 100), Options{Wavelet: wavelet.Kind(7)}); err == nil {
		t.Error("bad wavelet must error even on degenerate input")
	}
}

func TestFillMissing(t *testing.T) {
	x := paperSynthetic(600, []int{50}, 0.05, 0, 3)
	// Punch a few holes, including a run.
	for _, i := range []int{10, 11, 12, 200, 433} {
		x[i] = math.NaN()
	}
	if _, err := Detect(x, Options{}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN without FillMissing: err = %v, want ErrNonFinite", err)
	}
	res, err := Detect(x, Options{FillMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 / 600
	if math.Abs(res.FilledFraction-want) > 1e-12 {
		t.Errorf("FilledFraction = %g, want %g", res.FilledFraction, want)
	}
	found := false
	for _, p := range res.Periods {
		if p >= 48 && p <= 52 {
			found = true
		}
	}
	if !found {
		t.Errorf("period 50 lost after filling 5 gaps: %v", res.Periods)
	}
}

func TestFillMissingRejectsInfAndSparse(t *testing.T) {
	x := paperSynthetic(100, []int{20}, 0.05, 0, 4)
	x[30] = math.Inf(1)
	if _, err := Detect(x, Options{FillMissing: true}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf: err = %v, want ErrNonFinite", err)
	}
	x = paperSynthetic(100, []int{20}, 0.05, 0, 4)
	for i := 0; i < 51; i++ {
		x[i] = math.NaN()
	}
	if _, err := Detect(x, Options{FillMissing: true}); !errors.Is(err, ErrTooManyMissing) {
		t.Errorf("51%% missing: err = %v, want ErrTooManyMissing", err)
	}
}

// TestSolverFaultDegradesNotFails is the heart of the graceful
// degradation contract: with the robust periodogram solver broken,
// detection still returns and still finds the period via the
// classical-periodogram fallback (robust ACF validation unchanged).
func TestSolverFaultDegradesNotFails(t *testing.T) {
	armFaults(t, "spectrum/solver:error")
	hits := 0
	const trials = 5
	for s := int64(0); s < trials; s++ {
		x := paperSynthetic(1000, []int{50}, 0.1, 0, 100+s)
		res, err := Detect(x, Options{})
		if err != nil {
			t.Fatalf("seed %d: degraded detection errored: %v", s, err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("seed %d: no degradation annotation under solver fault", s)
		}
		for _, p := range res.Periods {
			if p >= 48 && p <= 52 {
				hits++
				break
			}
		}
	}
	if hits < trials-1 {
		t.Errorf("degraded pipeline found period 50 in %d/%d trials", hits, trials)
	}
}

func TestHPRobustFaultFallsBackToClassicalTrend(t *testing.T) {
	armFaults(t, "hp/robust_solver:error")
	x := paperSynthetic(800, []int{40}, 0.1, 0, 7)
	res, err := Detect(x, Options{RobustTrend: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hasReason(res.Degraded, ReasonHPRobustFallback) {
		t.Errorf("Degraded = %v, want %s", res.Degraded, ReasonHPRobustFallback)
	}
	if len(res.Periods) == 0 {
		t.Error("no periods after HP fallback")
	}
}

func TestMODWTFaultDegradesToDirectDetection(t *testing.T) {
	armFaults(t, "wavelet/transform:error")
	x := paperSynthetic(1000, []int{50}, 0.1, 0, 9)
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasReason(res.Degraded, ReasonMODWTFailed) {
		t.Fatalf("Degraded = %v, want %s", res.Degraded, ReasonMODWTFailed)
	}
	found := false
	for _, p := range res.Periods {
		if p >= 48 && p <= 52 {
			found = true
		}
	}
	if !found {
		t.Errorf("direct fallback lost period 50: %v", res.Periods)
	}
}

func TestLevelFaultSkipsLevelOnly(t *testing.T) {
	// One level fails; the others still report. times=1 so exactly one
	// of the selected levels is hit.
	armFaults(t, "core/level:error:times=1")
	x := paperSynthetic(1000, []int{20, 100}, 0.1, 0, 11)
	res, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasReason(res.Degraded, ReasonLevelFailed) {
		t.Fatalf("Degraded = %v, want %s", res.Degraded, ReasonLevelFailed)
	}
	if len(res.Periods) == 0 {
		t.Error("losing one level lost every period")
	}
}

func TestLevelPanicIsContained(t *testing.T) {
	// GOMAXPROCS=1 runs every level on the caller; 4 puts levels on
	// helpers too.
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		armFaults(t, "core/level:panic:times=1")
		x := paperSynthetic(1000, []int{20, 100}, 0.1, 0, 13)
		res, err := Detect(x, Options{})
		faults.Disable()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !hasReason(res.Degraded, ReasonLevelPanic) {
			t.Fatalf("procs=%d: Degraded = %v, want %s", procs, res.Degraded, ReasonLevelPanic)
		}
		if len(res.Periods) == 0 {
			t.Errorf("procs=%d: one panicking level lost every period", procs)
		}
	}
}

func TestStageBudgetDegradesWithinLiveContext(t *testing.T) {
	// A 1ns explicit budget forces every robust solve past its budget
	// immediately; the parent context stays live, so each level must
	// fall back to the classical periodogram rather than error.
	x := paperSynthetic(1000, []int{50}, 0.1, 0, 17)
	res, err := Detect(x, Options{StageBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !hasReason(res.Degraded, "periodogram_budget_exceeded") {
		t.Fatalf("Degraded = %v, want periodogram_budget_exceeded", res.Degraded)
	}
	found := false
	for _, p := range res.Periods {
		if p >= 48 && p <= 52 {
			found = true
		}
	}
	if !found {
		t.Errorf("budget fallback lost period 50: %v", res.Periods)
	}
}

// TestDeadlineBudgetBoundsStalledStage stalls every robust solve until
// its budget runs out, under a live deadline. The budget derived from
// the deadline must end the periodogram stage within 80% of the
// remaining time however the levels are scheduled, boundary retries
// included, so the detect comes back degraded and not with
// DeadlineExceeded: with levels and chunks on helpers (GOMAXPROCS 4)
// and on the caller alone (GOMAXPROCS 1, no helper slot).
func TestDeadlineBudgetBoundsStalledStage(t *testing.T) {
	// Noisy enough that most selected levels are not periodic, so most
	// levels also take the boundary retry.
	x := paperSynthetic(1000, []int{100}, 1, 0, 29)
	for _, procs := range []int{4, 1} {
		prev := runtime.GOMAXPROCS(procs)
		armFaults(t, "spectrum/stall:delay=1h")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := DetectContext(ctx, x, Options{})
		cancel()
		faults.Disable()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("procs=%d: stalled stage under a deadline: %v, want a degraded result", procs, err)
		}
		selected := 0
		for _, lv := range res.Levels {
			if lv.Selected {
				selected++
			}
		}
		if selected < 2 {
			t.Fatalf("procs=%d: %d level selected; the test needs the budget split", procs, selected)
		}
		if !hasReason(res.Degraded, "periodogram_budget_exceeded") {
			t.Fatalf("procs=%d: Degraded = %v, want periodogram_budget_exceeded", procs, res.Degraded)
		}
	}
}

func TestExpiredDeadlineStillErrors(t *testing.T) {
	// Degradation must never mask a dead caller: an already-expired
	// context returns the context error, not a degraded result.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	x := paperSynthetic(1000, []int{50}, 0.1, 0, 19)
	if _, err := DetectContext(ctx, x, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestNegativeStageBudgetDisablesDerivation(t *testing.T) {
	// With StageBudget < 0 a generous deadline must not introduce
	// budget machinery: the result is identical to the unbounded run.
	x := paperSynthetic(1000, []int{20, 100}, 0.1, 0, 23)
	plain, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	bounded, err := DetectContext(ctx, x, Options{StageBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Periods) != len(bounded.Periods) {
		t.Fatalf("periods differ: %v vs %v", plain.Periods, bounded.Periods)
	}
	for i := range plain.Periods {
		if plain.Periods[i] != bounded.Periods[i] {
			t.Fatalf("periods differ: %v vs %v", plain.Periods, bounded.Periods)
		}
	}
	if len(bounded.Degraded) != 0 {
		t.Errorf("unexpected degradations: %v", bounded.Degraded)
	}
}

// TestDisabledFaultsZeroOverhead pins the hot-path cost of the fault
// framework at zero allocations when no plan is armed.
func TestDisabledFaultsZeroOverhead(t *testing.T) {
	faults.Disable()
	if n := testing.AllocsPerRun(1000, func() {
		if faults.Check(faults.PointCoreLevel) != nil {
			t.Fail()
		}
		if faults.Check(faults.PointSpectrumSolver) != nil {
			t.Fail()
		}
	}); n != 0 {
		t.Errorf("disabled fault checks allocate %v objects/op, want 0", n)
	}
}
