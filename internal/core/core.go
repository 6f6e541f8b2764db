// Package core implements the complete RobustPeriod pipeline (Fig. 1
// of the paper): HP-filter detrending and winsorized normalization,
// MODWT decoupling of multiple periodicities, robust wavelet-variance
// ranking of levels, and per-level robust single-periodicity detection
// via the Huber-periodogram Fisher test and Huber-ACF-Med validation.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"

	"sort"
	"sync"
	"time"

	"robustperiod/internal/detect"
	"robustperiod/internal/dsp/fft"
	"robustperiod/internal/faults"
	"robustperiod/internal/filter/hp"
	"robustperiod/internal/obs"
	"robustperiod/internal/par"
	"robustperiod/internal/spectrum"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/synthetic"
	"robustperiod/internal/trace"
	"robustperiod/internal/wavelet"
)

// Sentinel errors for structurally invalid input, exposed so callers
// (the HTTP service in particular) can map them to distinct client
// error codes with errors.Is rather than string matching.
var (
	// ErrNonFinite marks input containing Inf, or NaN when
	// Options.FillMissing is off.
	ErrNonFinite = errors.New("core: non-finite input")
	// ErrTooManyMissing marks input where more than half the samples
	// are NaN — too sparse for interpolation to preserve periodic
	// structure.
	ErrTooManyMissing = errors.New("core: too many missing values")
)

// Degradation records one graceful-degradation event: the pipeline
// kept going but substituted a cheaper or more conservative step, so
// the result may be lower quality than a clean run. Stage names match
// the trace package's stage constants; Level is the 1-based wavelet
// level for level-scoped events and 0 otherwise.
type Degradation struct {
	Stage  string `json:"stage"`
	Level  int    `json:"level,omitempty"`
	Reason string `json:"reason"`
}

// degrade appends one graceful-degradation annotation and logs it
// against the request scope carried in ctx (if any) — every fallback
// decision inside the pipeline is correlated with the request ID the
// client received. Outside a serving context (library use, tests) the
// log side is a no-op.
func (res *Result) degrade(ctx context.Context, d Degradation) {
	res.Degraded = append(res.Degraded, d)
	obs.Warn(ctx, "pipeline degraded",
		slog.String("stage", d.Stage),
		slog.Int("level", d.Level),
		slog.String("reason", d.Reason))
}

// Degradation reasons. The per-level detector additionally reports
// detect.ReasonBudgetExceeded and detect.ReasonSolverFailed through
// the same channel.
const (
	// ReasonConstantSeries: the input was (numerically) constant, so
	// the empty period set was returned without running the pipeline.
	ReasonConstantSeries = "constant_series"
	// ReasonTrendResidue: the HP trend fit left essentially no
	// residual; the series was declared aperiodic instead of
	// normalizing filter residue into a fake oscillation.
	ReasonTrendResidue = "trend_residue"
	// ReasonScalingBandResidue: the wavelet levels jointly carried a
	// negligible share of the variance; everything lives in the
	// slow-trend scaling band and the levels were not searched.
	ReasonScalingBandResidue = "scaling_band_residue"
	// ReasonHPRobustFallback: the robust (Huber-loss) trend solve
	// failed and the classical quadratic-loss HP trend was used.
	ReasonHPRobustFallback = "hp_robust_fallback"
	// ReasonMODWTFailed: the wavelet decomposition failed; the
	// pipeline fell back to direct single-period detection on the
	// preprocessed series.
	ReasonMODWTFailed = "modwt_failed"
	// ReasonLevelFailed: one wavelet level's detection failed; the
	// level was skipped and the remaining levels proceeded.
	ReasonLevelFailed = "level_failed"
	// ReasonLevelPanic: one wavelet level's detection panicked; the
	// panic was contained to that level.
	ReasonLevelPanic = "level_panic"
)

// Options configures the pipeline. The zero value gives the paper's
// defaults.
type Options struct {
	// Lambda is the Hodrick–Prescott smoothing parameter. <= 0 selects
	// it automatically so the trend filter's half-gain cutoff sits at
	// period n/2 — the longest period the detector can report — which
	// keeps all detectable seasonality out of the estimated trend.
	Lambda float64
	// ClipC is the winsorizing constant c of Ψ (§3.2); <= 0 means 3.
	ClipC float64
	// Wavelet selects the Daubechies family; 0 means Daub8 (db4).
	Wavelet wavelet.Kind
	// MaxLevels caps the MODWT depth; <= 0 means the deepest level
	// whose equivalent filter fits the series.
	MaxLevels int
	// EnergyShare is the cumulative share of total wavelet variance
	// that the processed levels must cover (§3.3.2); <= 0 means 0.95,
	// >= 1 processes every level.
	EnergyShare float64
	// MinLevelCount is the minimum number of non-boundary coefficients
	// required for the unbiased variance; <= 0 means 16.
	MinLevelCount int
	// MinResidualRatio guards against trend-ringing artifacts: if the
	// robust scale of the detrended series is below this fraction of
	// the raw series' scale, the series is declared aperiodic (the
	// "seasonality" would be numerical residue of the HP filter,
	// re-amplified by normalization). <= 0 means 1e-4.
	MinResidualRatio float64
	// Detect configures the per-level single-period detector.
	Detect detect.Config
	// StageBudget bounds each per-level robust periodogram solve. A
	// level that exhausts its budget degrades to the classical
	// periodogram (robust ACF validation still runs) and the result is
	// annotated in Result.Degraded. 0 (the default) derives a budget
	// from the context deadline when one is present: 80% of the
	// remaining time for the whole periodogram stage, split equally
	// across the selected levels, and no solve runs past the stage's
	// end however many levels run at once. Negative disables budgeting
	// even under a deadline; positive is an explicit per-level budget.
	StageBudget time.Duration
	// FillMissing linearly interpolates NaN runs in the input before
	// detection (flat extension at the edges) instead of rejecting
	// them; the filled share is reported in Result.FilledFraction.
	// Series that are more than half NaN are rejected with
	// ErrTooManyMissing, and Inf is always rejected.
	FillMissing bool

	// SkipPreprocess feeds the raw series to the MODWT (for data that
	// is already detrended and normalized).
	SkipPreprocess bool
	// RobustTrend replaces the quadratic HP data-fidelity term with a
	// Huber loss (IRLS-solved), keeping sustained spikes from dragging
	// the trend estimate; useful when outliers last long enough that
	// the winsorizing step alone cannot contain them.
	RobustTrend bool
	// FullRobustBand computes robust ordinates on the whole usable
	// band instead of only the level's nominal passband (ablation; the
	// paper's speedup is the passband restriction).
	FullRobustBand bool
	// NonRobust switches to classical wavelet variance, the vanilla
	// periodogram and vanilla ACF — the paper's NR-RobustPeriod
	// ablation.
	NonRobust bool
	// NoHarmonicFilter disables the full-series ACF-hill check that
	// suppresses harmonic false positives of non-sinusoidal waves
	// (ablation switch).
	NoHarmonicFilter bool
	// Trace, when non-nil, collects per-stage wall time, allocation
	// counts and stage diagnostics across the whole pipeline; the
	// summary lands in Result.Trace. A nil Trace (the default) is
	// free: the pipeline performs no timing work at all.
	Trace *trace.Trace
	// CircularBoundary disables the reflection-boundary fallback
	// (ablation switch). By default a level whose detection fails on
	// the circular MODWT is retried on a reflection-extended MODWT:
	// the circular wrap joins x[N−1] to x[0] with an arbitrary phase
	// jump, while reflection joins x to its own mirror image — each
	// treatment has a data-dependent boundary defect at deep levels
	// (whose equivalent filters span most of the series), and a
	// genuine periodicity passes validation under at least one of
	// them, whereas noise must pass the full Fisher+ACF gauntlet
	// twice to false-positive.
	CircularBoundary bool
}

func (o Options) withDefaults(n int) Options {
	if o.Lambda <= 0 {
		o.Lambda = hp.LambdaForCutoff(float64(n) / 2)
	}
	if o.ClipC <= 0 {
		o.ClipC = 3
	}
	if o.Wavelet == 0 {
		o.Wavelet = wavelet.Daub8
	}
	if o.EnergyShare <= 0 {
		o.EnergyShare = 0.95
	}
	if o.MinLevelCount <= 0 {
		o.MinLevelCount = 16
	}
	if o.MinResidualRatio <= 0 {
		o.MinResidualRatio = 1e-4
	}
	if o.NonRobust {
		o.Detect.MPOpts.Loss = spectrum.LossL2
	}
	return o
}

// LevelDetail reports what happened at one wavelet level.
type LevelDetail struct {
	Level     int
	Variance  wavelet.LevelVariance
	Selected  bool          // ranked into the dominating-energy set
	Detection detect.Result // populated only when Selected
}

// Result is the full pipeline output.
type Result struct {
	// Periods are the detected period lengths, ascending, deduplicated.
	Periods []int
	// Levels holds per-level diagnostics in level order (Fig. 5).
	Levels []LevelDetail
	// Preprocessed is the detrended, winsorized series fed to the MODWT.
	Preprocessed []float64
	// Trend is the HP trend removed during preprocessing (nil when
	// SkipPreprocess).
	Trend []float64
	// Trace is the per-stage timing/diagnostic summary; populated only
	// when Options.Trace was set.
	Trace *trace.Summary
	// Degraded lists every graceful-degradation event of the run, in
	// the order encountered; empty on a clean full-quality detection.
	Degraded []Degradation
	// FilledFraction is the share of input samples that were NaN and
	// interpolated before detection (Options.FillMissing only).
	FilledFraction float64
}

// Detect runs RobustPeriod on y and returns every detected periodicity.
func Detect(y []float64, opts Options) (*Result, error) {
	return DetectContext(context.Background(), y, opts)
}

// DetectContext is Detect with cooperative cancellation: ctx is
// checked between pipeline stages, before each per-level detection,
// and (through spectrum.Options.Ctx) inside the per-frequency robust
// regressions, so a cancelled or expired context stops the heavy
// periodogram work mid-flight. The first error returned after
// cancellation is ctx.Err().
func DetectContext(ctx context.Context, y []float64, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(y)
	opts = opts.withDefaults(n)
	// Hand the context to every robust-periodogram solve downstream,
	// and the trace to every stage.
	opts.Detect.MPOpts.Ctx = ctx
	tr := opts.Trace
	opts.Detect.Trace = tr
	if tr.Enabled() {
		defer func() {
			if err == nil && res != nil {
				s := tr.Summary()
				res.Trace = &s
			}
		}()
	}
	if n < 16 {
		return nil, fmt.Errorf("core: series too short (%d < 16)", n)
	}
	missing := 0
	for i, v := range y {
		if math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: Inf at index %d", ErrNonFinite, i)
		}
		if math.IsNaN(v) {
			if !opts.FillMissing {
				return nil, fmt.Errorf("%w: NaN at index %d; fill gaps first (e.g. robustperiod.Interpolate) or set Options.FillMissing", ErrNonFinite, i)
			}
			missing++
		}
	}
	if missing*2 > n {
		return nil, fmt.Errorf("%w: %d of %d samples are NaN", ErrTooManyMissing, missing, n)
	}
	if missing > 0 {
		mask := make([]bool, n)
		filled := make([]float64, n)
		for i, v := range y {
			filled[i] = v
			mask[i] = math.IsNaN(v)
		}
		synthetic.InterpolateMasked(filled, mask)
		y = filled
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Validate structural options before any fast path can return, so
	// a bad configuration always errors rather than silently "working"
	// on degenerate input.
	f, err := wavelet.NewFilter(opts.Wavelet)
	if err != nil {
		return nil, err
	}

	res = &Result{FilledFraction: float64(missing) / float64(n)}

	// Degenerate input: a (numerically) constant series carries no
	// oscillation, and pushing it through detrending + normalization
	// would only amplify rounding noise. Report the empty period set
	// immediately. The peak-to-peak test is deliberate — a robust
	// scale like the MAD is zero for sparse spike trains too, and
	// those are genuinely periodic.
	lo, hi := y[0], y[0]
	for _, v := range y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if span := math.Max(math.Abs(lo), math.Abs(hi)); hi-lo <= 1e-12*span {
		res.degrade(ctx, Degradation{Stage: trace.StageHPFilter, Reason: ReasonConstantSeries})
		res.Preprocessed = make([]float64, n)
		return res, nil
	}

	// Resolve the per-level periodogram budget: explicit > derived
	// from the deadline > none. The derived budget spends at most 80%
	// of the remaining time on periodogram solves, ending at stageEnd,
	// so even a pathological solve leaves room for validation before
	// the deadline; the split across levels is applied once the
	// selection is known, below.
	budget := opts.StageBudget
	var stageEnd time.Time // set only for a derived budget
	if budget == 0 {
		if dl, ok := ctx.Deadline(); ok {
			if remain := time.Until(dl); remain > 0 {
				budget = remain * 4 / 5
				stageEnd = dl.Add(-remain / 5)
			}
		}
	}
	if budget > 0 {
		opts.Detect.Budget = budget
	}

	x := y
	if !opts.SkipPreprocess {
		st := tr.StartStage(trace.StageHPFilter)
		var detrended, trend []float64
		if opts.RobustTrend {
			var irlsIters int
			var herr error
			trend, irlsIters, herr = hp.RobustTrendFilter(y, opts.Lambda, 0, 0)
			if herr != nil {
				// The IRLS solve failed; RobustTrendFilter already
				// handed back the classical quadratic-loss trend, so
				// detection proceeds at slightly reduced outlier
				// resistance rather than aborting.
				res.degrade(ctx, Degradation{Stage: trace.StageHPFilter, Reason: ReasonHPRobustFallback})
				tr.Count(trace.StageHPFilter, "robust_trend_fallbacks", 1)
			}
			tr.Count(trace.StageHPFilter, "irls_iters", int64(irlsIters))
			detrended = make([]float64, n)
			for i := range y {
				detrended[i] = y[i] - trend[i]
			}
		} else {
			detrended, trend = hp.Detrend(y, opts.Lambda)
		}
		res.Trend = trend
		// Scale guard: an essentially perfect trend fit means whatever
		// remains is filter residue, not seasonality. Normalizing it
		// would manufacture a spurious oscillation at the HP filter's
		// ringing period.
		rawScale := robust.MADN(y)
		if rawScale > 0 && robust.MADN(detrended) < opts.MinResidualRatio*rawScale {
			res.degrade(ctx, Degradation{Stage: trace.StageHPFilter, Reason: ReasonTrendResidue})
			res.Preprocessed = detrended
			st.End()
			return res, nil
		}
		x = robust.Winsorize(detrended, opts.ClipC)
		st.End()
	} else {
		x = append([]float64(nil), y...)
	}
	res.Preprocessed = x

	levels := wavelet.MaxLevel(n, f)
	if opts.MaxLevels > 0 && opts.MaxLevels < levels {
		levels = opts.MaxLevels
	}
	if levels < 1 {
		// Series too short for any MODWT level with this filter:
		// degrade gracefully to direct single-period detection.
		det, derr := detect.Single(x, 1, n-1, opts.Detect)
		if derr != nil {
			return nil, derr
		}
		if det.Degraded != "" {
			res.degrade(ctx, Degradation{Stage: trace.StagePeriodogram, Reason: det.Degraded})
		}
		if det.Periodic {
			res.Periods = []int{det.Final}
		}
		res.Levels = []LevelDetail{{Level: 0, Selected: true, Detection: det}}
		return res, nil
	}

	m, err := wavelet.TransformTraced(x, f, levels, tr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The decomposition failed. Multi-periodicity separation is
		// lost, but direct single-period detection on the preprocessed
		// series still recovers the dominant component.
		det, derr := detect.Single(x, 1, n-1, opts.Detect)
		if derr != nil {
			return nil, err
		}
		res.degrade(ctx, Degradation{Stage: trace.StageMODWT, Reason: ReasonMODWTFailed})
		if det.Degraded != "" {
			res.degrade(ctx, Degradation{Stage: trace.StagePeriodogram, Reason: det.Degraded})
		}
		tr.Count(trace.StageMODWT, "modwt_fallbacks", 1)
		if det.Periodic {
			res.Periods = []int{det.Final}
		}
		res.Levels = []LevelDetail{{Level: 0, Selected: true, Detection: det}}
		return res, nil
	}
	// Reflection-extended transform, built lazily for the boundary
	// fallback below.
	var mr *wavelet.MODWT
	var mrOnce sync.Once
	reflected := func() *wavelet.MODWT {
		mrOnce.Do(func() {
			st := tr.StartStage(trace.StageMODWT)
			mr, _ = wavelet.TransformReflected(x, f, levels)
			st.End()
		})
		return mr
	}
	st := tr.StartStage(trace.StageRanking)
	var vars []wavelet.LevelVariance
	if opts.NonRobust {
		vars = m.ClassicalVariances(opts.MinLevelCount)
	} else {
		vars = m.RobustVariances(opts.MinLevelCount)
	}

	res.Levels = make([]LevelDetail, levels)
	total := 0.0
	for j := range vars {
		res.Levels[j] = LevelDetail{Level: j + 1, Variance: vars[j]}
		total += vars[j].Variance
	}

	// If the wavelet levels jointly carry a negligible share of the
	// series' variance, everything lives in the scaling (slow-trend)
	// band below the deepest level — typically the smooth ringing
	// residue of detrending a strong trend. The levels then contain
	// only a coherent echo of that residue and any "period" found in
	// them is an artifact.
	if xVar := robust.BiweightMidvariance(x); total < 0.01*xVar {
		res.degrade(ctx, Degradation{Stage: trace.StageRanking, Reason: ReasonScalingBandResidue})
		st.End()
		return res, nil
	}

	// Rank levels by variance and keep the dominating-energy prefix.
	order := make([]int, levels)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return vars[order[a]].Variance > vars[order[b]].Variance
	})
	selected := order
	if opts.EnergyShare < 1 && total > 0 {
		cum := 0.0
		for i, idx := range order {
			cum += vars[idx].Variance
			if cum >= opts.EnergyShare*total {
				selected = order[:i+1]
				break
			}
		}
	}
	st.End()
	tr.Count(trace.StageRanking, "levels_ranked", int64(levels))
	tr.Count(trace.StageRanking, "levels_selected", int64(len(selected)))

	// A derived budget is for the whole periodogram stage: each level
	// gets an equal share of it, and levelConfig caps every solve, a
	// boundary retry included, at the stage's end. Levels that wait
	// for a core or run side by side thus never stretch the stage past
	// 80% of the remaining time.
	if !stageEnd.IsZero() {
		opts.Detect.Budget /= time.Duration(len(selected))
	}
	levelConfig := func() detect.Config {
		cfg := opts.Detect
		if !stageEnd.IsZero() {
			cfg.Budget = max(min(cfg.Budget, time.Until(stageEnd)), time.Nanosecond)
		}
		return cfg
	}

	detectLevel := func(idx int) (det detect.Result, deg []Degradation, err error) {
		defer func() {
			if r := recover(); r != nil {
				// Contain the blast radius to this level: record the
				// panic as a degradation and let the other levels'
				// verdicts stand.
				det, err = detect.Result{}, nil
				deg = []Degradation{{Stage: trace.StagePeriodogram, Level: idx + 1, Reason: ReasonLevelPanic}}
				tr.Count(trace.StagePeriodogram, "level_panics", 1)
			}
		}()
		if cerr := ctx.Err(); cerr != nil {
			return detect.Result{}, nil, cerr
		}
		if ferr := faults.Check(faults.PointCoreLevel); ferr != nil {
			obs.FromContext(ctx).AddFault(faults.PointCoreLevel)
			tr.Count(trace.StagePeriodogram, "level_failures", 1)
			return detect.Result{}, []Degradation{{Stage: trace.StagePeriodogram, Level: idx + 1, Reason: ReasonLevelFailed}}, nil
		}
		kLo, kHi := Passband(n, idx+1)
		if opts.FullRobustBand {
			kLo, kHi = 1, n-1
		}
		annotate := func(d detect.Result) []Degradation {
			if d.Degraded == "" {
				return nil
			}
			return []Degradation{{Stage: trace.StagePeriodogram, Level: idx + 1, Reason: d.Degraded}}
		}
		det, derr := detect.Single(m.W[idx], kLo, kHi, levelConfig())
		if derr != nil || det.Periodic || opts.CircularBoundary {
			return det, annotate(det), derr
		}
		// Boundary fallback: retry the level on reflection-extended
		// coefficients; keep whichever verdict is periodic.
		rm := reflected()
		if rm == nil {
			return det, annotate(det), nil
		}
		det2, derr2 := detect.Single(rm.W[idx], kLo, kHi, levelConfig())
		if derr2 == nil && det2.Periodic {
			return det2, annotate(det2), nil
		}
		return det, annotate(det), nil
	}
	// The levels are independent (§3.3): they run on the caller and
	// any idle cores, and each level's verdict is the same whichever
	// goroutine computes it.
	results := make([]detect.Result, levels)
	degs := make([][]Degradation, levels)
	errs := make([]error, levels)
	par.Each(len(selected), func(i int) {
		idx := selected[i]
		results[idx], degs[idx], errs[idx] = detectLevel(idx)
	})
	var hits []found
	for _, idx := range selected {
		if errs[idx] != nil {
			return nil, errs[idx]
		}
		res.Levels[idx].Selected = true
		res.Levels[idx].Detection = results[idx]
		for _, d := range degs[idx] {
			res.degrade(ctx, d)
		}
		if results[idx].Periodic {
			hits = append(hits, found{results[idx].Final, vars[idx].Variance})
		}
	}
	if tr.Enabled() {
		alpha := opts.Detect.Alpha
		if alpha <= 0 {
			alpha = 0.01
		}
		for j := range res.Levels {
			lv := res.Levels[j]
			d := lv.Detection
			tr.RecordLevel(trace.LevelOutcome{
				Level:    lv.Level,
				Variance: lv.Variance.Variance,
				Boundary: lv.Variance.Boundary,
				Selected: lv.Selected,
				Fisher:   lv.Selected && d.Candidate != 0 && d.PValue < alpha,
				Periodic: d.Periodic,
				Period:   d.Final,
			})
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sv := tr.StartStage(trace.StageValidation)
	// Only the per-level hits read the full-series ACF.
	var acfFull []float64
	if len(hits) > 0 {
		acfFull = fft.Autocorrelation(x)
	}

	// Refinement against the full-series ACF is only trustworthy when
	// the period is long relative to the series: with ten or more
	// observed cycles, the wavelet-level median-distance estimate is
	// already sharp, and interlaced shorter components can displace the
	// full-ACF peak (the interference effect of §4.3.2); with only a
	// handful of cycles the full-ACF peak is the better estimate.
	// Refining before deduplication also converges adjacent levels'
	// slightly different estimates of the same component onto one peak.
	//lint:ignore rplint/ctxloop bounded post-processing (one ACF scan per wavelet level) right after the ctx poll above
	for i := range hits {
		if hits[i].period > n/10 {
			hits[i].period = refinePeriod(acfFull, hits[i].period)
			// Refinement may not push a period past the detectable
			// maximum of n/2.
			if hits[i].period > n/2 {
				hits[i].period = n / 2
			}
		}
	}

	// Merge near-duplicate periods across adjacent levels, keeping the
	// value detected at the higher-variance level.
	sort.Slice(hits, func(a, b int) bool { return hits[a].variance > hits[b].variance })
	var merged []found
	//lint:ignore rplint/ctxloop dedup over at most a few dozen per-level hits; negligible next to the transform it follows
	for _, h := range hits {
		dup := false
		for mi := range merged {
			m := &merged[mi]
			if !samePeriod(m.period, h.period) && !sameLowResComponent(m.period, h.period, n) {
				continue
			}
			dup = true
			// Between two estimates of the same component, keep the
			// one the full-series ACF supports more strongly — the
			// level variance says which component is louder, not
			// which level measured its period better.
			if acfAt(acfFull, h.period) > acfAt(acfFull, m.period) {
				m.period = h.period
			}
			break
		}
		if !dup {
			merged = append(merged, h)
		}
	}

	if len(merged) > 1 && !opts.NoHarmonicFilter {
		merged = suppressHarmonics(merged, acfFull)
	}

	periods := make([]int, 0, len(merged))
	//lint:ignore rplint/ctxloop copies out at most a few dozen merged periods
	for _, m := range merged {
		periods = append(periods, m.period)
	}
	sort.Ints(periods)
	res.Periods = periods
	sv.End()
	return res, nil
}

// found pairs a detected period with the wavelet variance of the level
// that produced it.
type found struct {
	period   int
	variance float64
}

// suppressHarmonics drops detections that are best explained as
// harmonics of another detected period. A non-sinusoidal wave of
// period T leaks genuinely T/3-periodic energy into a finer wavelet
// level, which passes the per-level validation; but a harmonic is
// simultaneously (a) an integer divisor of a detected period, (b) far
// weaker than its fundamental (a square wave's 3rd harmonic carries
// 1/9 of the power), and (c) absent from the full-series ACF (the
// square wave's triangular ACF has no hill at T/3). A genuine
// interlaced period — daily inside weekly, or 50 beside 100 — always
// violates (b) or (c), so all three conditions must hold to suppress.
func suppressHarmonics(hits []found, acfFull []float64) []found {
	kept := make([]found, 0, len(hits))
	for _, h := range hits {
		suppress := false
		for _, q := range hits {
			if q.period <= h.period {
				continue
			}
			m := int(math.Round(float64(q.period) / float64(h.period)))
			if m < 2 {
				continue
			}
			offTarget := math.Abs(float64(q.period) - float64(m*h.period))
			if offTarget > 0.05*float64(q.period)+1 {
				continue
			}
			if h.variance >= 0.2*q.variance {
				continue
			}
			if hasACFHill(acfFull, h.period) {
				continue
			}
			suppress = true
			break
		}
		if !suppress {
			kept = append(kept, h)
		}
	}
	return kept
}

// hasACFHill reports whether the full-series ACF has a prominent local
// maximum with positive correlation within a small window around lag
// p: the candidate hill must rise meaningfully above the window edges,
// so noise wiggles on the slope of a larger period's ACF bump do not
// count.
func hasACFHill(acf []float64, p int) bool {
	w := p / 20
	if w < 2 {
		w = 2
	}
	lo, hi := p-w, p+w
	if lo < 1 {
		lo = 1
	}
	if hi > len(acf)-2 {
		hi = len(acf) - 2
	}
	if lo > hi {
		return false
	}
	best, bestV := -1, 0.01
	for i := lo; i <= hi; i++ {
		if acf[i] > bestV && acf[i] >= acf[i-1] && acf[i] >= acf[i+1] {
			best, bestV = i, acf[i]
		}
	}
	if best < 0 {
		return false
	}
	// Prominence: the peak must exceed the lower window edge by a
	// margin; a monotone slope through the window has its maximum at
	// an edge and fails automatically.
	edge := math.Min(acf[lo], acf[hi])
	return bestV-edge > 0.02
}

// refinePeriod snaps a detected period to the nearest local maximum of
// the full-series ACF within ±8%, when such a peak exists. The
// wavelet-level ACF estimates a period from band-passed coefficients,
// which can be a few percent off for long periods observed over few
// cycles; the full-series ACF peak, when present, is the sharper
// estimate. When no peak exists in the window (e.g. the period's ACF
// hill is masked by stronger interlaced components — the paper's
// AUTOPERIOD failure case), the level estimate is kept.
func refinePeriod(acf []float64, p int) int {
	w := p / 12
	if w < 2 {
		w = 2
	}
	lo, hi := p-w, p+w
	if lo < 2 {
		lo = 2
	}
	if hi > len(acf)-2 {
		hi = len(acf) - 2
	}
	best, bestV := -1, math.Inf(-1)
	for i := lo; i <= hi; i++ {
		if acf[i] >= acf[i-1] && acf[i] >= acf[i+1] && acf[i] > bestV {
			best, bestV = i, acf[i]
		}
	}
	if best < 0 || bestV <= 0 {
		return p
	}
	// Require genuine hill prominence over the window edges, as in
	// hasACFHill, so slope noise does not drag the estimate.
	if bestV-math.Min(acf[lo], acf[hi]) <= 0.02 {
		return p
	}
	return best
}

// acfAt returns the ACF value at lag p, or -Inf when out of range.
func acfAt(acf []float64, p int) float64 {
	if p < 1 || p >= len(acf) {
		return math.Inf(-1)
	}
	return acf[p]
}

// sameLowResComponent reports whether two long-period detections must
// be the same underlying component: with fewer than ~10 observed
// cycles the spectral resolution is about one padded bin, so adjacent
// wavelet levels can report the same component up to ~25% apart.
// Genuine distinct periods that close are unresolvable at this length
// by any spectral method; the higher-variance level's value wins.
func sameLowResComponent(a, b, n int) bool {
	if a > b {
		a, b = b, a
	}
	if a <= n/10 {
		return false
	}
	return float64(b) < 1.3*float64(a)
}

// samePeriod reports whether two detected period lengths should be
// treated as one periodicity (within one sample or 3% relative).
func samePeriod(a, b int) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= 1 {
		return true
	}
	lo := a
	if b < lo {
		lo = b
	}
	return float64(d) <= 0.03*float64(lo)
}

// Passband returns the padded-spectrum frequency range [kLo, kHi]
// corresponding to wavelet level j's nominal octave band
// 1/2^{j+1} <= |f| <= 1/2^j for a series of length n (padded to 2n):
// periods in [2^j, 2^{j+1}] map to k in [2n/2^{j+1}, 2n/2^j].
func Passband(n, level int) (kLo, kHi int) {
	np := 2 * n
	kLo = np >> uint(level+1)
	kHi = np >> uint(level)
	if kLo < 1 {
		kLo = 1
	}
	if kHi > n-1 {
		kHi = n - 1
	}
	if kHi < kLo {
		kHi = kLo
	}
	return kLo, kHi
}
