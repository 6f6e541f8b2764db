package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"robustperiod/internal/core"
	"robustperiod/internal/detect"
	"robustperiod/internal/filter/hp"
	"robustperiod/internal/registry"
	"robustperiod/internal/spectrum"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
	"robustperiod/internal/wavelet"
)

// layerTimes is the pipeline-layer breakdown of a set of detections,
// measured from outside the pipeline by calling each layer's public
// functions on the same inputs the pipeline would give them.
type layerTimes struct {
	detects                         int
	plain, traced                   time.Duration
	hp, modwt, variance, pgram, acf time.Duration

	passband, skips, iters, warmHits int64
	fisherPass, acfAccept, selected  int64

	mallocs, bytes uint64
	gcFrac         float64
}

// replayLayers runs every series three times, back to back: through
// core.Detect untraced (total time, allocations, GC share), layer by
// layer through hp, wavelet, detect and spectrum following that run's
// level selection, and through core.Detect with a trace attached (the
// pipeline's own counters, and the cost of tracing). The layer replay
// must reproduce the untraced run's preprocessed series, level
// variances and per-level verdicts; a series where it does not counts
// as a failed operation, because the layer times would then describe a
// pipeline that no longer runs.
func replayLayers(series []labeled, out *result) (layerTimes, error) {
	var lt layerTimes
	f, err := wavelet.NewFilter(wavelet.Daub8)
	if err != nil {
		return lt, err
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var gcCPU, allCPU float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	for i, s := range series {
		runtime.ReadMemStats(&m0)
		metrics.Read(samples)
		gc0, tot0 := samples[0].Value.Float64(), samples[1].Value.Float64()
		t := time.Now()
		res, err := core.Detect(s.X, core.Options{})
		lt.plain += time.Since(t)
		metrics.Read(samples)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return lt, fmt.Errorf("replay detect: %w", err)
		}
		lt.mallocs += m1.Mallocs - m0.Mallocs
		lt.bytes += m1.TotalAlloc - m0.TotalAlloc
		gcCPU += samples[0].Value.Float64() - gc0
		allCPU += samples[1].Value.Float64() - tot0

		if err := lt.replayOne(s.X, f, res); err != nil {
			out.fail("series %d: layer replay: %v", i, err)
		}

		t = time.Now()
		res, err = core.Detect(s.X, core.Options{Trace: trace.New()})
		lt.traced += time.Since(t)
		if err != nil || res.Trace == nil {
			return lt, fmt.Errorf("replay traced detect: %v", err)
		}
		sum := res.Trace
		if st := sum.Stage(registry.StagePeriodogram); st != nil {
			lt.iters += st.Counters[registry.CounterSolverIters]
			lt.warmHits += st.Counters[registry.CounterSolverWarmHits]
			lt.skips += st.Counters[registry.CounterPrefilterSkips]
			lt.fisherPass += st.Counters["fisher_pass"]
		}
		if st := sum.Stage(registry.StageValidation); st != nil {
			lt.acfAccept += st.Counters["acf_accept"]
		}
		if st := sum.Stage(registry.StageRanking); st != nil {
			lt.selected += st.Counters["levels_selected"]
		}
	}
	lt.detects = len(series)
	lt.gcFrac = ratio(gcCPU, allCPU)
	return lt, nil
}

// replayOne times the layers of one default-options detection and
// checks each step against the pipeline's own result want.
func (lt *layerTimes) replayOne(y []float64, f *wavelet.Filter, want *core.Result) error {
	n := len(y)
	t := time.Now()
	detrended, _ := hp.Detrend(y, hp.LambdaForCutoff(float64(n)/2))
	x := robust.Winsorize(detrended, 3)
	lt.hp += time.Since(t)
	if !sameFloats(x, want.Preprocessed) {
		return fmt.Errorf("hp.Detrend+robust.Winsorize differ from the pipeline's preprocessed series")
	}

	levels := wavelet.MaxLevel(n, f)
	t = time.Now()
	m, err := wavelet.Transform(x, f, levels)
	lt.modwt += time.Since(t)
	if err != nil {
		return fmt.Errorf("modwt: %w", err)
	}
	t = time.Now()
	vars := m.RobustVariances(16)
	lt.variance += time.Since(t)
	if len(vars) != len(want.Levels) {
		return fmt.Errorf("%d levels, pipeline %d", len(vars), len(want.Levels))
	}

	var reflected *wavelet.MODWT
	for idx, lv := range want.Levels {
		if vars[idx] != lv.Variance {
			return fmt.Errorf("level %d variance %+v, pipeline %+v", idx+1, vars[idx], lv.Variance)
		}
		if !lv.Selected {
			continue
		}
		kLo, kHi := core.Passband(n, idx+1)
		det, err := lt.single(m.W[idx], kLo, kHi)
		if err != nil {
			return err
		}
		if !det.Periodic {
			// core.Detect retries a rejected level on
			// reflection-extended coefficients and keeps a periodic
			// verdict.
			if reflected == nil {
				t = time.Now()
				reflected, err = wavelet.TransformReflected(x, f, levels)
				lt.modwt += time.Since(t)
				if err != nil {
					return fmt.Errorf("reflected modwt: %w", err)
				}
			}
			det2, err := lt.single(reflected.W[idx], kLo, kHi)
			if err != nil {
				return err
			}
			if det2.Periodic {
				det = det2
			}
		}
		if got := lv.Detection; det.Periodic != got.Periodic || det.Final != got.Final {
			return fmt.Errorf("level %d verdict periodic=%v period %d, pipeline periodic=%v period %d",
				idx+1, det.Periodic, det.Final, got.Periodic, got.Final)
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// single times one level's detection, splitting the Huber-ACF
// validation (recomputed from the returned periodogram) from the
// periodogram and Fisher test.
func (lt *layerTimes) single(w []float64, kLo, kHi int) (detect.Result, error) {
	t := time.Now()
	det, err := detect.Single(w, kLo, kHi, detect.Config{})
	whole := time.Since(t)
	if err != nil {
		return det, fmt.Errorf("level detect: %w", err)
	}
	t = time.Now()
	if _, err := spectrum.ACFFromPeriodogram(spectrum.FullRange(det.Periodogram), len(w)); err != nil {
		return det, fmt.Errorf("acf: %w", err)
	}
	acf := time.Since(t)
	lt.acf += acf
	lt.pgram += whole - acf
	lt.passband += int64(kHi - kLo + 1)
	return det, nil
}

// report sets the pipeline and library-runtime per-layer metrics.
func (lt layerTimes) report(res *result, withRuntime bool) {
	per := func(d time.Duration) float64 { return toMS(d) / float64(lt.detects) }
	cnt := func(v int64) float64 { return float64(v) / float64(lt.detects) }
	layers := lt.hp + lt.modwt + lt.variance + lt.pgram + lt.acf
	res.set("spectrum.periodogram_ms", per(lt.pgram))
	res.set("spectrum.acf_ms", per(lt.acf))
	res.set("spectrum.share_of_detect", ratio(float64(lt.pgram), float64(lt.plain)))
	res.set("spectrum.solver_iters", cnt(lt.iters))
	res.set("spectrum.prefilter_skip_ratio", ratio(float64(lt.skips), float64(lt.passband)))
	res.set("spectrum.warm_hit_ratio", ratio(float64(lt.warmHits), float64(lt.passband-lt.skips)))
	res.set("hp.detrend_ms", per(lt.hp))
	res.set("wavelet.modwt_ms", per(lt.modwt))
	res.set("wavelet.variance_ms", per(lt.variance))
	res.set("core.glue_ms", per(lt.plain-layers))
	res.set("core.levels_selected", cnt(lt.selected))
	res.set("detect.fisher_pass", cnt(lt.fisherPass))
	res.set("detect.acf_accept", cnt(lt.acfAccept))
	if withRuntime {
		res.set("runtime.allocs_per_op", float64(lt.mallocs)/float64(lt.detects))
		res.set("runtime.bytes_per_op", float64(lt.bytes)/float64(lt.detects))
		res.set("runtime.gc_cpu_frac", lt.gcFrac)
	}
	res.Samples["replayed_series"] = lt.detects
}
