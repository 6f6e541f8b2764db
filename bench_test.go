// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§4), plus the ablation benches called out in
// DESIGN.md §5. Each BenchmarkTableN/BenchmarkFigureN target runs the
// corresponding experiment driver on a small corpus per iteration; run
// cmd/rpbench for the full-size, human-readable versions.
package robustperiod

import (
	"runtime"
	"testing"

	"robustperiod/internal/core"
	"robustperiod/internal/eval"
	"robustperiod/internal/spectrum"
	"robustperiod/internal/synthetic"
	"robustperiod/internal/wavelet"
)

const benchTrials = 3

func BenchmarkTable1SinglePeriodPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table1(benchTrials, int64(i))
	}
}

func BenchmarkTable2MultiPeriodF1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table2(benchTrials, int64(i))
	}
}

func BenchmarkTable3SquareTriangleF1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table3(benchTrials, int64(i))
	}
}

func BenchmarkTable4CloudDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table4(int64(i))
	}
}

func BenchmarkTable5Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table5(benchTrials, int64(i))
	}
}

func BenchmarkTable6Forecasting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table6(2, int64(i))
	}
}

func BenchmarkTable7RunningTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table7(benchTrials, int64(i))
	}
}

func BenchmarkTable8F1VersusLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table8(benchTrials, int64(i))
	}
}

func BenchmarkFigure5Intermediates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Figure5(int64(i))
	}
}

func BenchmarkFigure6PeriodogramSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Figure6(int64(i))
	}
}

// Per-detector timing at the paper's three lengths (the substance of
// Table 7, as individual benchmark lines).

func benchDetectAtLength(b *testing.B, n int) {
	b.Helper()
	periods := []int{20, 50, 100}
	cfg := synthetic.PaperConfig(n, synthetic.Sine, periods, 0.1, 0.01, 42)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(x, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustPeriodN500(b *testing.B)  { benchDetectAtLength(b, 500) }
func BenchmarkRobustPeriodN1000(b *testing.B) { benchDetectAtLength(b, 1000) }
func BenchmarkRobustPeriodN2000(b *testing.B) { benchDetectAtLength(b, 2000) }

// Ablation benches (DESIGN.md §5).

// BenchmarkAblationSolverIRLS vs ...ADMM: same optimum, different cost.
func benchSolver(b *testing.B, solver spectrum.Solver) {
	b.Helper()
	cfg := synthetic.PaperConfig(1000, synthetic.Sine, []int{50}, 0.5, 0.05, 7)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.MPeriodogram(x, 10, 50, spectrum.Options{
			Loss: spectrum.LossHuber, Solver: solver,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSolverIRLS(b *testing.B) { benchSolver(b, spectrum.SolverIRLS) }
func BenchmarkAblationSolverADMM(b *testing.B) { benchSolver(b, spectrum.SolverADMM) }

// BenchmarkAblationPassband vs FullBand: the paper's §3.4.1 speedup.
func benchBand(b *testing.B, full bool) {
	b.Helper()
	cfg := synthetic.PaperConfig(1000, synthetic.Sine, []int{20, 50, 100}, 0.1, 0.01, 8)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(x, core.Options{FullRobustBand: full}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPassbandOnly(b *testing.B) { benchBand(b, false) }
func BenchmarkAblationFullBand(b *testing.B)     { benchBand(b, true) }

// BenchmarkAblationACF: Wiener–Khinchin O(N log N) vs direct O(N²).
func BenchmarkAblationACFWienerKhinchin(b *testing.B) {
	cfg := synthetic.PaperConfig(4096, synthetic.Sine, []int{100}, 0.3, 0.02, 9)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.HuberACF(x, spectrum.Options{Loss: spectrum.LossL2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationACFDirect(b *testing.B) {
	cfg := synthetic.PaperConfig(4096, synthetic.Sine, []int{100}, 0.3, 0.02, 9)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spectrum.DirectACF(x)
	}
}

// BenchmarkAblationWavelet: Daubechies width vs pipeline cost.
func benchWavelet(b *testing.B, k wavelet.Kind) {
	b.Helper()
	cfg := synthetic.PaperConfig(1000, synthetic.Sine, []int{20, 50, 100}, 0.1, 0.01, 10)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(x, core.Options{Wavelet: k}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBoundary: circular-only vs circular-with-reflection
// fallback (the fallback costs one extra MODWT plus re-detection on
// failed levels; DESIGN.md §6.13 documents why it exists).
func benchBoundary(b *testing.B, circularOnly bool) {
	b.Helper()
	cfg := synthetic.PaperConfig(1000, synthetic.Sine, []int{144}, 0.2, 0.01, 11)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(x, core.Options{CircularBoundary: circularOnly}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBoundaryCircularOnly(b *testing.B) { benchBoundary(b, true) }
func BenchmarkAblationBoundaryWithFallback(b *testing.B) { benchBoundary(b, false) }

// BenchmarkDetectSequential vs BenchmarkDetectParallel: a detect on
// its caller alone (GOMAXPROCS=1 leaves no helper slot) against the
// default, which spreads levels and band chunks over idle cores.
func BenchmarkDetectSequential(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchDetect(b)
}

func BenchmarkDetectParallel(b *testing.B) { benchDetect(b) }

func benchDetect(b *testing.B) {
	b.Helper()
	cfg := synthetic.PaperConfig(2000, synthetic.Sine, []int{20, 50, 100}, 0.3, 0.02, 12)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Detect(x, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectAuto: the §4.5.1 deployment path (downsample + refine)
// against full-resolution detection on a 40k-point series.
func BenchmarkDetectAutoLongSeries(b *testing.B) {
	cfg := synthetic.PaperConfig(40000, synthetic.Sine, []int{2880}, 0.2, 0.01, 13)
	x := synthetic.Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectAuto(x, 5000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWaveletHaar(b *testing.B) { benchWavelet(b, wavelet.Haar) }
func BenchmarkAblationWaveletD4(b *testing.B)   { benchWavelet(b, wavelet.Daub4) }
func BenchmarkAblationWaveletD8(b *testing.B)   { benchWavelet(b, wavelet.Daub8) }
func BenchmarkAblationWaveletD12(b *testing.B)  { benchWavelet(b, wavelet.Daub12) }
