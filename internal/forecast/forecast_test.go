package forecast

import (
	"math"
	"math/rand"
	"testing"
)

func seasonalSeries(n int, periods []int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		for _, p := range periods {
			x[i] += math.Sin(2 * math.Pi * float64(i) / float64(p))
		}
		x[i] += noise * rng.NormFloat64()
	}
	return x
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, nil, 0)
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 || v > 1e-7 {
		t.Errorf("minimum at %v (v=%v), want (3,-1)", x, v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := NelderMead(f, []float64{-1.2, 1}, nil, 20000)
	if v > 1e-5 {
		t.Errorf("Rosenbrock not solved: x=%v v=%v", x, v)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] } // wants x→∞
	bounds := [][2]float64{{0, 1}}
	x, _ := NelderMead(f, []float64{0.5}, bounds, 500)
	if x[0] > 1+1e-12 {
		t.Errorf("bound violated: %v", x[0])
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	_, v := NelderMead(func([]float64) float64 { return 7 }, nil, nil, 10)
	if v != 7 {
		t.Error("dim-0 should just evaluate")
	}
}

func TestMetrics(t *testing.T) {
	f := []float64{1, 2, 3}
	y := []float64{1, 2, 5}
	if got := MAE(f, y); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("MAE = %v", got)
	}
	if got := RMSE(f, y); math.Abs(got-math.Sqrt(4.0/3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) || !math.IsNaN(MAE(nil, nil)) {
		t.Error("empty inputs should give NaN")
	}
}

func TestMASEGradesForecasters(t *testing.T) {
	x := seasonalSeries(600, []int{24}, 0.2, 9)
	train, test := x[:480], x[480:]
	good, err := MultiSeasonal{Periods: []int{24}}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := Mean{}.Forecast(train, len(test))
	naive, err := SeasonalNaive{Period: 24}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	rGood, rMean, rNaive := RMSE(good, test), RMSE(mean, test), RMSE(naive, test)
	if rGood >= rMean {
		t.Errorf("seasonal model RMSE %v should beat mean %v", rGood, rMean)
	}
	if rGood >= rNaive {
		t.Errorf("seasonal model RMSE %v should beat seasonal naive %v", rGood, rNaive)
	}
}

func TestMeanForecaster(t *testing.T) {
	fc, err := Mean{}.Forecast([]float64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if v != 2 {
			t.Errorf("mean forecast %v", v)
		}
	}
	if _, err := (Mean{}).Forecast(nil, 2); err == nil {
		t.Error("empty train should error")
	}
}

func TestSeasonalNaive(t *testing.T) {
	train := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	fc, err := SeasonalNaive{Period: 4}.Forecast(train, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 1, 2}
	for i := range want {
		if fc[i] != want[i] {
			t.Fatalf("got %v want %v", fc, want)
		}
	}
	if _, err := (SeasonalNaive{Period: 100}).Forecast(train, 2); err == nil {
		t.Error("oversized period should error")
	}
}

func TestMultiSeasonalRecoversCleanPattern(t *testing.T) {
	periods := []int{12, 48}
	x := seasonalSeries(600, periods, 0.05, 1)
	train, test := x[:480], x[480:]
	fc, err := MultiSeasonal{Periods: periods}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	if e := RMSE(fc, test); e > 0.3 {
		t.Errorf("RMSE %v too high for near-clean multi-seasonal data", e)
	}
}

func TestMultiSeasonalBeatsMeanAndWrongPeriod(t *testing.T) {
	periods := []int{24, 168}
	x := seasonalSeries(1680, periods, 0.2, 2)
	train, test := x[:840], x[840:1008]
	right, err := MultiSeasonal{Periods: periods}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := MultiSeasonal{Periods: []int{37}}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	meanFc, _ := Mean{}.Forecast(train, len(test))
	eRight := RMSE(right, test)
	eWrong := RMSE(wrong, test)
	eMean := RMSE(meanFc, test)
	if eRight >= eWrong || eRight >= eMean {
		t.Errorf("correct periods should win: right=%v wrong=%v mean=%v", eRight, eWrong, eMean)
	}
}

func TestMultiSeasonalHandlesTrend(t *testing.T) {
	n := 400
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.02*float64(i) + math.Sin(2*math.Pi*float64(i)/20)
	}
	train, test := x[:320], x[320:]
	fc, err := MultiSeasonal{Periods: []int{20}}.Forecast(train, len(test))
	if err != nil {
		t.Fatal(err)
	}
	if e := RMSE(fc, test); e > 0.6 {
		t.Errorf("trend+seasonal RMSE %v", e)
	}
}

func TestMultiSeasonalDropsInvalidPeriods(t *testing.T) {
	x := seasonalSeries(100, []int{10}, 0.05, 3)
	// Period 90 can't fit twice in 100 points; must be ignored, not fatal.
	fc, err := MultiSeasonal{Periods: []int{10, 90}}.Forecast(x[:80], 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 20 {
		t.Fatal("wrong horizon")
	}
}

func TestMultiSeasonalTooShort(t *testing.T) {
	if _, err := (MultiSeasonal{}).Forecast(make([]float64, 4), 2); err == nil {
		t.Error("expected error")
	}
}

func BenchmarkMultiSeasonalFit(b *testing.B) {
	x := seasonalSeries(840, []int{12, 24, 168}, 0.2, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (MultiSeasonal{Periods: []int{12, 24, 168}}).Forecast(x, 168); err != nil {
			b.Fatal(err)
		}
	}
}
