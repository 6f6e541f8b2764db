package forecast

import "fmt"

// MultiSeasonal is the TBATS substitute: additive exponential
// smoothing with level, damped trend and one seasonal state array per
// period (a multi-seasonal generalization of Holt-Winters / Taylor's
// double-seasonal method). The smoothing parameters — α (level), β
// (trend), φ (damping) and one γ_i per seasonal component — are fitted
// by Nelder-Mead on the in-sample one-step squared error.
type MultiSeasonal struct {
	// Periods lists the seasonal period lengths (deduplicated,
	// ascending is not required). Empty periods → damped-trend-only.
	Periods []int
	// MaxIter caps the optimizer; <= 0 means the optimizer default.
	MaxIter int
}

// Name implements Forecaster.
func (f MultiSeasonal) Name() string { return "multi-seasonal-es" }

// Forecast implements Forecaster.
func (f MultiSeasonal) Forecast(train []float64, h int) ([]float64, error) {
	n := len(train)
	if n < 8 {
		return nil, fmt.Errorf("forecast: training series too short (%d)", n)
	}
	var periods []int
	for _, p := range f.Periods {
		if p >= 2 && 2*p <= n {
			periods = append(periods, p)
		}
	}
	dim := 3 + len(periods) // alpha, beta, phi, gammas
	x0 := make([]float64, dim)
	x0[0], x0[1], x0[2] = 0.2, 0.05, 0.98
	bounds := make([][2]float64, dim)
	bounds[0] = [2]float64{1e-4, 0.999}
	bounds[1] = [2]float64{0, 0.5}
	bounds[2] = [2]float64{0.8, 1}
	for i := range periods {
		x0[3+i] = 0.1
		bounds[3+i] = [2]float64{0, 0.999}
	}
	obj := func(p []float64) float64 {
		sse, _ := runSmoother(train, periods, p, 0)
		return sse
	}
	best, _ := NelderMead(obj, x0, bounds, f.MaxIter)
	_, fc := runSmoother(train, periods, best, h)
	return fc, nil
}

// runSmoother runs the additive multi-seasonal smoother over the
// training data with parameters p = [alpha, beta, phi, gamma...]; it
// returns the in-sample one-step SSE and, when h > 0, the h-step
// forecast from the final state.
func runSmoother(y []float64, periods []int, p []float64, h int) (float64, []float64) {
	alpha, beta, phi := p[0], p[1], p[2]
	gammas := p[3:]
	n := len(y)

	// Initialize seasonal arrays from cycle-mean deviations.
	seasonal := make([][]float64, len(periods))
	for i, m := range periods {
		seasonal[i] = initialSeasonal(y, m)
	}
	// Initial level/trend from the first cycle (or few points).
	window := 8
	if len(periods) > 0 && periods[len(periods)-1] < n {
		window = periods[len(periods)-1]
	}
	if window > n {
		window = n
	}
	level := 0.0
	for i := 0; i < window; i++ {
		level += y[i]
	}
	level /= float64(window)
	trend := 0.0
	if window*2 <= n {
		second := 0.0
		for i := window; i < 2*window; i++ {
			second += y[i]
		}
		second /= float64(window)
		trend = (second - level) / float64(window)
	}

	sse := 0.0
	warm := window
	for t := 0; t < n; t++ {
		seas := 0.0
		for i, m := range periods {
			seas += seasonal[i][t%m]
		}
		pred := level + phi*trend + seas
		err := y[t] - pred
		if t >= warm {
			sse += err * err
		}
		newLevel := level + phi*trend + alpha*err
		trend = phi*trend + beta*err
		level = newLevel
		for i, m := range periods {
			seasonal[i][t%m] += gammas[i] * err
		}
	}
	if h == 0 {
		return sse, nil
	}
	fc := make([]float64, h)
	phiSum := 0.0
	phiPow := 1.0
	for k := 1; k <= h; k++ {
		phiSum += phiPow * phi
		phiPow *= phi
		v := level + phiSum*trend
		for i, m := range periods {
			v += seasonal[i][(n+k-1)%m]
		}
		fc[k-1] = v
	}
	return sse, fc
}

// initialSeasonal estimates the additive seasonal profile of period m
// as per-phase means minus the grand mean.
func initialSeasonal(y []float64, m int) []float64 {
	s := make([]float64, m)
	cnt := make([]int, m)
	grand := 0.0
	for i, v := range y {
		s[i%m] += v
		cnt[i%m]++
		grand += v
	}
	grand /= float64(len(y))
	for i := range s {
		if cnt[i] > 0 {
			s[i] = s[i]/float64(cnt[i]) - grand
		}
	}
	return s
}
