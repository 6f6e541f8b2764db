// Package forecast provides the multi-seasonal forecasting substrate
// for the paper's downstream task (Table 6). The paper feeds detected
// periods into TBATS; we substitute a multi-seasonal exponential
// smoothing model with per-period seasonal states and a damped trend,
// with smoothing parameters fitted by Nelder-Mead — the property Table
// 6 measures (wrong or missing periods degrade forecasts) is preserved
// by any competent multi-seasonal model. Mean and seasonal-naive
// baselines complete the toolbox.
package forecast

import (
	"fmt"
	"math"
)

// Forecaster fits on a training series and predicts h future points.
type Forecaster interface {
	Name() string
	// Forecast trains on train and returns h predictions. It returns
	// an error if the model cannot be fitted (e.g. period too long).
	Forecast(train []float64, h int) ([]float64, error)
}

// RMSE returns the root mean squared error between forecast and truth.
func RMSE(forecast, truth []float64) float64 {
	n := min(len(forecast), len(truth))
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := forecast[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// MAE returns the mean absolute error between forecast and truth.
func MAE(forecast, truth []float64) float64 {
	n := min(len(forecast), len(truth))
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(forecast[i] - truth[i])
	}
	return s / float64(n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Mean is the no-seasonality fallback: it predicts the training mean.
type Mean struct{}

// Name implements Forecaster.
func (Mean) Name() string { return "mean" }

// Forecast implements Forecaster.
func (Mean) Forecast(train []float64, h int) ([]float64, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("forecast: empty training series")
	}
	m := 0.0
	for _, v := range train {
		m += v
	}
	m /= float64(len(train))
	out := make([]float64, h)
	for i := range out {
		out[i] = m
	}
	return out, nil
}

// SeasonalNaive repeats the last observed cycle of the given period.
type SeasonalNaive struct {
	Period int
}

// Name implements Forecaster.
func (SeasonalNaive) Name() string { return "seasonal-naive" }

// Forecast implements Forecaster.
func (f SeasonalNaive) Forecast(train []float64, h int) ([]float64, error) {
	n := len(train)
	if f.Period < 1 || f.Period > n {
		return nil, fmt.Errorf("forecast: period %d invalid for n=%d", f.Period, n)
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = train[n-f.Period+(i%f.Period)]
	}
	return out, nil
}
