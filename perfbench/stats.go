package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of v (linear interpolation between
// order statistics), or 0 when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// durations collects timings; the zero value is ready to use.
type durations []time.Duration

// ms returns the q-quantile in milliseconds.
func (d durations) ms(q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = toMS(x)
	}
	return quantile(v, q)
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
