// Finished request traces as the trace flight recorder keeps them: an
// obs.Ring keyed by trace ID that pins every Interesting trace. Serves
// GET /debug/traces[/{traceid}].
package trace

import "time"

// TraceRecord is one finished request's span tree as retained by the
// trace flight recorder: the identity and outcome facts the listing
// filters on, plus the spans themselves. The span slice is shared with
// the finished recording and never mutated after commit.
type TraceRecord struct {
	TraceID  [16]byte
	Time     time.Time // root span start (admission)
	Duration time.Duration
	Endpoint string
	Tenant   string
	Status   int    // HTTP status written
	Outcome  string // "ok", "degraded" or "error"
	Spans    []Span
	Dropped  int // spans discarded by the per-request bound
}

// Interesting reports whether the trace should be pinned: anything
// that did not complete cleanly.
func (r *TraceRecord) Interesting() bool { return r.Outcome != "ok" }

// Filter selects traces out of a flight-recorder snapshot. The zero
// value matches everything.
type Filter struct {
	Limit       int           // max records returned; <= 0 means all
	Outcome     string        // exact match when non-empty
	Tenant      string        // exact match when non-empty
	MinDuration time.Duration // keep only traces at least this slow
}

// Match reports whether r passes the filter's Outcome, Tenant and
// MinDuration; Limit is the snapshot's to apply.
func (f Filter) Match(r *TraceRecord) bool {
	if f.Outcome != "" && r.Outcome != f.Outcome {
		return false
	}
	if f.Tenant != "" && r.Tenant != f.Tenant {
		return false
	}
	return r.Duration >= f.MinDuration
}
