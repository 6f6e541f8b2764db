package obs

import "time"

// Record is one completed request as retained by the flight recorder:
// enough to reconstruct what the service did for a given X-Request-ID
// after the fact — identity, shape of the input, per-stage trace,
// degradation annotations, fault hits, and the outcome.
type Record struct {
	ID            ID
	Time          time.Time // admission time
	Endpoint      string
	Tenant        string // cardinality-capped tenant label
	Status        int    // HTTP status written
	Duration      time.Duration
	SeriesLen     int
	BatchSize     int
	OptionsDigest uint64
	Cached        bool
	ErrorCode     string
	DegradedCount int
	ItemErrors    int
	FaultPoints   []string
	Degraded      any // serving layer's degradation annotations
	Trace         any // serving layer's per-stage trace summary
}

// Interesting reports whether the record should be pinned: any error
// status, any degradation, any item failure, or any fired fault.
func (r *Record) Interesting() bool {
	return r.Status >= 400 || r.DegradedCount > 0 || r.ItemErrors > 0 ||
		len(r.FaultPoints) > 0
}

// Outcome classifies the record for listings: "error", "degraded" or
// "ok".
func (r *Record) Outcome() string {
	switch {
	case r.Status >= 400:
		return "error"
	case r.DegradedCount > 0 || r.ItemErrors > 0:
		return "degraded"
	default:
		return "ok"
	}
}

// Recorder is the always-on post-mortem flight recorder behind
// /debug/requests: a Ring of request records keyed by request ID that
// pins every Interesting record.
type Recorder struct{ *Ring[ID, Record] }

// NewRecorder builds a recorder retaining the last size records (and
// up to size pinned error/degraded records on top). size <= 0 selects
// the default of 256.
func NewRecorder(size int) *Recorder { return &Recorder{NewRing[ID, Record](size)} }

// Record retains rec, pinning it when it is Interesting. Allocation-free.
func (r *Recorder) Record(rec *Record) { r.Add(rec.ID, rec.Interesting(), rec) }
