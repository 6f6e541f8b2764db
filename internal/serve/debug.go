// The debug listener: net/http/pprof profiling, the expvar JSON dump,
// and the flight-recorder surfaces, served on a separate address so
// introspection endpoints are never exposed on the public API port.
package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"robustperiod"
	"robustperiod/internal/obs"
	"robustperiod/internal/trace"
)

// RequestRecord is the JSON form of one flight-recorder entry, as
// served by /debug/requests and /debug/requests/{id}.
type RequestRecord struct {
	ID            string                     `json:"id"`
	Time          time.Time                  `json:"time"`
	Endpoint      string                     `json:"endpoint"`
	Tenant        string                     `json:"tenant,omitempty"`
	Status        int                        `json:"status"`
	Outcome       string                     `json:"outcome"` // ok | degraded | error
	DurationMs    float64                    `json:"durationMs"`
	SeriesLen     int                        `json:"seriesLen,omitempty"`
	BatchSize     int                        `json:"batchSize,omitempty"`
	OptionsDigest string                     `json:"optionsDigest"`
	Cached        bool                       `json:"cached"`
	ErrorCode     string                     `json:"errorCode,omitempty"`
	DegradedCount int                        `json:"degradedCount,omitempty"`
	ItemErrors    int                        `json:"itemErrors,omitempty"`
	FaultPoints   []string                   `json:"faultPoints,omitempty"`
	Degraded      []robustperiod.Degradation `json:"degraded,omitempty"`
	Trace         *TraceSummary              `json:"trace,omitempty"`
}

// toRequestRecord converts a recorder entry to wire form, unboxing
// the serving layer's degradation and trace annotations.
func toRequestRecord(rec obs.Record, full bool) RequestRecord {
	out := RequestRecord{
		ID:            rec.ID.String(),
		Time:          rec.Time,
		Endpoint:      rec.Endpoint,
		Tenant:        rec.Tenant,
		Status:        rec.Status,
		Outcome:       rec.Outcome(),
		DurationMs:    float64(rec.Duration) / float64(time.Millisecond),
		SeriesLen:     rec.SeriesLen,
		BatchSize:     rec.BatchSize,
		OptionsDigest: fmt.Sprintf("%016x", rec.OptionsDigest),
		Cached:        rec.Cached,
		ErrorCode:     rec.ErrorCode,
		DegradedCount: rec.DegradedCount,
		ItemErrors:    rec.ItemErrors,
		FaultPoints:   rec.FaultPoints,
	}
	if !full {
		return out
	}
	if degs, ok := rec.Degraded.([]robustperiod.Degradation); ok {
		out.Degraded = degs
	}
	if ts, ok := rec.Trace.(*robustperiod.TraceSummary); ok {
		out.Trace = toTraceSummary(ts)
	}
	return out
}

// handleRequestList serves GET /debug/requests: the flight recorder's
// retained records, newest first, without the bulky per-record trace
// (fetch one record by ID for that). Query parameters narrow the
// listing: ?limit= (alias ?max=) caps the result, ?outcome= keeps
// only ok/degraded/error records, ?tenant= keeps one tenant.
func (s *Server) handleRequestList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	} else if v := q.Get("max"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	outcome, tenant := q.Get("outcome"), q.Get("tenant")
	// limit bounds the matches returned, not the records scanned.
	recs := s.recorder.Snapshot(limit, func(rec *obs.Record) bool {
		return (outcome == "" || rec.Outcome() == outcome) && (tenant == "" || rec.Tenant == tenant)
	})
	out := make([]RequestRecord, len(recs))
	for i, rec := range recs {
		out[i] = toRequestRecord(rec, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": out})
}

// handleRequestByID serves GET /debug/requests/{id}: the full
// post-mortem record — per-stage trace, degradation annotations,
// fault hits — for the request that returned this X-Request-ID.
func (s *Server) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	id, ok := obs.ParseID(raw)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_request_id",
			"%q is not a request ID (32 hex characters)", raw)
		return
	}
	rec, ok := s.recorder.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_request_id",
			"request %s is not in the flight recorder (evicted or never seen)", raw)
		return
	}
	writeJSON(w, http.StatusOK, toRequestRecord(rec, true))
}

// TraceSpan is the JSON form of one span of a retained trace.
type TraceSpan struct {
	Name       string       `json:"name"`
	ID         string       `json:"id"`
	Parent     string       `json:"parent,omitempty"` // absent on the trace root
	Start      time.Time    `json:"start"`
	DurationMs float64      `json:"durationMs"`
	Attrs      []trace.Attr `json:"attrs,omitempty"`
}

// TraceEntry is the JSON form of one retained trace: listing facts on
// /debug/traces, plus the span tree on /debug/traces/{traceid}.
type TraceEntry struct {
	TraceID    string      `json:"traceId"`
	Time       time.Time   `json:"time"`
	DurationMs float64     `json:"durationMs"`
	Endpoint   string      `json:"endpoint"`
	Tenant     string      `json:"tenant"`
	Status     int         `json:"status"`
	Outcome    string      `json:"outcome"`
	SpanCount  int         `json:"spanCount"`
	Dropped    int         `json:"dropped,omitempty"`
	Spans      []TraceSpan `json:"spans,omitempty"`
}

// toTraceEntry converts a retained trace to wire form; withSpans
// inlines the span tree.
func toTraceEntry(rec trace.TraceRecord, withSpans bool) TraceEntry {
	out := TraceEntry{
		TraceID:    trace.SpanContext{TraceID: rec.TraceID}.TraceIDString(),
		Time:       rec.Time,
		DurationMs: float64(rec.Duration) / float64(time.Millisecond),
		Endpoint:   rec.Endpoint,
		Tenant:     rec.Tenant,
		Status:     rec.Status,
		Outcome:    rec.Outcome,
		SpanCount:  len(rec.Spans),
		Dropped:    rec.Dropped,
	}
	if !withSpans {
		return out
	}
	out.Spans = make([]TraceSpan, len(rec.Spans))
	for i, sp := range rec.Spans {
		ts := TraceSpan{
			Name:       sp.Name,
			ID:         sp.ID.String(),
			Start:      sp.Start,
			DurationMs: float64(sp.Duration) / float64(time.Millisecond),
			Attrs:      sp.Attrs,
		}
		if !sp.Parent.IsZero() {
			ts.Parent = sp.Parent.String()
		}
		out.Spans[i] = ts
	}
	return out
}

// handleTraceList serves GET /debug/traces: the trace flight
// recorder's retained traces, newest first, without span trees.
// Query parameters narrow the listing: ?limit=, ?outcome=
// (ok/degraded/error), ?tenant=, and ?min_ms= (keep only traces at
// least this slow).
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f trace.Filter
	if v := q.Get("limit"); v != "" {
		f.Limit, _ = strconv.Atoi(v)
	}
	f.Outcome = q.Get("outcome")
	f.Tenant = q.Get("tenant")
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_min_ms",
				"%q is not a millisecond duration", v)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	recs := s.spans.Snapshot(f.Limit, f.Match)
	out := make([]TraceEntry, len(recs))
	for i, rec := range recs {
		out[i] = toTraceEntry(rec, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleTraceByID serves GET /debug/traces/{traceid}: the full span
// tree of one trace, addressed by the 32-hex trace ID the request's
// traceparent response header carried.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("traceid")
	id, ok := obs.ParseID(raw)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_trace_id",
			"%q is not a trace ID (32 hex characters)", raw)
		return
	}
	rec, ok := s.spans.Lookup([16]byte(id))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_trace_id",
			"trace %s is not in the trace flight recorder (evicted or never sampled)", raw)
		return
	}
	writeJSON(w, http.StatusOK, toTraceEntry(rec, true))
}

// handleSLO serves GET /debug/slo: every objective's evaluated
// multi-window burn-rate state, the rollup, and the post-mortem
// profile captures retained on disk.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"objectives":      s.sloEng.Status(),
		"firing":          s.sloEng.Firing(),
		"profileCaptures": s.profiles.Captures(),
	})
}

// DebugHandler returns the handler served on Config.DebugAddr:
//
//	GET /debug/pprof/          pprof index (profile, heap, goroutine,
//	                           block, mutex, trace, cmdline, symbol)
//	GET /debug/vars            this server's expvar metrics as one
//	                           JSON object (the pre-Prometheus
//	                           /metrics view)
//	GET /debug/requests        flight recorder: recent + pinned
//	                           request records, newest first
//	                           (?limit= ?outcome= ?tenant=)
//	GET /debug/requests/{id}   one record by X-Request-ID, with the
//	                           per-stage trace and degradations
//	GET /debug/traces          trace flight recorder: sampled span
//	                           trees, newest first
//	                           (?limit= ?outcome= ?tenant= ?min_ms=)
//	GET /debug/traces/{id}     one span tree by 32-hex trace ID
//	GET /debug/slo             evaluated SLO burn rates and retained
//	                           profile captures
//
// The pprof handlers are mounted explicitly on a private mux — the
// net/http/pprof side-effect registration on http.DefaultServeMux is
// not relied upon, so importing this package never leaks profiling
// endpoints into an embedding application's default mux routes.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, s.metrics.vars.String())
	})
	mux.HandleFunc("GET /debug/requests", s.handleRequestList)
	mux.HandleFunc("GET /debug/requests/{id}", s.handleRequestByID)
	mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /debug/traces/{traceid}", s.handleTraceByID)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "robustperiod debug listener")
		fmt.Fprintln(w, "  /debug/pprof/         profiling")
		fmt.Fprintln(w, "  /debug/vars           expvar metrics (JSON)")
		fmt.Fprintln(w, "  /debug/requests       flight recorder (recent requests)")
		fmt.Fprintln(w, "  /debug/requests/{id}  one request by X-Request-ID")
		fmt.Fprintln(w, "  /debug/traces         trace flight recorder (sampled span trees)")
		fmt.Fprintln(w, "  /debug/traces/{id}    one span tree by trace ID")
		fmt.Fprintln(w, "  /debug/slo            SLO burn rates and profile captures")
	})
	return mux
}
