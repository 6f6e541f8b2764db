package trace

import (
	"strings"
	"testing"
	"time"

	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
)

func testContext() SpanContext {
	var sc SpanContext
	for i := range sc.TraceID {
		sc.TraceID[i] = byte(i + 1)
	}
	for i := range sc.SpanID {
		sc.SpanID[i] = byte(0xa0 + i)
	}
	sc.Sampled = true
	return sc
}

// TestTraceparentRoundTrip pins the W3C wire form both ways.
func TestTraceparentRoundTrip(t *testing.T) {
	sc := testContext()
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent wire form wrong: %q", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag lost: %+v ok=%v", got, ok)
	}

	// Uppercase hex is legal on ingest.
	up := strings.ToUpper(tp[3:35])
	got, ok = ParseTraceparent(tp[:3] + up + tp[35:])
	if !ok || got.TraceID != testContext().TraceID {
		t.Fatal("uppercase trace ID rejected")
	}
}

// TestTraceparentRejectsMalformed enumerates the reject cases that
// must all fall back to minting a fresh context.
func TestTraceparentRejectsMalformed(t *testing.T) {
	good := testContext().Traceparent()
	bad := []string{
		"",
		good[:54],       // truncated
		good + "0",      // trailing junk
		"01" + good[2:], // unknown version
		strings.Replace(good, "-", "_", 1),
		good[:3] + strings.Repeat("0", 32) + good[35:],  // zero trace ID
		good[:36] + strings.Repeat("0", 16) + good[52:], // zero span ID
		good[:3] + "zz" + good[5:],                      // non-hex
		good[:53] + "zz",                                // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
}

// TestRecordingSpans covers span minting, parenting, attributes,
// annotation, and the per-request bound.
func TestRecordingSpans(t *testing.T) {
	sc := testContext()
	rec := NewRecording(sc, 3)
	if rec.Context() != sc {
		t.Fatalf("Context = %+v, want %+v", rec.Context(), sc)
	}

	start := time.Now()
	root := sc.SpanID
	a := rec.AddSpan(registry.SpanQueueWait, root, start, time.Millisecond)
	b := rec.AddSpan(registry.StageHPFilter, root, start, 2*time.Millisecond,
		Attr{Key: "series_len", Value: "1024"})
	if a.IsZero() || b.IsZero() || a == b || a == root || b == root {
		t.Fatalf("span IDs not distinct/nonzero: a=%v b=%v root=%v", a, b, root)
	}
	rec.Annotate(a, Attr{Key: "coalesced", Value: "true"})

	rec.AddSpan(registry.StageMODWT, root, start, time.Millisecond)
	if id := rec.AddSpan(registry.StageRanking, root, start, time.Millisecond); !id.IsZero() {
		t.Fatal("span over the bound was retained")
	}
	if rec.Len() != 3 || rec.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 3/1", rec.Len(), rec.Dropped())
	}

	spans := rec.Spans()
	if spans[0].Name != registry.SpanQueueWait || spans[0].Parent != root {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Key != "coalesced" {
		t.Fatalf("annotation missing: %+v", spans[0].Attrs)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0].Value != "1024" {
		t.Fatalf("inline attrs missing: %+v", spans[1].Attrs)
	}
}

// TestAttachSpansEmitsStageSpans pins the zero-call-site contract:
// attaching a recording to a Trace makes every stage section emitted
// by existing pipeline code appear as a span, with real timestamps.
func TestAttachSpansEmitsStageSpans(t *testing.T) {
	sc := testContext()
	rec := NewRecording(sc, 0)
	tr := New()
	tr.AttachSpans(rec, sc.SpanID)

	before := time.Now()
	st := tr.StartStage(StageHPFilter)
	time.Sleep(2 * time.Millisecond)
	st.End()
	st = tr.StartStage(StagePeriodogram)
	st.End()
	st = tr.StartStage(StagePeriodogram) // second per-level section
	st.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 stage spans, got %d: %+v", len(spans), spans)
	}
	if spans[0].Name != StageHPFilter || spans[0].Parent != sc.SpanID {
		t.Fatalf("stage span 0 = %+v", spans[0])
	}
	if spans[0].Duration < 2*time.Millisecond {
		t.Fatalf("stage span duration %v shorter than slept time", spans[0].Duration)
	}
	if spans[0].Start.Before(before) {
		t.Fatalf("stage span start %v before the section opened", spans[0].Start)
	}
	// The merged Summary still reports periodogram once while the
	// recording keeps both sections as separate spans.
	if s := tr.Summary(); s.Stage(StagePeriodogram).Calls != 2 {
		t.Fatalf("summary merged calls = %d, want 2", s.Stage(StagePeriodogram).Calls)
	}
}

// TestSampledOutSpanPathAllocatesNothing extends the AllocsPerRun pin
// to the span layer: with sampling off (nil *Recording) the whole
// span surface — parse, attach, add, annotate — must stay
// allocation-free, as must stage timing on a Trace with no recording
// attached beyond its pre-span cost.
func TestSampledOutSpanPathAllocatesNothing(t *testing.T) {
	var rec *Recording
	var tr *Trace
	tp := testContext().Traceparent()
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := ParseTraceparent(tp); !ok {
			t.Fatal("parse failed")
		}
		tr.AttachSpans(rec, SpanID{})
		id := rec.AddSpan(registry.SpanQueueWait, SpanID{}, time.Time{}, 0)
		rec.Annotate(id)
		_ = rec.Context()
		_ = rec.Spans()
		_ = rec.Len()
		_ = rec.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("sampled-out span path allocated %.1f objects per run, want 0", allocs)
	}
}

// TestSpanStoreFiltersAndPinning drills the trace flight recorder:
// ring overflow, error pinning, lookup, and every listing filter.
func TestSpanStoreFiltersAndPinning(t *testing.T) {
	store := obs.NewRing[[16]byte, TraceRecord](4)
	mk := func(i byte, outcome, tenant string, d time.Duration) TraceRecord {
		var id [16]byte
		id[0] = i
		return TraceRecord{
			TraceID: id, Time: time.Now(), Duration: d,
			Endpoint: "detect", Tenant: tenant, Outcome: outcome,
			Spans: []Span{{Name: registry.SpanRequest, Duration: d}},
		}
	}
	errRec := mk(1, "error", "acme", 50*time.Millisecond)
	store.Add(errRec.TraceID, errRec.Interesting(), &errRec)
	for i := byte(2); i <= 9; i++ {
		r := mk(i, "ok", "default", time.Duration(i)*time.Millisecond)
		store.Add(r.TraceID, r.Interesting(), &r)
	}

	// The error trace is long gone from the 4-slot recent ring but
	// still pinned.
	got, ok := store.Lookup(errRec.TraceID)
	if !ok || got.Outcome != "error" || len(got.Spans) != 1 {
		t.Fatalf("pinned error trace lost: %+v ok=%v", got, ok)
	}

	all := store.Snapshot(0, nil)
	if len(all) != 5 { // 4 recent + 1 pinned
		t.Fatalf("snapshot len = %d, want 5", len(all))
	}
	if all[0].TraceID[0] != 9 {
		t.Fatalf("snapshot not newest-first: %+v", all[0].TraceID)
	}

	if got := store.Snapshot(0, Filter{Outcome: "error"}.Match); len(got) != 1 || got[0].Tenant != "acme" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := store.Snapshot(0, Filter{Tenant: "acme"}.Match); len(got) != 1 {
		t.Fatalf("tenant filter: %+v", got)
	}
	if got := store.Snapshot(0, Filter{MinDuration: 9 * time.Millisecond}.Match); len(got) != 2 {
		t.Fatalf("minDuration filter kept %d, want 2 (the 9ms ok + 50ms error)", len(got))
	}
	if got := store.Snapshot(2, nil); len(got) != 2 {
		t.Fatalf("limit: %d", len(got))
	}

	var store2 *obs.Ring[[16]byte, TraceRecord]
	store2.Add(errRec.TraceID, errRec.Interesting(), &errRec)
	if _, ok := store2.Lookup(errRec.TraceID); ok || store2.Len() != 0 {
		t.Fatal("nil store not inert")
	}
}
