package core

import (
	"reflect"
	"testing"

	"robustperiod/internal/trace"
	"robustperiod/internal/wavelet"
)

// TestTracedDetectionIdentical pins the tracing layer's observability
// contract: attaching a Trace must not change any detection output —
// periods, per-level verdicts, preprocessed series — bit for bit.
func TestTracedDetectionIdentical(t *testing.T) {
	x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, 7)

	plain, err := Detect(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Detect(x, Options{Trace: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Periods, traced.Periods) {
		t.Fatalf("periods differ: %v vs %v", plain.Periods, traced.Periods)
	}
	if !reflect.DeepEqual(plain.Preprocessed, traced.Preprocessed) {
		t.Fatal("preprocessed series differ")
	}
	if len(plain.Levels) != len(traced.Levels) {
		t.Fatalf("level count differs: %d vs %d", len(plain.Levels), len(traced.Levels))
	}
	for i := range plain.Levels {
		a, b := plain.Levels[i], traced.Levels[i]
		if a.Selected != b.Selected || a.Detection.Periodic != b.Detection.Periodic ||
			a.Detection.Final != b.Detection.Final || a.Variance != b.Variance {
			t.Fatalf("level %d differs: %+v vs %+v", i+1, a, b)
		}
	}
	if plain.Trace != nil {
		t.Fatal("untraced detection carries a trace summary")
	}
	if traced.Trace == nil {
		t.Fatal("traced detection carries no trace summary")
	}
}

// TestTraceCoversPipeline checks a full multi-period detection records
// every canonical stage exactly once, with sane contents.
func TestTraceCoversPipeline(t *testing.T) {
	x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, 3)
	tr := trace.New()
	res, err := Detect(x, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Trace
	seen := map[string]int{}
	for _, st := range s.Stages {
		seen[st.Name]++
	}
	for _, name := range trace.PipelineStages() {
		if seen[name] != 1 {
			t.Errorf("stage %q appears %d times in summary, want exactly 1 (stages: %v)",
				name, seen[name], stageNames(s))
		}
	}
	pg := s.Stage(trace.StagePeriodogram)
	if pg.Duration <= 0 || pg.Calls < 1 {
		t.Fatalf("periodogram stage empty: %+v", pg)
	}
	if pg.Counters["solver_iters"] <= 0 {
		t.Fatalf("no solver iterations recorded: %v", pg.Counters)
	}
	md := s.Stage(trace.StageMODWT)
	if md.Counters["levels"] < 1 || md.Counters["boundary_dropped"] < 1 {
		t.Fatalf("modwt diagnostics missing: %v", md.Counters)
	}
	if got := s.Stage(trace.StageRanking).Counters["levels_selected"]; got < 1 {
		t.Fatalf("no selected levels recorded: %d", got)
	}
	if len(s.Levels) != len(res.Levels) {
		t.Fatalf("trace has %d level outcomes, result has %d levels", len(s.Levels), len(res.Levels))
	}
	periodicInTrace := 0
	for _, lv := range s.Levels {
		if lv.Periodic {
			periodicInTrace++
		}
	}
	if periodicInTrace == 0 {
		t.Fatal("no periodic level outcome recorded for a 3-periodic series")
	}
	if s.Total <= 0 {
		t.Fatalf("total %v not positive", s.Total)
	}
}

// TestTracedParallelDetection exercises the trace's concurrency paths
// through the per-level and per-chunk fan-out (run under -race in CI):
// the traced detect must equal the untraced one-worker run.
func TestTracedParallelDetection(t *testing.T) {
	withProcs(t, 4)
	x := paperSynthetic(1000, []int{20, 50, 100}, 0.1, 0.01, 11)
	tr := trace.New()
	res, err := Detect(x, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := oneWorker(func() (*Result, error) { return Detect(x, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(plain, res); err != nil {
		t.Fatalf("traced detect differs from the one-worker run: %v", err)
	}
	if res.Trace.Stage(trace.StagePeriodogram) == nil {
		t.Fatal("detection recorded no periodogram stage")
	}
}

func stageNames(s *trace.Summary) []string {
	names := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		names[i] = st.Name
	}
	return names
}

// TestTraceCountsBoundaryRetries checks the periodogram stage's
// boundary_retries counter on an N=4096 detect: it counts exactly the
// selected levels that failed on the circular transform and whose
// boundary, L_j − 1, is at least 1% of N. The series has rejected
// levels on both sides of that line.
func TestTraceCountsBoundaryRetries(t *testing.T) {
	const n = 4096
	x := paperSynthetic(n, []int{24, 168}, 2, 0.05, 5)
	res, err := Detect(x, Options{Trace: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := Detect(x, Options{CircularBoundary: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := wavelet.NewFilter(wavelet.Daub8)
	if err != nil {
		t.Fatal(err)
	}
	want, skipped := int64(0), 0
	for _, lv := range circ.Levels {
		if !lv.Selected || lv.Detection.Periodic {
			continue
		}
		if 100*(f.EquivalentWidth(lv.Level)-1) >= n {
			want++
		} else {
			skipped++
		}
	}
	if want == 0 || skipped == 0 {
		t.Fatalf("%d rejected levels retried and %d skipped; the test needs both", want, skipped)
	}
	if got := res.Trace.Stage(trace.StagePeriodogram).Counters[trace.CounterBoundaryRetries]; got != want {
		t.Errorf("boundary_retries = %d, want %d", got, want)
	}
}
