package eval

import (
	"strings"
	"testing"
)

func benchFixture() BenchReport {
	return BenchReport{
		Schema: BenchSchema,
		Trials: 5,
		Seed:   1,
		Quality: []QualityRow{
			{Table: 1, Corpus: "sin-mild", Tol: 0, Metric: "precision", Score: 1.0},
			{Table: 2, Corpus: "multi-mild", Tol: 0.02, Metric: "f1", Score: 0.95},
		},
	}
}

func TestCompareBenchPasses(t *testing.T) {
	base := benchFixture()
	if v := CompareBench(base, base); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}
	// Improvements are never violations.
	cur := benchFixture()
	cur.Quality[1].Score = 0.99
	if v := CompareBench(base, cur); len(v) != 0 {
		t.Fatalf("improvement flagged: %v", v)
	}
}

func TestCompareBenchFlagsQualityDrop(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Quality[1].Score = 0.94
	v := CompareBench(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "f1 dropped") {
		t.Fatalf("F1 drop not flagged: %v", v)
	}
	// Any drop counts — there is no quality allowance.
	cur.Quality[1].Score = base.Quality[1].Score - 1e-6
	if v := CompareBench(base, cur); len(v) != 1 {
		t.Fatalf("tiny F1 drop not flagged: %v", v)
	}
}

func TestCompareBenchRejectsIncomparableRuns(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()

	stale := base
	stale.Schema = "robustperiod-bench/v0"
	if v := CompareBench(stale, cur); len(v) != 1 || !strings.Contains(v[0], "schema") {
		t.Fatalf("stale schema not rejected: %v", v)
	}

	cur.Seed = 2
	if v := CompareBench(base, cur); len(v) == 0 || !strings.Contains(v[0], "not comparable") {
		t.Fatalf("seed mismatch not rejected: %v", v)
	}

	cur = benchFixture()
	cur.Quality = cur.Quality[:1]
	if v := CompareBench(base, cur); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("missing quality row not flagged: %v", v)
	}
}
