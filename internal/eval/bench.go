// The machine-readable quality gate behind `rpbench -json` and the CI
// bench-guard job: a suite scoring the RobustPeriod detector on the
// Tables 1–3 corpora, and a comparator that turns a committed baseline
// report into a regression gate. Speed is judged by perfbench, not
// here.
package eval

import (
	"fmt"
	"runtime"
	"sort"

	"robustperiod/internal/baselines"
	"robustperiod/internal/synthetic"
)

// BenchSchema identifies the report layout; bump on incompatible
// changes so CompareBench can refuse stale baselines.
const BenchSchema = "robustperiod-bench/v1"

// QualityRow scores the RobustPeriod detector on one corpus at one
// tolerance. Score repeats the table's headline metric (precision for
// Table 1, F1 for Tables 2–3) so the regression gate needs no
// per-table knowledge.
type QualityRow struct {
	Table     int     `json:"table"`
	Corpus    string  `json:"corpus"`
	Tol       float64 `json:"tol"`
	Metric    string  `json:"metric"`
	Score     float64 `json:"score"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Key identifies the row for baseline matching.
func (q QualityRow) Key() string {
	return fmt.Sprintf("table%d/%s/tol=%g", q.Table, q.Corpus, q.Tol)
}

// BenchReport is the machine-readable result written by `rpbench
// -json` and consumed by CompareBench.
type BenchReport struct {
	Schema    string       `json:"schema"`
	Generated string       `json:"generated"`
	GoVersion string       `json:"goVersion"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Quick     bool         `json:"quick"`
	Trials    int          `json:"trials"`
	Seed      int64        `json:"seed"`
	Quality   []QualityRow `json:"quality"`
}

// benchCorpus names one Tables 1–3 corpus for the quality suite. The
// seed offsets mirror the table drivers above so a bench run scores
// the detector on exactly the corpora the rendered tables use.
type benchCorpus struct {
	table  int
	name   string
	metric string
	build  func(trials int, seed int64) []synthetic.Labeled
}

func benchCorpora() []benchCorpus {
	return []benchCorpus{
		{1, "sin-mild", "precision", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Sine, []int{100}, 0.1, 0.01, s)
		}},
		{1, "sin-severe", "precision", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Sine, []int{100}, 2, 0.2, s+1)
		}},
		{1, "cran", "precision", func(_ int, s int64) []synthetic.Labeled {
			return synthetic.CRANCorpus(s + 2)
		}},
		{2, "multi-mild", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Sine, []int{20, 50, 100}, 0.1, 0.01, s+100)
		}},
		{2, "multi-severe", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Sine, []int{20, 50, 100}, 1, 0.1, s+101)
		}},
		{2, "yahoo-a3", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.YahooA3Corpus(tr, s+102)
		}},
		{2, "yahoo-a4", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.YahooA4Corpus(tr, s+103)
		}},
		{3, "square", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Square, []int{20, 50, 100}, 0.1, 0.01, s+200)
		}},
		{3, "triangle", "f1", func(tr int, s int64) []synthetic.Labeled {
			return synthetic.SinCorpus(tr, 1000, synthetic.Triangle, []int{20, 50, 100}, 0.1, 0.01, s+201)
		}},
	}
}

// BenchQuality scores the RobustPeriod detector on every Tables 1–3
// corpus at tolerances ±0% and ±2%. Fully deterministic in (trials,
// seed), so a baseline generated with the same arguments reproduces
// bit-identical scores and the gate can reject any drop.
func BenchQuality(trials int, seed int64) []QualityRow {
	d := baselines.RobustPeriod{}
	var rows []QualityRow
	for _, bc := range benchCorpora() {
		corpus := bc.build(trials, seed)
		for _, tol := range []float64{0, 0.02} {
			m := Run(d, corpus, tol, true).Metrics
			row := QualityRow{
				Table: bc.table, Corpus: bc.name, Tol: tol, Metric: bc.metric,
				Precision: m.Precision, Recall: m.Recall, F1: m.F1,
			}
			if bc.metric == "precision" {
				row.Score = m.Precision
			} else {
				row.Score = m.F1
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RunBench produces the full report. Generated is stamped by the
// caller (cmd/rpbench) so this package stays clock-free and testable.
func RunBench(quick bool, trials int, seed int64) BenchReport {
	return BenchReport{
		Schema:    BenchSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
		Trials:    trials,
		Seed:      seed,
		Quality:   BenchQuality(trials, seed),
	}
}

// qualityEps absorbs float formatting noise; corpora are seeded and
// the detector is deterministic, so any real drop exceeds this.
const qualityEps = 1e-9

// CompareBench gates current against baseline: any quality-score drop
// on the Tables 1–3 corpora is a violation. Returns a human-readable
// violation list, empty when the gate passes.
func CompareBench(baseline, current BenchReport) []string {
	var violations []string
	if baseline.Schema != BenchSchema {
		return []string{fmt.Sprintf("baseline schema %q is not %q — regenerate the baseline", baseline.Schema, BenchSchema)}
	}
	if baseline.Trials != current.Trials || baseline.Seed != current.Seed {
		violations = append(violations, fmt.Sprintf(
			"baseline ran with trials=%d seed=%d but current ran with trials=%d seed=%d — quality scores are not comparable",
			baseline.Trials, baseline.Seed, current.Trials, current.Seed))
	}

	base := make(map[string]QualityRow, len(baseline.Quality))
	for _, q := range baseline.Quality {
		base[q.Key()] = q
	}
	cur := make(map[string]QualityRow, len(current.Quality))
	for _, q := range current.Quality {
		cur[q.Key()] = q
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			violations = append(violations, fmt.Sprintf("quality row %s missing from current run", k))
			continue
		}
		if c.Score < b.Score-qualityEps {
			violations = append(violations, fmt.Sprintf(
				"%s: %s dropped %.4f -> %.4f", k, b.Metric, b.Score, c.Score))
		}
	}
	return violations
}
