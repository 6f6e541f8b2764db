package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"robustperiod/internal/core"
	"robustperiod/internal/synthetic"
)

// tablesCorpus is a compact slice of the Tables 1-3 benchmark corpora
// (same generators and seed offsets as the eval suite) used to assert
// end-to-end solver-path equivalence.
func tablesCorpus(short bool) []synthetic.Labeled {
	const seed = 1
	var all []synthetic.Labeled
	add := func(name string, ls []synthetic.Labeled) {
		for i := range ls {
			ls[i].Name = fmt.Sprintf("%s/%s", name, ls[i].Name)
		}
		all = append(all, ls...)
	}
	add("sin-mild", synthetic.SinCorpus(2, 1000, synthetic.Sine, []int{100}, 0.1, 0.01, seed))
	add("sin-severe", synthetic.SinCorpus(2, 1000, synthetic.Sine, []int{100}, 2, 0.2, seed+1))
	add("multi-mild", synthetic.SinCorpus(2, 1000, synthetic.Sine, []int{20, 50, 100}, 0.1, 0.01, seed+100))
	add("multi-severe", synthetic.SinCorpus(2, 1000, synthetic.Sine, []int{20, 50, 100}, 1, 0.1, seed+101))
	add("yahoo-a3", synthetic.YahooA3Corpus(2, seed+102))
	add("yahoo-a4", synthetic.YahooA4Corpus(2, seed+103))
	add("square", synthetic.SinCorpus(2, 1000, synthetic.Square, []int{20, 50, 100}, 0.1, 0.01, seed+200))
	add("triangle", synthetic.SinCorpus(2, 1000, synthetic.Triangle, []int{20, 50, 100}, 0.1, 0.01, seed+201))
	if !short {
		add("cran", synthetic.CRANCorpus(seed+2))
	}
	return all
}

// TestDetectSolverPathEquivalence asserts that the staged solver
// engine's shortcuts — the Fisher prefilter and the helper goroutines
// that share levels and band chunks — detect exactly the same periods
// as the exact solver on the Tables 1-3 corpus. The
// shortcuts are performance features; any divergence in detected
// periods is a bug.
func TestDetectSolverPathEquivalence(t *testing.T) {
	corpus := tablesCorpus(testing.Short())

	exactOpts := core.Options{}
	exactOpts.Detect.MPOpts.NoPrefilter = true

	// GOMAXPROCS=1 leaves no helper slot: the one-worker run.
	variants := []struct {
		name  string
		procs int
	}{
		{"fast-sequential", 1},
		{"fast-parallel", 4},
	}

	for _, lab := range corpus {
		want, wantErr := core.Detect(lab.X, exactOpts)
		for _, v := range variants {
			prev := runtime.GOMAXPROCS(v.procs)
			got, gotErr := core.Detect(lab.X, core.Options{})
			runtime.GOMAXPROCS(prev)
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%s [%s]: error mismatch: exact=%v got=%v", lab.Name, v.name, wantErr, gotErr)
				continue
			}
			if wantErr != nil {
				continue
			}
			if !equalInts(got.Periods, want.Periods) {
				t.Errorf("%s [%s]: periods diverged: exact=%v got=%v", lab.Name, v.name, want.Periods, got.Periods)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
