package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// resultSet is the end-to-end result files of one directory, by
// workload.
type resultSet map[string][]result

func loadResults(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := resultSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no end-to-end result files in %s", dir)
	}
	return out, nil
}

// e2eSpec is one end-to-end metric of BENCHMARK.json.
type e2eSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec reads the end-to-end metrics, their direction and their
// regression bounds from BENCHMARK.json in the working directory.
func benchSpec() ([]e2eSpec, error) {
	var spec struct {
		EndToEnd []e2eSpec `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run --compare from the repository root: %w", err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// compareResults prints, per workload and end-to-end metric, the
// median and quartile spread of each side and the change of the
// median, flagging a change worse than the metric's bound. Runs with
// the same seed must have measured the same inputs.
func compareResults(oldDir, newDir string) error {
	olds, err := loadResults(oldDir)
	if err != nil {
		return err
	}
	news, err := loadResults(newDir)
	if err != nil {
		return err
	}
	specs, err := benchSpec()
	if err != nil {
		return err
	}
	for _, w := range sortedKeys(olds) {
		nw, ok := news[w]
		if !ok {
			continue
		}
		digests := map[int64]string{}
		for _, r := range olds[w] {
			digests[r.Seed] = r.InputDigest
		}
		for _, r := range nw {
			if d, ok := digests[r.Seed]; ok && d != r.InputDigest {
				return fmt.Errorf("%s seed %d: input digests differ (%s vs %s); the runs measured different inputs", w, r.Seed, d, r.InputDigest)
			}
		}
		fmt.Printf("%s  (%d old runs, %d new runs)\n", w, len(olds[w]), len(nw))
		fmt.Printf("  %-22s %12s %8s %12s %8s %8s %6s\n", "metric", "old median", "old iqr", "new median", "new iqr", "change", "bound")
		for _, m := range specs {
			om, oi := spread(olds[w], m.Name)
			nm, ni := spread(nw, m.Name)
			change := ratio(nm-om, om)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			flag := ""
			if worse > m.Bound {
				flag = "  WORSE THAN BOUND"
			}
			fmt.Printf("  %-22s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %5.0f%%%s\n",
				m.Name, om, 100*oi, nm, 100*ni, 100*change, 100*m.Bound, flag)
		}
	}
	return nil
}

// spread returns the median of a metric over runs and the distance
// between its quartiles as a share of the median.
func spread(runs []result, name string) (median, iqr float64) {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	median = quantile(v, 0.5)
	return median, ratio(quantile(v, 0.75)-quantile(v, 0.25), median)
}
