// Command rpbench regenerates the tables and figures of the paper's
// evaluation section (§4) on the synthetic and surrogate corpora
// described in DESIGN.md, and doubles as the Tables 1–3 quality gate
// behind the CI bench-guard job.
//
//	rpbench -table all            # every table
//	rpbench -table 2 -trials 100  # Table 2 with 100 series per corpus
//	rpbench -figure 5             # Fig. 5 per-level diagnostics
//	rpbench -figure 6             # Fig. 6 periodogram/ACF schemes
//
// Trial counts default to 50 per corpus; the paper uses 1000, which is
// reachable with -trials 1000 if you have the patience.
//
// Bench mode scores the RobustPeriod detector on the Tables 1–3
// corpora at ±0% and ±2%, emitting JSON with schema
// "robustperiod-bench/v1":
//
//	rpbench -quick -json bench/quality.json      # write the report
//	rpbench -quick -baseline bench/quality.json  # gate against a baseline
//
// With -baseline, rpbench exits 1 when any Tables 1–3 quality score
// drops. Scores are deterministic in (-trials, -seed), so gate runs
// must use the values the baseline was generated with; -quick pins
// both for CI. Bench mode combines with -table, -figure, -ablations
// and -report, which run after it. Speed is measured by perfbench
// (perfbench/README.md), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"robustperiod/internal/eval"
	"robustperiod/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpbench: ")

	var (
		table     = flag.String("table", "", "table to regenerate: 1-8 or 'all'")
		figure    = flag.String("figure", "", "figure to regenerate: 5 or 6 or 'all'")
		ablations = flag.Bool("ablations", false, "print the implementation-ablation table (DESIGN.md §6)")
		report    = flag.String("report", "", "run everything and write a markdown report to this path")
		trials    = flag.Int("trials", 50, "series per synthetic corpus")
		seed      = flag.Int64("seed", 1, "base RNG seed")

		quick    = flag.Bool("quick", false, "bench mode with CI-sized corpora (pins -trials 5 -seed 1)")
		jsonOut  = flag.String("json", "", "bench mode: write the JSON report to this file")
		baseline = flag.String("baseline", "", "bench mode: gate the run against this baseline JSON report, exit 1 on a quality drop")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.GetBuildInfo())
		return
	}

	benchMode := *quick || *jsonOut != "" || *baseline != ""
	if *table == "" && *figure == "" && !*ablations && *report == "" && !benchMode {
		flag.Usage()
		os.Exit(2)
	}
	if benchMode {
		runBench(*quick, *trials, *seed, *jsonOut, *baseline)
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(eval.Report(*trials, *seed)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *report)
	}
	if *ablations {
		fmt.Println(eval.TableImplAblations(minInt(*trials, 25), *seed+1000))
	}

	runTable := func(id int) {
		switch id {
		case 1:
			fmt.Println(eval.Table1(*trials, *seed))
		case 2:
			fmt.Println(eval.Table2(*trials, *seed+100))
		case 3:
			fmt.Println(eval.Table3(*trials, *seed+200))
		case 4:
			fmt.Println(eval.Table4(*seed + 300))
		case 5:
			fmt.Println(eval.Table5(*trials, *seed+400))
		case 6:
			fmt.Println(eval.Table6(minInt(*trials, 20), *seed+500))
		case 7:
			fmt.Println(eval.Table7(*trials, *seed+600))
		case 8:
			fmt.Println(eval.Table8(*trials, *seed+700))
		default:
			log.Fatalf("unknown table %d", id)
		}
	}
	runFigure := func(id int) {
		switch id {
		case 5:
			fmt.Println(eval.Figure5(*seed + 800))
		case 6:
			fmt.Println(eval.Figure6(*seed + 900))
		default:
			log.Fatalf("unknown figure %d", id)
		}
	}

	if *table != "" {
		if *table == "all" {
			for id := 1; id <= 8; id++ {
				runTable(id)
			}
		} else {
			id, err := strconv.Atoi(*table)
			if err != nil {
				log.Fatalf("bad -table value %q", *table)
			}
			runTable(id)
		}
	}
	if *figure != "" {
		if *figure == "all" {
			runFigure(5)
			runFigure(6)
		} else {
			id, err := strconv.Atoi(*figure)
			if err != nil {
				log.Fatalf("bad -figure value %q", *figure)
			}
			runFigure(id)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runBench runs the quality suite and optionally writes the JSON
// report and/or gates against a baseline. It returns on success so the
// other requested modes still run; a failed gate or an I/O error exits
// the process with status 1.
func runBench(quick bool, trials int, seed int64, jsonOut, baselinePath string) {
	if quick {
		// Pin the corpus shape so -quick runs are comparable across
		// machines and across the committed baseline.
		trials, seed = 5, 1
	}
	log.Printf("bench: trials=%d seed=%d quick=%v", trials, seed, quick)
	rep := eval.RunBench(quick, trials, seed)
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	for _, q := range rep.Quality {
		log.Printf("bench: %-28s %s=%.4f (p=%.4f r=%.4f f1=%.4f)",
			q.Key(), q.Metric, q.Score, q.Precision, q.Recall, q.F1)
	}

	if jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}

	if baselinePath != "" {
		base, err := readBench(baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		if violations := eval.CompareBench(base, rep); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("REGRESSION: %s", v)
			}
			os.Exit(1)
		}
		log.Printf("bench gate passed against %s", baselinePath)
	}
}

// readBench loads and parses a JSON bench report from disk.
func readBench(path string) (eval.BenchReport, error) {
	var rep eval.BenchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return rep, nil
}
