// Command rplint runs the repository's static-analysis suite: seven
// analyzers (see internal/analysis and the README "Static analysis"
// section) that enforce the pipeline's correctness invariants over
// every package matched by the given patterns (default ./...). Six are
// per-file checks; lockdiscipline is flow-aware, built on an
// intra-procedural CFG and a module-wide call-summary layer, and
// marked [flow] in -list output.
//
// Usage:
//
//	go run ./cmd/rplint [-json] [-list] [-only names] [patterns...]
//
// Exit status: 0 clean, 1 findings reported, 2 load/usage error.
// Findings print as "file:line: [analyzer] message"; -json emits an
// object {"findings": [...], "timing": [...]} with per-analyzer
// wall-clock milliseconds for machine consumption.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"robustperiod/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Findings []analysis.Finding `json:"findings"`
	Timing   []analysis.Timing  `json:"timing"`
}

func run(argv []string) int {
	fs := flag.NewFlagSet("rplint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings and per-analyzer timing as a JSON object")
	listOnly := fs.Bool("list", false, "list analyzers and exit; flow-aware analyzers are marked [flow]")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *listOnly {
		for _, a := range analysis.Analyzers() {
			kind := ""
			if a.Flow {
				kind = " [flow]"
			}
			fmt.Printf("%-16s %s%s\n", a.Name, a.Doc, kind)
		}
		return 0
	}

	analyzers := analysis.Analyzers()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := analysis.AnalyzerByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "rplint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rplint: %v\n", err)
		return 2
	}
	moduleDir, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rplint: %v\n", err)
		return 2
	}

	loader, pkgs, err := analysis.Load(moduleDir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rplint: %v\n", err)
		return 2
	}
	cfg, err := analysis.RepoConfig(loader)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rplint: %v\n", err)
		return 2
	}

	findings, timing := analysis.RunTimed(pkgs, cfg, analyzers)

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(jsonReport{Findings: findings, Timing: timing}); err != nil {
			fmt.Fprintf(os.Stderr, "rplint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "rplint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
