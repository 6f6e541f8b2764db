// Package analysis is rplint's engine: a small, standard-library-only
// static-analysis framework (go/parser + go/types, module-aware
// loading via `go list -json`) plus the seven analyzers that encode
// this repository's correctness invariants — stdlib purity,
// tolerance-based float comparison, cancellation-aware hot loops,
// registry-resolved fault/trace/metric names, %w-wrapped sentinels,
// once-per-Server expvar registration, and lock discipline in the
// service layers. See cmd/rplint for the command-line tool and the
// README "Static analysis" section for the catalog.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Finding is one reported violation.
type Finding struct {
	File     string `json:"file"` // module-relative, slash-separated
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in rplint's canonical text form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string // short name, e.g. "floateq"; suppressions use rplint/<name>
	Doc  string // one-line description for -list and the README
	Flow bool   // true for flow-aware analyzers (CFG / call-summary layer)
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Cfg      *Config
	Facts    *Facts // module-wide call summaries; nil only in focused unit tests

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:     relFile(p.Cfg.ModuleDir, position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// relFile makes filename module-relative with forward slashes, for
// stable output across machines.
func relFile(moduleDir, filename string) string {
	if rel, err := filepath.Rel(moduleDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// Analyzers returns the full rplint suite, in reporting order: the
// six per-file analyzers, then lockdiscipline, the one flow-aware
// analyzer, built on the CFG and call-summary layers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		StdlibOnly,
		FloatEq,
		CtxLoop,
		Registry,
		ErrWrap,
		MutexHeld,
		LockDiscipline,
	}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// suppressRe matches an rplint suppression comment:
//
//	//lint:ignore rplint/<analyzer> <reason>
//
// The reason is mandatory; a suppression without one is itself a
// finding. A suppression applies to findings on its own line (for
// end-of-line comments) and on the following line (for a standalone
// comment above the flagged statement).
var suppressRe = regexp.MustCompile(`^//lint:ignore rplint/([a-z]+)\s*(.*)$`)

// suppressions maps file → line → analyzer names suppressed there.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans a package's comments. Malformed
// suppressions (missing reason, unknown analyzer) are reported as
// findings through report.
func collectSuppressions(fset *token.FileSet, pkg *Package, moduleDir string, report func(Finding)) suppressions {
	sup := make(suppressions)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				file := relFile(moduleDir, pos.Filename)
				name, reason := m[1], strings.TrimSpace(m[2])
				if AnalyzerByName(name) == nil {
					report(Finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: "suppress",
						Message: fmt.Sprintf("suppression names unknown analyzer rplint/%s", name)})
					continue
				}
				if reason == "" {
					report(Finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: "suppress",
						Message: fmt.Sprintf("suppression of rplint/%s needs a reason: //lint:ignore rplint/%s <why this is safe>", name, name)})
					continue
				}
				if sup[file] == nil {
					sup[file] = make(map[int]map[string]bool)
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if sup[file][line] == nil {
						sup[file][line] = make(map[string]bool)
					}
					sup[file][line][name] = true
				}
			}
		}
	}
	return sup
}

// Run executes the analyzers over every package, applies suppressions,
// and returns the surviving findings sorted by position.
func Run(pkgs []*Package, cfg *Config, analyzers []*Analyzer) []Finding {
	findings, _ := RunTimed(pkgs, cfg, analyzers)
	return findings
}

// Timing is one entry of the per-analyzer wall-clock breakdown.
type Timing struct {
	Analyzer string  `json:"analyzer"` // analyzer name, or "facts" for the shared summary pass
	Millis   float64 `json:"millis"`
}

// RunTimed is Run plus a per-analyzer wall-clock breakdown (summed
// across packages), led by a "facts" entry for the call-summary
// computation lockdiscipline consumes.
func RunTimed(pkgs []*Package, cfg *Config, analyzers []*Analyzer) ([]Finding, []Timing) {
	elapsed := make(map[string]time.Duration)

	factsStart := time.Now()
	facts := ComputeFacts(pkgs)
	elapsed["facts"] = time.Since(factsStart)

	var out []Finding
	for _, pkg := range pkgs {
		var raw []Finding
		report := func(f Finding) { raw = append(raw, f) }
		sup := collectSuppressions(cfg.Fset, pkg, cfg.ModuleDir, func(f Finding) { out = append(out, f) })
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: cfg.Fset, Pkg: pkg, Cfg: cfg, Facts: facts, report: report}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		for _, f := range raw {
			if sup[f.File] != nil && sup[f.File][f.Line] != nil && sup[f.File][f.Line][f.Analyzer] {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, GlobalFindings(cfg)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	timings := []Timing{{Analyzer: "facts", Millis: float64(elapsed["facts"]) / float64(time.Millisecond)}}
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Millis: float64(elapsed[a.Name]) / float64(time.Millisecond)})
	}
	return out, timings
}

// GlobalFindings reports the whole-repo invariants that are not tied
// to a single package: registry self-consistency and the
// registry ↔ README metric-table agreement.
func GlobalFindings(cfg *Config) []Finding {
	var out []Finding
	reg := func(msg string) {
		out = append(out, Finding{File: "internal/registry/registry.go", Line: 1, Col: 1, Analyzer: "registry", Message: msg})
	}
	for _, p := range cfg.RegistryProblems {
		reg(p)
	}
	if cfg.ReadmeMetrics != nil {
		var names []string
		for name := range cfg.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !cfg.ReadmeMetrics[name] {
				reg(fmt.Sprintf("metric family %s is not documented in %s's metric table", name, cfg.ReadmePath))
			}
		}
		var doc []string
		for name := range cfg.ReadmeMetrics {
			doc = append(doc, name)
		}
		sort.Strings(doc)
		for _, name := range doc {
			if _, ok := cfg.Metrics[name]; !ok {
				out = append(out, Finding{File: cfg.ReadmePath, Line: 1, Col: 1, Analyzer: "registry",
					Message: fmt.Sprintf("%s documents metric family %s that internal/registry does not declare", cfg.ReadmePath, name)})
			}
		}
	}
	return out
}
