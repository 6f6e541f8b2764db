package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"

	"robustperiod/internal/registry"
)

// Config carries the repo-level knowledge the analyzers check against:
// the registry's canonical name sets, the README's documented metric
// families, and which packages the cancellation contract applies to.
type Config struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	GoRoot     string

	FaultPoints map[string]bool
	TraceStages map[string]bool
	Metrics     map[string]registry.Metric

	ReadmePath    string          // module-relative, e.g. "README.md"
	ReadmeMetrics map[string]bool // rp_* tokens mentioned in the README; nil disables the doc checks

	// CtxLoopPackages are the import paths whose allocating loops must
	// poll cancellation (the PR 1/3 contract: per-frequency and
	// per-iteration hot loops of the detection pipeline).
	CtxLoopPackages map[string]bool

	// LockOrder is the registry lock-order catalog: lock class →
	// acquisition rank, outermost first. Acquiring a class while
	// holding an equal-or-later-ranked class is a lockdiscipline
	// finding.
	LockOrder map[string]int

	// LockCatalogPackages are the import paths whose mutexes must all
	// appear in LockOrder (the long-lived shared-state layers:
	// jobs, wal, serve, obs, trace, slo).
	LockCatalogPackages map[string]bool

	RegistryProblems []string // registry.Validate() output, reported once
}

// metricTokenRe extracts metric family mentions from the README.
var metricTokenRe = regexp.MustCompile(`rp_[a-z0-9_]+`)

// RepoConfig builds the standard configuration for this repository
// from a finished Loader: registry constants via the compiled-in
// catalog, documented metrics by scanning README.md.
func RepoConfig(l *Loader) (*Config, error) {
	cfg := &Config{
		Fset:             l.Fset,
		ModulePath:       l.ModulePath,
		ModuleDir:        l.ModuleDir,
		GoRoot:           l.GoRoot,
		FaultPoints:      stringSet(registry.FaultPoints()),
		TraceStages:      stringSet(registry.TraceStages()),
		Metrics:          make(map[string]registry.Metric),
		ReadmePath:       "README.md",
		CtxLoopPackages:  make(map[string]bool),
		RegistryProblems: registry.Validate(),
	}
	for _, m := range registry.Metrics() {
		cfg.Metrics[m.Name] = m
	}
	for _, suffix := range []string{
		"/internal/spectrum",
		"/internal/filter/hp",
		"/internal/wavelet",
		"/internal/core",
		"/internal/detect",
	} {
		cfg.CtxLoopPackages[l.ModulePath+suffix] = true
	}
	cfg.LockOrder = make(map[string]int)
	for i, class := range registry.LockOrder() {
		cfg.LockOrder[class] = i
	}
	cfg.LockCatalogPackages = make(map[string]bool)
	for _, suffix := range []string{
		"/internal/jobs",
		"/internal/wal",
		"/internal/serve",
		"/internal/obs",
		"/internal/trace",
		"/internal/slo",
	} {
		cfg.LockCatalogPackages[l.ModulePath+suffix] = true
	}
	readme, err := os.ReadFile(filepath.Join(l.ModuleDir, cfg.ReadmePath))
	if err != nil {
		return nil, err
	}
	cfg.ReadmeMetrics = make(map[string]bool)
	for _, tok := range metricTokenRe.FindAllString(string(readme), -1) {
		cfg.ReadmeMetrics[tok] = true
	}
	return cfg, nil
}

func stringSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}
