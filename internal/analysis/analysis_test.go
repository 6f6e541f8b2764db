package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robustperiod/internal/registry"
)

var update = flag.Bool("update", false, "rewrite the fixtures' expect.txt golden files")

// fixtureLoader builds a Loader rooted at the real module (so fixture
// imports of robustperiod/... resolve against the live packages) with
// an import override into testdata, giving the stdlibonly fixture a
// resolvable third-party import that is neither stdlib nor module.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	goroot, err := goEnv(moduleDir, "GOROOT")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(moduleDir, modulePath, goroot)
	depDir, err := filepath.Abs(filepath.Join("testdata", "gopath", "src", "github.com", "fake", "dep"))
	if err != nil {
		t.Fatal(err)
	}
	l.Overrides = map[string]string{"github.com/fake/dep": depDir}
	return l
}

// fixtureConfig mirrors RepoConfig but anchors file paths at the
// fixture directory (so goldens stay short and stable) and disables
// the README doc checks, which are exercised separately.
func fixtureConfig(l *Loader, fixtureDir, importPath string) *Config {
	cfg := &Config{
		Fset:            l.Fset,
		ModulePath:      l.ModulePath,
		ModuleDir:       fixtureDir,
		GoRoot:          l.GoRoot,
		FaultPoints:     stringSet(registry.FaultPoints()),
		TraceStages:     stringSet(registry.TraceStages()),
		Metrics:         make(map[string]registry.Metric),
		CtxLoopPackages: map[string]bool{importPath: true},
	}
	for _, m := range registry.Metrics() {
		cfg.Metrics[m.Name] = m
	}
	// The lock-order catalog, scoped to the fixture packages: the
	// lockdiscipline fixture's classes in nesting order, plus the
	// generics fixture's mutex so its coverage check stays quiet.
	cfg.LockOrder = map[string]int{
		"lockdiscipline.Outer.mu": 0,
		"lockdiscipline.Inner.mu": 1,
		"lockdiscipline.globalMu": 2,
		"generics.Cache.mu":       3,
	}
	cfg.LockCatalogPackages = map[string]bool{importPath: true}
	return cfg
}

// TestFixtures runs each analyzer over its golden fixture and compares
// the rendered findings against testdata/src/<name>/expect.txt. Run
// with -update to rewrite the goldens after an intentional change.
func TestFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
	}{
		{"stdlibonly", "stdlibonly"},
		{"floateq", "floateq"},
		{"ctxloop", "ctxloop"},
		{"registrycheck", "registry"},
		{"errwrap", "errwrap"},
		{"mutexheld", "mutexheld"},
		{"suppress", "floateq"},
		{"lockdiscipline", "lockdiscipline"},
	}
	l := fixtureLoader(t)
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			importPath := "fixture/" + tc.fixture
			pkg, err := l.LoadDir(dir, importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			a := AnalyzerByName(tc.analyzer)
			if a == nil {
				t.Fatalf("no analyzer %q", tc.analyzer)
			}
			cfg := fixtureConfig(l, dir, importPath)
			findings := Run([]*Package{pkg}, cfg, []*Analyzer{a})
			var lines []string
			for _, f := range findings {
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != strings.TrimRight(string(want), "\n") {
				t.Errorf("findings mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGenericsFixture runs the ENTIRE suite — lockdiscipline
// included — over a type-parameterized package: zero findings, zero
// panics. Generic receivers, instantiation expressions, and closures
// over type parameters must flow through the CFG, summary, and class
// resolution layers untouched.
func TestGenericsFixture(t *testing.T) {
	l := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatal(err)
	}
	importPath := "fixture/generics"
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading generics fixture: %v", err)
	}
	cfg := fixtureConfig(l, dir, importPath)
	for _, f := range Run([]*Package{pkg}, cfg, Analyzers()) {
		t.Errorf("unexpected finding on generic code: %s", f)
	}
}

// TestRepoClean is the self-test: the full suite over the whole module
// must report nothing. This is the same invariant CI enforces with
// `go run ./cmd/rplint ./...`; failing here means a change introduced
// a violation (fix it) or an analyzer regressed (fix that).
func TestRepoClean(t *testing.T) {
	moduleDir, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, pkgs, err := Load(moduleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := RepoConfig(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(pkgs, cfg, Analyzers()) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestGlobalFindings exercises the whole-repo checks in isolation:
// registry problems surface at the registry source, and the
// registry ↔ README metric table must agree in both directions.
func TestGlobalFindings(t *testing.T) {
	cfg := &Config{
		ReadmePath: "README.md",
		Metrics: map[string]registry.Metric{
			"rp_documented_total":   {Name: "rp_documented_total"},
			"rp_undocumented_total": {Name: "rp_undocumented_total"},
		},
		ReadmeMetrics:    map[string]bool{"rp_documented_total": true, "rp_phantom_total": true},
		RegistryProblems: []string{"duplicate metric name rp_documented_total"},
	}
	var got []string
	for _, f := range GlobalFindings(cfg) {
		got = append(got, f.String())
	}
	want := []string{
		"internal/registry/registry.go:1: [registry] duplicate metric name rp_documented_total",
		"internal/registry/registry.go:1: [registry] metric family rp_undocumented_total is not documented in README.md's metric table",
		"README.md:1: [registry] README.md documents metric family rp_phantom_total that internal/registry does not declare",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("global findings mismatch\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
