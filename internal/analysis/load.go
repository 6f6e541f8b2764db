package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of one `go list -json` record the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Standard   bool
}

// Package is one loaded, parsed, and type-checked module package —
// the unit every analyzer runs over.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Filenames  []string // absolute, parallel to Files
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages with nothing but the
// standard library: module packages resolve by directory mapping
// under the module root, everything else from GOROOT/src via go/build
// (which also resolves the standard library's vendored imports). Cgo
// is disabled so the pure-Go variants of the standard library are
// selected; `import "C"` never appears in a stdlib-only module.
type Loader struct {
	Fset       *token.FileSet
	GoRoot     string
	ModulePath string
	ModuleDir  string

	// Overrides maps import paths to source directories, consulted
	// before ordinary resolution; the fixture tests use it to supply a
	// fake third-party dependency that no real resolver could find.
	Overrides map[string]string

	ctxt     build.Context
	packages map[string]*types.Package // keyed by package dir; nil marks in-progress (cycle)
	DepErrs  []error                   // soft type errors seen in dependencies
}

// NewLoader prepares a Loader rooted at moduleDir.
func NewLoader(moduleDir, modulePath, goroot string) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	ctxt.Dir = moduleDir
	return &Loader{
		Fset:       token.NewFileSet(),
		GoRoot:     goroot,
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		ctxt:       ctxt,
		packages:   make(map[string]*types.Package),
	}
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePathOf reads the module path from moduleDir/go.mod.
func modulePathOf(moduleDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", moduleDir)
}

// goList resolves patterns (e.g. "./...") to package metadata via
// `go list -json`.
func goList(moduleDir string, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,Name,GoFiles,Standard", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []listPackage
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

func goEnv(dir, key string) (string, error) {
	cmd := exec.Command("go", "env", key)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env %s: %w", key, err)
	}
	return strings.TrimSpace(string(out)), nil
}

// Load lists patterns and type-checks every non-test module package
// they resolve to, in a shared Loader whose result is returned along
// with the Loader (for config construction and further queries).
func Load(moduleDir string, patterns []string) (*Loader, []*Package, error) {
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, nil, err
	}
	goroot, err := goEnv(moduleDir, "GOROOT")
	if err != nil {
		return nil, nil, err
	}
	listed, err := goList(moduleDir, patterns)
	if err != nil {
		return nil, nil, err
	}
	l := NewLoader(moduleDir, modulePath, goroot)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.checkDir(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}
	return l, pkgs, nil
}

// LoadDir type-checks one directory's non-test files as importPath —
// the entry point for fixture tests, whose files live under testdata
// and are invisible to `go list`.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	return l.checkDir(importPath, dir, bp.GoFiles)
}

// checkDir parses and fully type-checks the named files of one target
// package, recording complete type information. The result is also
// registered in the import cache so later targets that import it reuse
// the checked package.
func (l *Loader) checkDir(importPath, dir string, goFiles []string) (*Package, error) {
	files, names, err := l.parseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, firstErr)
	}
	// Register for reuse by later importers — but never overwrite: if
	// this package was already checked as a dependency, other packages
	// hold references into that version, and mixing the two breaks
	// type identity.
	if _, ok := l.packages[dir]; !ok {
		l.packages[dir] = tpkg
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Filenames:  names,
		Types:      tpkg,
		Info:       info,
	}, nil
}

func (l *Loader) parseFiles(dir string, goFiles []string) ([]*ast.File, []string, error) {
	var files []*ast.File
	var names []string
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		names = append(names, path)
	}
	return files, names, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal import
// paths map straight onto directories under the module root; anything
// else must be standard library, resolved from GOROOT/src relative to
// the importing package (so the stdlib's vendored golang.org/x/*
// dependencies resolve the same way the go tool resolves them).
// Dependencies are type-checked from source, recursively, exactly
// once; type errors inside dependencies are tolerated (collected in
// DepErrs) so one exotic corner of the stdlib cannot take the whole
// lint run down.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var dir string
	var goFiles []string
	if odir, ok := l.Overrides[path]; ok {
		dir = odir
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolving overridden import %q: %w", path, err)
		}
		goFiles = bp.GoFiles
	} else if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir = filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolving module import %q: %w", path, err)
		}
		goFiles = bp.GoFiles
	} else {
		bp, err := l.ctxt.Import(path, srcDir, 0)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolving import %q: %w", path, err)
		}
		dir = bp.Dir
		goFiles = bp.GoFiles
		path = bp.ImportPath
	}
	if pkg, ok := l.packages[dir]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, nil
	}
	l.packages[dir] = nil // in progress: a re-entrant import is a cycle
	files, _, err := l.parseFiles(dir, goFiles)
	if err != nil {
		delete(l.packages, dir)
		return nil, err
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			l.DepErrs = append(l.DepErrs, err)
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, nil)
	if tpkg == nil {
		delete(l.packages, dir)
		return nil, fmt.Errorf("analysis: type-checking dependency %q: %w", path, err)
	}
	l.packages[dir] = tpkg
	return tpkg, nil
}
