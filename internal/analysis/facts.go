package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the call-summary half of the flow layer: one pass over
// every loaded package computes a FuncFacts record per function body,
// then a fixpoint propagates the lock summaries along the
// (monomorphic) call graph. lockdiscipline consults the result to
// reason across function boundaries — "which lock classes does this
// callee acquire?", "does this helper release the lock?" — without
// whole-program SSA.

// FuncFacts summarizes one function's locking for cross-procedural
// queries. After ComputeFacts returns, Acquires is transitive over
// same-module calls (excluding calls launched in a go statement, which
// run on another goroutine's stack).
type FuncFacts struct {
	Display string // e.g. "jobs.(*Manager).dispatch"

	Acquires map[string]bool // lock classes acquired, transitively
	Releases map[string]bool // lock classes released directly (unlock helpers)

	calls []string // callee keys, for the fixpoint
}

// Facts is the whole-module summary set keyed by types.Func.FullName
// (stable across the duplicate type-checking of a package as both a
// target and a dependency).
type Facts struct {
	Funcs map[string]*FuncFacts
}

// FuncKey returns the stable cross-package key for f.
func FuncKey(f *types.Func) string {
	return f.FullName()
}

// FuncDisplay renders f the way the analyzers' messages name
// functions: pkg.Func, pkg.Type.Method, or pkg.(*Type).Method, with
// pkg the package's short name.
func FuncDisplay(f *types.Func) string {
	short := "?"
	if f.Pkg() != nil {
		short = f.Pkg().Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return short + "." + f.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, isPtr := t.(*types.Pointer); isPtr {
		ptr = true
		t = p.Elem()
	}
	name := "?"
	if n, isNamed := t.(*types.Named); isNamed {
		name = n.Obj().Name()
	}
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", short, name, f.Name())
	}
	return fmt.Sprintf("%s.%s.%s", short, name, f.Name())
}

// mutexMethod reports whether f is one of the sync.Mutex/sync.RWMutex
// methods, returning its name ("Lock", "RUnlock", ...) when it is.
func mutexMethod(f *types.Func) (string, bool) {
	if f == nil {
		return "", false
	}
	if methodOn(f, "sync", "Mutex") || methodOn(f, "sync", "RWMutex") {
		switch f.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			return f.Name(), true
		}
	}
	return "", false
}

// lockRecv returns the receiver expression of a mutex method call:
// the `m.mu` in `m.mu.Lock()`.
func lockRecv(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// LockClass names the lock class a mutex expression belongs to:
// "pkg.Type.field" for a struct-field mutex, "pkg.var" for a
// package-level mutex variable, or "" for a local (function-scoped)
// mutex, which has no cross-function identity.
func LockClass(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		short := obj.Pkg().Name()
		if !obj.IsField() {
			if obj.Parent() == obj.Pkg().Scope() {
				return short + "." + obj.Name() // qualified package-level var
			}
			return ""
		}
		// Owner type from the receiver side of the selector.
		t := info.Types[e.X].Type
		if t == nil {
			return ""
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.%s.%s", short, n.Obj().Name(), obj.Name())
		}
		return ""
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return ""
	}
	return ""
}

// lockExprText renders the mutex expression for intra-function
// pairing ("m.mu" must be unlocked as "m.mu"). Only ident/selector
// chains render; anything else returns "" and the pairing check
// skips the site conservatively.
func lockExprText(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := lockExprText(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// ComputeFacts builds the module-wide summary set over the loaded
// packages and runs the propagation fixpoint.
func ComputeFacts(pkgs []*Package) *Facts {
	facts := &Facts{Funcs: make(map[string]*FuncFacts)}
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &FuncFacts{
					Display:  FuncDisplay(obj),
					Acquires: make(map[string]bool),
					Releases: make(map[string]bool),
				}
				collectDirectFacts(info, fd, ff)
				facts.Funcs[FuncKey(obj)] = ff
			}
		}
	}

	// Fixpoint: propagate acquires along same-module calls.
	for changed := true; changed; {
		changed = false
		for _, ff := range facts.Funcs {
			for _, calleeKey := range ff.calls {
				callee, ok := facts.Funcs[calleeKey]
				if !ok {
					continue
				}
				for class := range callee.Acquires {
					if !ff.Acquires[class] {
						ff.Acquires[class] = true
						changed = true
					}
				}
			}
		}
	}
	return facts
}

// collectDirectFacts fills ff with fd's own (non-transitive) facts:
// lock classes acquired/released and the call list for the fixpoint.
// Calls inside go statements are excluded — they run on a different
// goroutine's stack, so their lock acquisitions do not transfer to
// the spawner.
func collectDirectFacts(info *types.Info, fd *ast.FuncDecl, ff *FuncFacts) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			f := calleeFunc(info, n)
			if name, ok := mutexMethod(f); ok {
				if class := LockClass(info, lockRecv(n)); class != "" {
					switch name {
					case "Lock", "RLock", "TryLock", "TryRLock":
						ff.Acquires[class] = true
					case "Unlock", "RUnlock":
						ff.Releases[class] = true
					}
				}
				return true
			}
			if f != nil {
				ff.calls = append(ff.calls, FuncKey(f))
			}
		}
		return true
	})
}
