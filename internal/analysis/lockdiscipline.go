package analysis

import (
	"go/ast"
	"go/types"
)

// LockDiscipline is the flow-aware mutex analyzer. Three invariants,
// all rooted in bugs this codebase's layers are structurally exposed
// to (worker pools, job manager, WAL, recorders):
//
//  1. Pairing: every Lock/RLock must be released on every control-flow
//     path from the acquisition to function exit — by a matching defer,
//     an explicit unlock on each path (the CFG layer proves this), or a
//     call to a function whose summary releases the class (a documented
//     lock-handoff helper).
//  2. Ordering: acquiring a catalogued lock class while holding an
//     equal- or later-ranked class (directly, or through any call chain
//     the summary layer can see) contradicts registry.LockOrder and is
//     a latent deadlock.
//  3. Coverage: every mutex declared in the catalogued packages
//     (jobs/wal/serve/obs/trace/slo) must appear in the registry
//     lock-order catalog, so invariant 2 can never silently lapse.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "locks released on all paths; cross-mutex acquisition order matches the registry lock-order catalog",
	Flow: true,
	Run:  runLockDiscipline,
}

func runLockDiscipline(p *Pass) {
	info := p.Pkg.Info
	checkLockCatalogCoverage(p)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !callsMutexMethod(info, fd.Body) {
				continue
			}
			checkPairing(p, fd)
			checkOrdering(p, fd)
		}
	}
}

// callsMutexMethod reports whether body, function literals included,
// calls any sync.Mutex/RWMutex method.
func callsMutexMethod(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			_, found = mutexMethod(calleeFunc(info, call))
		}
		return !found
	})
	return found
}

// checkPairing proves each acquisition is released on every path to
// exit. Works per goroutine body: the function's own statements are
// checked against the function's CFG; each go-spawned or deferred
// function literal gets its own CFG.
func checkPairing(p *Pass, fd *ast.FuncDecl) {
	// Bodies to check independently: the function itself plus every
	// function literal (deferred, spawned, or stored — each runs with
	// its own stack frame and must balance its own acquisitions,
	// except that a literal may legitimately release a lock its
	// parent acquired, which the parent's path query sees as the
	// deferred release).
	checkPairingBody(p, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkPairingBody(p, lit.Body)
		}
		return true
	})
}

// checkPairingBody runs the path query for every acquisition whose
// call site sits directly in body (not in a nested function literal).
func checkPairingBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	g := BuildCFG(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false // nested literal: its own checkPairingBody call
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := mutexMethod(calleeFunc(info, call))
		if !ok || (name != "Lock" && name != "RLock") {
			return true
		}
		recv := lockRecv(call)
		expr := lockExprText(recv)
		if expr == "" {
			return true // unrenderable receiver: skip conservatively
		}
		class := LockClass(info, recv)
		blk, idx := g.FindStmt(call.Pos())
		if blk == nil {
			return true
		}
		want := "Unlock"
		if name == "RLock" {
			want = "RUnlock"
		}
		released := g.EveryPath(blk, idx, func(s ast.Stmt) bool {
			return stmtReleases(p, s, expr, class, want)
		})
		if !released {
			p.Reportf(call.Pos(), "%s.%s() is not released on every path to return: pair it with `defer %s.%s()` right after the acquisition, or unlock on each branch", expr, name, expr, want)
		}
		return true
	})
	// Kind mismatch: an RLock paired with Unlock (or Lock with
	// RUnlock) compiles and mostly works — until the other kind shows
	// up. Flag per body when the same expression mixes kinds.
	kinds := make(map[string]map[string]*ast.CallExpr)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := mutexMethod(calleeFunc(info, call))
		if !ok {
			return true
		}
		expr := lockExprText(lockRecv(call))
		if expr == "" {
			return true
		}
		if kinds[expr] == nil {
			kinds[expr] = make(map[string]*ast.CallExpr)
		}
		kinds[expr][name] = call
		return true
	})
	for expr, seen := range kinds {
		if c, ok := seen["RLock"]; ok {
			if _, unlock := seen["Unlock"]; unlock {
				if _, lock := seen["Lock"]; !lock {
					p.Reportf(c.Pos(), "%s mixes RLock with Unlock in one function; a read lock must be released with RUnlock", expr)
				}
			}
		}
		if c, ok := seen["Lock"]; ok {
			if _, runlock := seen["RUnlock"]; runlock {
				if _, rlock := seen["RLock"]; !rlock {
					p.Reportf(c.Pos(), "%s mixes Lock with RUnlock in one function; a write lock must be released with Unlock", expr)
				}
			}
		}
	}
}

// stmtReleases reports whether s releases the lock named by expr (and
// class): a direct matching unlock call, a defer of one (directly or
// via a deferred closure), or a call to a module function whose
// summary releases the class.
func stmtReleases(p *Pass, s ast.Stmt, expr, class, want string) bool {
	info := p.Pkg.Info
	released := false
	scan := func(n ast.Node) bool {
		if released {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if name, ok := mutexMethod(f); ok {
			if name == want && lockExprText(lockRecv(call)) == expr {
				released = true
				return false
			}
			return true
		}
		// Lock-handoff helper: a callee whose summary releases the
		// class counts as the release on this path.
		if class != "" && f != nil && p.Facts != nil {
			if ff, ok := p.Facts.Funcs[FuncKey(f)]; ok && ff.Releases[class] {
				released = true
				return false
			}
		}
		return true
	}
	for _, node := range ShallowNodes(s) {
		if released {
			break
		}
		if ds, ok := node.(*ast.DeferStmt); ok {
			// A deferred release (direct or via closure body) runs on
			// every exit from this point on.
			ast.Inspect(ds.Call, scan)
			if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, scan)
			}
			continue
		}
		// Skip goroutine bodies and stored closures: a release on
		// another stack (or at an unknown later time) does not release
		// this path.
		ast.Inspect(node, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt, *ast.FuncLit:
				return false
			}
			return scan(n)
		})
	}
	return released
}

// checkOrdering walks fd lexically, tracking the set of held lock
// classes, and reports acquisitions (direct, or transitive through a
// called function's summary) that contradict the registry lock
// order. Goroutine bodies are skipped: a spawned goroutine does not
// extend this stack's hold chain.
func checkOrdering(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	order := p.Cfg.LockOrder
	if order == nil {
		return
	}
	held := make(map[string]string) // expr text → class
	heldClass := func() map[string]bool {
		out := make(map[string]bool, len(held))
		for _, c := range held {
			out[c] = true
		}
		return out
	}
	checkEdge := func(pos ast.Node, acquired string, via string) {
		aRank, aOK := order[acquired]
		if !aOK {
			return
		}
		for h := range heldClass() {
			hRank, hOK := order[h]
			if !hOK {
				continue
			}
			switch {
			case h == acquired:
				p.Reportf(pos.Pos(), "recursive acquisition of %s while already holding it%s; sync mutexes self-deadlock", acquired, via)
			case hRank >= aRank:
				p.Reportf(pos.Pos(), "acquiring %s while holding %s%s inverts the registry lock order (%s ranks before %s in registry.LockOrder)", acquired, h, via, acquired, h)
			}
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // another stack: no hold-chain extension
		case *ast.DeferStmt:
			// A deferred unlock keeps the class held for the remainder
			// of the walk (it releases only at exit) — so do not
			// process it as a release; a deferred acquire (rare) is
			// still an edge.
			if name, ok := mutexMethod(calleeFunc(info, n.Call)); ok {
				if name == "Lock" || name == "RLock" {
					checkEdge(n, LockClass(info, lockRecv(n.Call)), "")
				}
				return false
			}
			return true
		case *ast.CallExpr:
			f := calleeFunc(info, n)
			if name, ok := mutexMethod(f); ok {
				recv := lockRecv(n)
				expr := lockExprText(recv)
				class := LockClass(info, recv)
				switch name {
				case "Lock", "RLock", "TryLock", "TryRLock":
					if class != "" {
						checkEdge(n, class, "")
					}
					if expr != "" {
						held[expr] = class
					}
				case "Unlock", "RUnlock":
					if expr != "" {
						delete(held, expr)
					}
				}
				return true
			}
			// Call edge: the callee's transitive acquisitions happen
			// while this stack holds the current set.
			if f != nil && p.Facts != nil && len(held) > 0 {
				if ff, ok := p.Facts.Funcs[FuncKey(f)]; ok {
					for class := range ff.Acquires {
						checkEdge(n, class, " (via call to "+ff.Display+")")
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkLockCatalogCoverage reports mutexes declared in catalogued
// packages that registry.LockOrder does not rank.
func checkLockCatalogCoverage(p *Pass) {
	if !p.Cfg.LockCatalogPackages[p.Pkg.ImportPath] || p.Cfg.LockOrder == nil {
		return
	}
	short := p.Pkg.Types.Name()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				t := p.Pkg.Info.Types[field.Type].Type
				if t == nil || !isMutexType(t) {
					continue
				}
				for _, name := range field.Names {
					class := short + "." + ts.Name.Name + "." + name.Name
					if _, ok := p.Cfg.LockOrder[class]; !ok {
						p.Reportf(name.Pos(), "mutex %s is not in the registry lock-order catalog; add it to registry.LockOrder at its nesting rank", class)
					}
				}
			}
			return true
		})
		// Package-level mutex vars.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := p.Pkg.Info.Defs[name].(*types.Var)
					if !ok || obj.Parent() != p.Pkg.Types.Scope() || !isMutexType(obj.Type()) {
						continue
					}
					class := short + "." + name.Name
					if _, ok := p.Cfg.LockOrder[class]; !ok {
						p.Reportf(name.Pos(), "mutex %s is not in the registry lock-order catalog; add it to registry.LockOrder at its nesting rank", class)
					}
				}
			}
		}
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
