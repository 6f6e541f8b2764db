package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLoop enforces the cancellation contract of PRs 1 and 3 on the
// pipeline's hot packages (spectrum, filter/hp, wavelet, core,
// detect): inside a function that has a cancellation signal in scope
// (a context.Context or a cached done channel), any loop that does
// real per-iteration work — allocates, or calls a same-package
// function that itself loops — must poll that signal, either directly
// (ctx.Done()/ctx.Err(), <-done) or through a helper taking the
// context or channel (ctxErr(ctx), cancelled(done)). Functions with
// no cancellation signal in scope are exempt: the contract is "never
// hold a context and ignore it in a hot loop", not "thread contexts
// everywhere".
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "allocating/heavy loops in pipeline packages must poll the in-scope cancellation signal",
	Run:  runCtxLoop,
}

func runCtxLoop(p *Pass) {
	if !p.Cfg.CtxLoopPackages[p.Pkg.ImportPath] {
		return
	}
	info := p.Pkg.Info

	// Pass 1: which same-package functions are "heavy" (contain a loop,
	// transitively through same-package calls)? Calling one of these
	// per iteration is the per-frequency / per-level pattern the
	// contract covers.
	heavy := make(map[*types.Func]bool)
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			bodies[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					heavy[obj] = true
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range bodies {
			if heavy[obj] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(info, call); callee != nil && heavy[callee] {
					heavy[obj] = true
					changed = true
				}
				return true
			})
		}
	}

	for _, fd := range bodies {
		if !hasCancelSignal(info, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !loopDoesWork(info, heavy, body) || loopPolls(info, body) {
				return true
			}
			p.Reportf(n.Pos(), "loop does per-iteration work but never polls the in-scope cancellation signal (ctx.Done()/ctx.Err() or the done channel); the PR 1/3 contract keeps pipeline hot loops cancelable")
			return true
		})
	}
}

// hasCancelSignal reports whether the function declares or touches a
// context.Context or done-channel value anywhere (parameters count
// only when used; an unused context cannot be polled meaningfully
// without first naming it, at which point the expression shows up).
func hasCancelSignal(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := info.Types[expr].Type; isContextType(t) || isDoneChan(t) {
			found = true
		}
		return true
	})
	return found
}

// loopDoesWork reports whether the loop body allocates (make, new,
// append, or a composite literal) or calls a heavy same-package
// function.
func loopDoesWork(info *types.Info, heavy map[*types.Func]bool, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltinCall(info, call, "make", "new", "append") {
			work = true
			return false
		}
		if callee := calleeFunc(info, call); callee != nil && heavy[callee] {
			work = true
			return false
		}
		return true
	})
	return work
}

// loopPolls reports whether the loop body observes a cancellation
// signal: a receive from a done channel, a Done/Err/Deadline call on a
// context, or any call passing a context/done channel onward (the
// ctxErr/cancelled helper pattern — the callee owns the poll).
func loopPolls(info *types.Info, body *ast.BlockStmt) bool {
	polled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if polled {
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && isDoneChan(info.Types[e.X].Type) {
				polled = true
			}
		case *ast.CallExpr:
			if f := calleeFunc(info, e); f != nil {
				switch f.Name() {
				case "Done", "Err", "Deadline":
					if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && isContextType(sig.Recv().Type()) {
						polled = true
						return false
					}
				}
			}
			for _, arg := range e.Args {
				if t := info.Types[arg].Type; isContextType(t) || isDoneChan(t) {
					polled = true
					return false
				}
			}
		}
		return true
	})
	return polled
}
