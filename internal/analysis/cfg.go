package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow layer under lockdiscipline: a lightweight
// intra-procedural control-flow graph built from a function body's
// AST. It is deliberately smaller than a compiler
// CFG — statements stay whole (a statement is the unit of matching
// for lock/unlock pairing), expressions are never split, and the only
// control constructs modeled are the ones that change which
// statements can execute next: if/else, for, range, switch, type
// switch, select, return, break, continue, and labeled variants.
// goto falls through (the tree does not use it; modeling it as a jump
// would need label-resolution machinery for zero benefit), and a
// call to panic or runtime.Goexit dead-ends its path: a crashing path
// is not a path to return, so all-paths queries don't demand cleanup
// on it (deferred releases run during the unwind regardless).

// Block is one basic block: a maximal run of statements with a single
// entry and no internal control transfer. Succs lists every block
// control can reach next; the synthetic Exit block has none.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Entry is where
// execution starts; Exit is the single synthetic block every returning
// path reaches (explicit returns and falling off the end edge to it;
// panic/Goexit paths dead-end instead).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // every block, Entry first, Exit last
}

// BuildCFG constructs the control-flow graph of body. A nil body
// (declaration without definition) yields a two-block graph with
// Entry wired straight to Exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edgeTo(b.cfg.Exit) // falling off the end returns
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// loopScope tracks where break and continue jump for one enclosing
// loop, switch, or select. Switch/select scopes have a nil cont.
type loopScope struct {
	label string
	brk   *Block
	cont  *Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil after a terminating statement (return/panic/branch)
	scopes []loopScope
	labels []labelEntry // pending labels for the construct being built
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edgeTo links the current block to next, if control can still flow.
func (b *cfgBuilder) edgeTo(next *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, next)
	}
}

// startBlock makes next the current block.
func (b *cfgBuilder) startBlock(next *Block) {
	b.cur = next
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt appends one statement to the graph, splitting blocks at every
// control transfer.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code after return/break; give it its own block so
		// analyzers still see the statements, but nothing edges into it.
		b.startBlock(b.newBlock())
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		cond := b.cur
		cond.Stmts = append(cond.Stmts, s) // the If node itself marks the condition
		join := b.newBlock()
		then := b.newBlock()
		cond.Succs = append(cond.Succs, then)
		b.startBlock(then)
		b.stmtList(s.Body.List)
		b.edgeTo(join)
		if s.Else != nil {
			els := b.newBlock()
			cond.Succs = append(cond.Succs, els)
			b.startBlock(els)
			b.stmt(s.Else)
			b.edgeTo(join)
		} else {
			cond.Succs = append(cond.Succs, join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.edgeTo(head)
		head.Stmts = append(head.Stmts, s) // the For node marks the condition
		after := b.newBlock()
		if s.Cond != nil {
			head.Succs = append(head.Succs, after) // condition false exits the loop
		}
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.pushScope(b.labelOf(s), after, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		if s.Post != nil && b.cur != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Post)
		}
		b.edgeTo(head)
		b.popScope()
		b.startBlock(after)

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edgeTo(head)
		head.Stmts = append(head.Stmts, s)
		after := b.newBlock()
		head.Succs = append(head.Succs, after) // empty collection
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.pushScope(b.labelOf(s), after, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.edgeTo(head)
		b.popScope()
		b.startBlock(after)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init, clauses = sw.Init, sw.Body.List
		case *ast.TypeSwitchStmt:
			init, clauses = sw.Init, sw.Body.List
		}
		if init != nil {
			b.cur.Stmts = append(b.cur.Stmts, init)
		}
		head := b.cur
		head.Stmts = append(head.Stmts, s)
		join := b.newBlock()
		b.pushScope(b.labelOf(s), join, nil)
		hasDefault := false
		var caseBlocks []*Block
		var caseBodies [][]ast.Stmt
		for _, c := range clauses {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			caseBlocks = append(caseBlocks, blk)
			caseBodies = append(caseBodies, cc.Body)
		}
		for i, blk := range caseBlocks {
			b.startBlock(blk)
			b.stmtList(caseBodies[i])
			// fallthrough edges to the next case body
			if ft := endsInFallthrough(caseBodies[i]); ft && i+1 < len(caseBlocks) {
				b.edgeTo(caseBlocks[i+1])
			} else {
				b.edgeTo(join)
			}
		}
		if !hasDefault {
			head.Succs = append(head.Succs, join)
		}
		b.popScope()
		b.startBlock(join)

	case *ast.SelectStmt:
		head := b.cur
		head.Stmts = append(head.Stmts, s)
		join := b.newBlock()
		b.pushScope(b.labelOf(s), join, nil)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.startBlock(blk)
			if cc.Comm != nil {
				blk.Stmts = append(blk.Stmts, cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(join)
		}
		b.popScope()
		b.startBlock(join)

	case *ast.LabeledStmt:
		b.labeled(s)

	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edgeTo(b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findScope(label, false); t != nil {
				b.edgeTo(t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findScope(label, true); t != nil {
				b.edgeTo(t)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// handled by the switch builder; the statement is recorded
		case token.GOTO:
			// not modeled: fall through (see the file comment)
		}

	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isTerminatingCall(s.X) {
			// Dead end, not an Exit edge: a panicking path is not a
			// path to return, so all-paths queries (lock released on
			// every path to return) don't demand cleanup on it —
			// deferred releases still run during the unwind anyway.
			b.cur = nil
		}

	default:
		// assignments, declarations, go, defer, send, inc/dec, empty —
		// straight-line statements.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// labeled wires a labeled loop/switch so that labeled break/continue
// resolve; other labeled statements just pass through.
func (b *cfgBuilder) labeled(s *ast.LabeledStmt) {
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.labels = append(b.labels, labelEntry{stmt: inner, label: s.Label.Name})
		b.stmt(inner)
		b.labels = b.labels[:len(b.labels)-1]
	default:
		b.stmt(s.Stmt)
	}
}

// labelEntry carries the pending label across the recursive stmt call
// for the labeled construct it wraps.
type labelEntry struct {
	stmt  ast.Stmt
	label string
}

func (b *cfgBuilder) labelOf(s ast.Stmt) string {
	for i := len(b.labels) - 1; i >= 0; i-- {
		if b.labels[i].stmt == s {
			return b.labels[i].label
		}
	}
	return ""
}

func (b *cfgBuilder) pushScope(label string, brk, cont *Block) {
	b.scopes = append(b.scopes, loopScope{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) popScope() {
	b.scopes = b.scopes[:len(b.scopes)-1]
}

// findScope resolves a break (wantCont=false) or continue
// (wantCont=true) target, optionally by label.
func (b *cfgBuilder) findScope(label string, wantCont bool) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if wantCont && sc.cont == nil {
			continue // break-only scope (switch/select)
		}
		if label != "" && sc.label != label {
			continue
		}
		if wantCont {
			return sc.cont
		}
		return sc.brk
	}
	return nil
}

// endsInFallthrough reports whether the clause body's last statement
// is a fallthrough.
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminatingCall reports whether expr is a call that never returns:
// the panic builtin or runtime.Goexit. os.Exit is deliberately not
// here — deferred unlocks do NOT run on os.Exit, so treating it as a
// clean exit would hide lock leaks.
func isTerminatingCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "runtime" && fun.Sel.Name == "Goexit"
		}
	}
	return false
}

// ShallowNodes returns the AST nodes a block-resident statement
// contributes to path scans. Compound statements sit in the block
// that evaluates their header (condition/tag), while their bodies
// live in successor blocks — so only the header expressions are
// scanned here, never the nested statements (those are visited when
// their own block is walked).
func ShallowNodes(s ast.Stmt) []ast.Node {
	var out []ast.Node
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Cond != nil {
			out = append(out, s.Cond)
		}
	case *ast.ForStmt:
		if s.Cond != nil {
			out = append(out, s.Cond)
		}
	case *ast.RangeStmt:
		if s.Key != nil {
			out = append(out, s.Key)
		}
		if s.Value != nil {
			out = append(out, s.Value)
		}
		out = append(out, s.X)
	case *ast.SwitchStmt:
		if s.Tag != nil {
			out = append(out, s.Tag)
		}
	case *ast.TypeSwitchStmt:
		out = append(out, s.Assign)
	case *ast.SelectStmt:
		// nothing: the comm clauses are successor blocks
	default:
		out = append(out, s)
	}
	return out
}

// EveryPath walks every acyclic path from the statement at (start,
// idx+1) — i.e. just after Stmts[idx] of block start — to Exit, and
// reports whether visit returns true somewhere on each such path
// before it reaches Exit. visit is called once per statement in path
// order; returning true satisfies the current path. Cycles are cut by
// a visited set, which is exact for this query: a block explored once
// in the unsatisfied state covers every later arrival in that state.
func (g *CFG) EveryPath(start *Block, idx int, visit func(ast.Stmt) bool) bool {
	visited := make(map[*Block]bool)
	var walk func(blk *Block, from int) bool
	walk = func(blk *Block, from int) bool {
		for i := from; i < len(blk.Stmts); i++ {
			if visit(blk.Stmts[i]) {
				return true
			}
		}
		if blk == g.Exit {
			return false // reached exit without satisfaction
		}
		if len(blk.Succs) == 0 {
			// Dead-end block (break/continue with no target under
			// malformed code): not a path to exit.
			return true
		}
		for _, s := range blk.Succs {
			if s == g.Exit {
				return false
			}
			if visited[s] {
				continue
			}
			visited[s] = true
			if !walk(s, 0) {
				return false
			}
		}
		return true
	}
	return walk(start, idx+1)
}

// FindStmt locates the block and statement index containing pos
// (matching by source span). Returns (nil, -1) if no recorded
// statement spans pos.
func (g *CFG) FindStmt(pos token.Pos) (*Block, int) {
	best := (*Block)(nil)
	bestIdx := -1
	var bestSize token.Pos = 1 << 60
	for _, blk := range g.Blocks {
		for i, s := range blk.Stmts {
			if s.Pos() <= pos && pos <= s.End() {
				// Prefer the tightest span: an If node carries its whole
				// body, but the statement inside the body is the real
				// home.
				if size := s.End() - s.Pos(); size < bestSize {
					best, bestIdx, bestSize = blk, i, size
				}
			}
		}
	}
	return best, bestIdx
}
