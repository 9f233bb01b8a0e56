package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared control-flow core the flow-aware analyzers
// (errflow, chanlife, closeflow) are
// built on. It is deliberately small: an intraprocedural basic-block CFG
// over go/ast statements, a reachability query, a backward must-analysis
// and a def-to-exit path search. Function literals are
// opaque to the enclosing function's CFG (their bodies execute at call
// time, not inline) and get their own CFG via funcBodies.

// cfgBlock is one basic block: nodes executed in order, then control moves
// to one of the successors. Nodes are statements plus the condition/tag
// expressions of the control statements that end a block.
type cfgBlock struct {
	id    int
	nodes []ast.Node
	succs []*cfgBlock
	preds int
}

// funcCFG is the control-flow graph of one function body. exit is the
// single synthetic block every return (and the final fallthrough) leads to.
type funcCFG struct {
	entry, exit *cfgBlock
	blocks      []*cfgBlock
	pos         map[ast.Node]nodePos
}

// nodePos locates a registered node inside its block.
type nodePos struct {
	b   *cfgBlock
	idx int
}

type cfgBuilder struct {
	g *funcCFG
	// break/continue target stacks for the innermost loops/switches.
	breaks, continues []*cfgBlock
	// labeled break/continue targets, registered while the labeled
	// statement is being built.
	labels map[string]*labelTargets
	// pendingLabel carries a label name from a LabeledStmt to the loop or
	// switch it labels.
	pendingLabel string
}

type labelTargets struct {
	brk, cont *cfgBlock
}

// buildCFG constructs the CFG of one function body. goto is approximated as
// an edge to exit (no gotos exist in this module; the approximation only
// ever under-reports paths).
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{pos: make(map[ast.Node]nodePos)}
	b := &cfgBuilder{g: g, labels: make(map[string]*labelTargets)}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	if end := b.stmtList(g.entry, body.List); end != nil {
		b.edge(end, g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds++
}

func (b *cfgBuilder) add(blk *cfgBlock, n ast.Node) {
	if n == nil {
		return
	}
	b.g.pos[n] = nodePos{b: blk, idx: len(blk.nodes)}
	blk.nodes = append(blk.nodes, n)
}

// stmtList threads the statements through cur, returning the block where
// control falls out (nil if every path terminated).
func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator still gets (dangling)
			// blocks so its nodes are registered.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// takeLabel consumes the pending label, registering targets for it.
func (b *cfgBuilder) takeLabel(brk, cont *cfgBlock) string {
	if b.pendingLabel == "" {
		return ""
	}
	name := b.pendingLabel
	b.pendingLabel = ""
	b.labels[name] = &labelTargets{brk: brk, cont: cont}
	return name
}

func (b *cfgBuilder) dropLabel(name string) {
	if name != "" {
		delete(b.labels, name)
	}
}

// stmt extends the CFG with one statement, returning the fall-through block
// (nil when control cannot fall through).
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		out := b.stmt(cur, s.Stmt)
		b.pendingLabel = ""
		return out

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		b.add(cur, s.Cond)
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		if tEnd := b.stmt(then, s.Body); tEnd != nil {
			b.edge(tEnd, join)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			if eEnd := b.stmt(els, s.Else); eEnd != nil {
				b.edge(eEnd, join)
			}
		} else {
			b.edge(cur, join)
		}
		if join.preds == 0 {
			return nil
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			b.add(head, s.Cond)
		}
		exitB := b.newBlock()
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
			b.add(cont, s.Post)
			b.edge(cont, head)
		}
		label := b.takeLabel(exitB, cont)
		b.breaks = append(b.breaks, exitB)
		b.continues = append(b.continues, cont)
		body := b.newBlock()
		b.edge(head, body)
		if bEnd := b.stmt(body, s.Body); bEnd != nil {
			b.edge(bEnd, cont)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.dropLabel(label)
		if s.Cond != nil {
			b.edge(head, exitB)
		}
		if exitB.preds == 0 {
			return nil // for{} with no break: nothing falls through
		}
		return exitB

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		b.add(head, s.X)
		if s.Key != nil {
			b.add(head, s.Key)
		}
		if s.Value != nil {
			b.add(head, s.Value)
		}
		exitB := b.newBlock()
		b.edge(head, exitB)
		label := b.takeLabel(exitB, head)
		b.breaks = append(b.breaks, exitB)
		b.continues = append(b.continues, head)
		body := b.newBlock()
		b.edge(head, body)
		if bEnd := b.stmt(body, s.Body); bEnd != nil {
			b.edge(bEnd, head)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.dropLabel(label)
		return exitB

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		if s.Tag != nil {
			b.add(cur, s.Tag)
		}
		return b.switchClauses(cur, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		b.add(cur, s.Assign)
		return b.switchClauses(cur, s.Body.List, false)

	case *ast.SelectStmt:
		join := b.newBlock()
		label := b.takeLabel(join, nil)
		b.breaks = append(b.breaks, join)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(cur, cb)
			if cc.Comm != nil {
				b.add(cb, cc.Comm)
			}
			if end := b.stmtList(cb, cc.Body); end != nil {
				b.edge(end, join)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.dropLabel(label)
		if join.preds == 0 {
			return nil
		}
		return join

	case *ast.ReturnStmt:
		b.add(cur, s)
		b.edge(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		b.add(cur, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s, true); t != nil {
				b.edge(cur, t)
			}
			return nil
		case token.CONTINUE:
			if t := b.branchTarget(s, false); t != nil {
				b.edge(cur, t)
			}
			return nil
		case token.GOTO:
			b.edge(cur, b.g.exit)
			return nil
		}
		// fallthrough: the switch builder links this clause to the next.
		return cur

	case *ast.ExprStmt:
		b.add(cur, s)
		if isPanicCall(s.X) {
			b.edge(cur, b.g.exit)
			return nil
		}
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: straight-line.
		b.add(cur, s)
		return cur
	}
}

// switchClauses wires the case clauses of a (type) switch. allowFall
// enables fallthrough linking (value switches only).
func (b *cfgBuilder) switchClauses(cur *cfgBlock, clauses []ast.Stmt, allowFall bool) *cfgBlock {
	join := b.newBlock()
	label := b.takeLabel(join, nil)
	b.breaks = append(b.breaks, join)
	hasDefault := false
	var fallFrom *cfgBlock
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		cb := b.newBlock()
		b.edge(cur, cb)
		if len(cc.List) == 0 {
			hasDefault = true
		}
		for _, e := range cc.List {
			b.add(cb, e)
		}
		if fallFrom != nil {
			b.edge(fallFrom, cb)
			fallFrom = nil
		}
		end := b.stmtList(cb, cc.Body)
		if end == nil {
			continue
		}
		if allowFall && endsInFallthrough(cc.Body) {
			fallFrom = end
		} else {
			b.edge(end, join)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.dropLabel(label)
	if !hasDefault {
		b.edge(cur, join)
	}
	if join.preds == 0 {
		return nil
	}
	return join
}

func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, isBreak bool) *cfgBlock {
	if s.Label != nil {
		if t := b.labels[s.Label.Name]; t != nil {
			if isBreak {
				return t.brk
			}
			return t.cont
		}
		return b.g.exit // unknown label: approximate
	}
	stack := b.continues
	if isBreak {
		stack = b.breaks
	}
	if len(stack) == 0 {
		return b.g.exit
	}
	return stack[len(stack)-1]
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall matches a direct call to the panic builtin (syntax-only: the
// builder has no type information, and shadowing panic would be perverse).
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// reachableAfter returns a predicate reporting whether a registered node
// lies on some execution path strictly after n (same block later, or any
// node of a block reachable through successor edges — including around loop
// back edges, so a write textually above a Send in a loop body is "after"
// it on the next iteration).
func (g *funcCFG) reachableAfter(n ast.Node) func(ast.Node) bool {
	p, ok := g.pos[n]
	if !ok {
		return func(ast.Node) bool { return false }
	}
	reach := make(map[*cfgBlock]bool)
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.succs {
			visit(s)
		}
	}
	for _, s := range p.b.succs {
		visit(s)
	}
	return func(m ast.Node) bool {
		q, ok := g.pos[m]
		if !ok {
			return false
		}
		if q.b == p.b && q.idx > p.idx {
			return true
		}
		return reach[q.b]
	}
}

// pathMark classifies a CFG node for backward must-analyses: markSatisfy
// ends a backward path successfully (the guarding fact was established),
// markKill ends it unsuccessfully (the fact was destroyed), markNone is
// transparent.
type pathMark int

const (
	markNone pathMark = iota
	markSatisfy
	markKill
)

// precededOnAllPaths reports whether every backward path from node to the
// function entry hits a markSatisfy node before a markKill node. Loops are
// handled optimistically (a back edge defers to the paths that enter the
// loop), so a fact established before a loop guards every iteration unless
// a kill inside the loop intervenes. It is chanlife's token-held check.
func (g *funcCFG) precededOnAllPaths(node ast.Node, classify func(ast.Node) pathMark) bool {
	p, ok := g.pos[node]
	if !ok {
		return false
	}
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, b := range g.blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], b)
		}
	}
	memo := make(map[*cfgBlock]pathMark) // markSatisfy = all paths ok (or in progress)
	var blockOK func(b *cfgBlock, from int) bool
	blockOK = func(b *cfgBlock, from int) bool {
		for i := from; i >= 0; i-- {
			switch classify(b.nodes[i]) {
			case markSatisfy:
				return true
			case markKill:
				return false
			}
		}
		if b == g.entry {
			return false
		}
		if v, ok := memo[b]; ok {
			return v == markSatisfy
		}
		memo[b] = markSatisfy // optimistic for cycles
		ok := len(preds[b]) > 0
		for _, pb := range preds[b] {
			if !blockOK(pb, len(pb.nodes)-1) {
				ok = false
				break
			}
		}
		if ok {
			memo[b] = markSatisfy
		} else {
			memo[b] = markKill
		}
		return ok
	}
	return blockOK(p.b, p.idx-1)
}

// dropOnSomePath reports whether some execution path from the definition
// node def to the function exit (or to a plain overwrite of obj) never
// reads obj. This is the errflow core: an error variable whose value can
// die unobserved on at least one path.
func (g *funcCFG) dropOnSomePath(def ast.Node, obj types.Object, info *types.Info) bool {
	p, ok := g.pos[def]
	if !ok {
		return false
	}
	visited := make(map[*cfgBlock]bool)
	// scan walks one block from index i; returns true if a no-read path to
	// exit or overwrite exists in this direction.
	var scan func(b *cfgBlock, i int) bool
	scan = func(b *cfgBlock, i int) bool {
		for ; i < len(b.nodes); i++ {
			n := b.nodes[i]
			if usesObj(n, obj, info) {
				return false // this path observed the value
			}
			if killsObj(n, obj, info) {
				return true // overwritten before any read
			}
		}
		if b == g.exit {
			return true
		}
		for _, s := range b.succs {
			if s == g.exit {
				return true
			}
			if visited[s] {
				continue
			}
			visited[s] = true
			if scan(s, 0) {
				return true
			}
		}
		return false
	}
	return scan(p.b, p.idx+1)
}

// usesObj reports whether n reads obj: any identifier resolving to obj
// that is not the direct target of an assignment. Reads inside function
// literals count (the closure observes the value when called).
func usesObj(n ast.Node, obj types.Object, info *types.Info) bool {
	writes := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if as, ok := x.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
		return true
	})
	used := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && !writes[id] && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// killsObj reports whether n plainly overwrites obj (obj appears as a bare
// assignment target). Callers check usesObj first, so accumulation forms
// like err = errors.Join(err, ...) read before they kill.
func killsObj(n ast.Node, obj types.Object, info *types.Info) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		if info.Uses[id] == obj || info.Defs[id] == obj {
			return true
		}
	}
	return false
}

// funcScope is one analyzable function body: a declaration or a literal.
type funcScope struct {
	name string // "" for literals
	body *ast.BlockStmt
}

// funcBodies lists every function body of a file, declarations and
// literals alike (a literal's body is opaque to the enclosing CFG).
func funcBodies(f *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, funcScope{name: v.Name.Name, body: v.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{body: v.Body})
		}
		return true
	})
	return out
}
