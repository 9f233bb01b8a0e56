package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared resource-lifecycle core under poolflow and
// closeflow: both analyzers prove "acquired value is released or
// deliberately handed off on every path to exit" over the intraprocedural
// CFG (cfg.go), differing only in what counts as an acquire (sync.Pool.Get
// vs io.Closer constructors) and a release (Put vs Close). The helpers here
// are the common vocabulary — ownership-transfer classification, the
// per-scope statement walk that keeps nested function literals opaque, and
// kill-aware forward path scans the CFG core does not provide.

// stripValue peels parens, type assertions, stars, slicings and unary & off
// an expression, returning the underlying value expression. It is how
// `pool.Get().(*[]complex128)` reduces to the Get call, `(*b)[:n]` to b and
// `&x` to x.
func stripValue(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

// lifecycleStmts calls handle on every top-level statement of body that can
// carry an acquire, release, or transfer, without descending into nested
// function literals (their bodies run at call time and are analyzed as
// their own scopes). Control statements (if/for/switch) are traversed so
// their init assignments and bodies are reached; the statements handed to
// handle are exactly the nodes the CFG registers.
func lifecycleStmts(body *ast.BlockStmt, handle func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != body && isFuncLitNode(n) {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt,
			*ast.ReturnStmt, *ast.SendStmt, *ast.DeclStmt:
			handle(n)
			return false
		}
		return true
	})
}

// callsIn collects the call expressions inside one statement, skipping
// nested function literals.
func callsIn(st ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(st, func(n ast.Node) bool {
		if n != st && isFuncLitNode(n) {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// transfersOwnership reports whether statement st hands ownership of obj to
// someone outside the current scope: returning it, sending it on a channel,
// storing it into a composite literal / field / index / package variable,
// taking its address as a call argument, or capturing it in a function
// literal (the closure may release it later; conservative). Plain reads —
// passing the value to a call, dereferencing it into a local — are borrows,
// not transfers.
func transfersOwnership(info *types.Info, st ast.Node, obj types.Object) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt:
		return usesObj(s, obj, info)
	case *ast.SendStmt:
		return usesObj(s, obj, info)
	}
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			if usesObj(x, obj, info) {
				found = true
			}
			return false
		case *ast.CompositeLit:
			if usesObj(x, obj, info) {
				found = true
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
			}
		case *ast.AssignStmt:
			reads := false
			for _, r := range x.Rhs {
				if usesObj(r, obj, info) {
					reads = true
					break
				}
			}
			if !reads {
				return true
			}
			for _, l := range x.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					found = true // store through a field/index/deref lvalue
					break
				}
				if o := info.Uses[id]; o != nil && o.Pkg() != nil &&
					o.Parent() == o.Pkg().Scope() {
					found = true // store into a package-level variable
					break
				}
			}
		}
		return true
	})
	return found
}

// pathToExitAvoiding reports whether some execution path from strictly
// after start reaches the function exit without passing any node for which
// stop returns true. This is the leak query: stop nodes are the releases,
// transfers, and kills of the tracked value.
func (g *funcCFG) pathToExitAvoiding(start ast.Node, stop func(ast.Node) bool) bool {
	p, ok := g.pos[start]
	if !ok {
		return false
	}
	visited := make(map[*cfgBlock]bool)
	var scan func(b *cfgBlock, i int) bool
	scan = func(b *cfgBlock, i int) bool {
		for ; i < len(b.nodes); i++ {
			if stop(b.nodes[i]) {
				return false
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

// reachesNodeWithout reports whether target is reachable strictly after
// start along some path on which no intermediate node satisfies blocked
// (start and target themselves are not tested). It is the kill-aware
// refinement of reachableAfter used for double-release detection.
func (g *funcCFG) reachesNodeWithout(start, target ast.Node, blocked func(ast.Node) bool) bool {
	p, ok := g.pos[start]
	if !ok {
		return false
	}
	if _, ok := g.pos[target]; !ok {
		return false
	}
	visited := make(map[*cfgBlock]bool)
	var scan func(b *cfgBlock, i int) bool
	scan = func(b *cfgBlock, i int) bool {
		for ; i < len(b.nodes); i++ {
			n := b.nodes[i]
			if n == target {
				return true
			}
			if blocked(n) {
				return false
			}
		}
		for _, s := range b.succs {
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

// firstAfterWithout returns the first node reachable strictly after start
// for which want returns true, exploring no path past a node for which
// blocked returns true (blocked is tested before want, so a node that is
// both blocks). Returns nil when no such node exists.
func (g *funcCFG) firstAfterWithout(start ast.Node, want, blocked func(ast.Node) bool) ast.Node {
	p, ok := g.pos[start]
	if !ok {
		return nil
	}
	visited := make(map[*cfgBlock]bool)
	var scan func(b *cfgBlock, i int) ast.Node
	scan = func(b *cfgBlock, i int) ast.Node {
		for ; i < len(b.nodes); i++ {
			n := b.nodes[i]
			if blocked(n) {
				return nil
			}
			if want(n) {
				return n
			}
		}
		for _, s := range b.succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if n := scan(s, 0); n != nil {
				return n
			}
		}
		return nil
	}
	return scan(p.b, p.idx+1)
}
