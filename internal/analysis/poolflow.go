package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolFlow proves the sync.Pool recycling discipline the kernels' hot paths
// depend on: every value taken out of a pool (directly via Get or through a
// module-local typed wrapper such as bufPool.get) must be
// returned to the same pool on every path to function exit, unless
// ownership is deliberately handed off — returned to the caller, sent on a
// channel, stored into a longer-lived structure, captured by a closure, or
// annotated with a //soilint:pool transfer directive. It flags values that
// can leak on some path (typically an early error return), values returned
// to the pool twice, values returned to a different pool than they came
// from, values used after they were returned, and Puts of values the
// function never acquired. Wrapper ownership is followed
// interprocedurally: a function whose return value originates in a Get is
// an acquirer at its call sites, and a function that Puts one of its
// parameters is a releaser. Values received as parameters, read from
// struct fields, or captured from an enclosing scope are someone else's to
// release and are exempt.
var PoolFlow = &Analyzer{
	Name: "poolflow",
	Doc:  "sync.Pool values must be returned on every path: leaks, double-Put, cross-pool Put, use-after-Put",
	Run:  runPoolFlow,
}

// A "//soilint:pool transfer <reason>" directive marks a deliberate ownership
// handoff the flow analysis cannot see (e.g. Gets and Puts living in
// different loops of a pipelined stage), on the line of the Get/Put it covers
// or the line directly above; the reason is mandatory.

// collectPoolTransfers indexes the package's //soilint:pool directives,
// returning them plus the positions of malformed ones.
func collectPoolTransfers(pkg *Package) (*directiveIndex, []token.Pos) {
	return collectDirectives(pkg, "pool", func(args []string) bool {
		return len(args) >= 2 && args[0] == "transfer"
	})
}

// poolFnInfo is the interprocedural summary of one module-local function:
// getter means its return value originates in a pool Get; putParam is the
// 1-based index of the parameter it returns to a pool (0 = none).
type poolFnInfo struct {
	getter   bool
	putParam int
}

// poolIPA bundles the module view with the memoized wrapper summaries.
type poolIPA struct {
	view *ipaView
	sum  *summarizer[poolFnInfo]
}

var poolIPACache = make(map[*Package]*poolIPA)

func poolIPAFor(pkg *Package) *poolIPA {
	if pi, ok := poolIPACache[pkg]; ok {
		return pi
	}
	pi := &poolIPA{view: newIPAView(pkg)}
	pi.sum = newSummarizer(pi.computeSummary)
	poolIPACache[pkg] = pi
	return pi
}

// directPoolCall matches a direct sync.Pool.Get/Put call, returning the
// method name and the pool operand. Matching is type-based (the receiver
// must be sync.Pool), so unrelated Get/Put methods — cache lookups, map
// wrappers — never match.
func directPoolCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" {
		return "", nil
	}
	if m := fn.Name(); m == "Get" || m == "Put" {
		return m, sel.X
	}
	return "", nil
}

// poolOpKind classifies one call: not a pool op, an acquire, or a release.
type poolOpKind int

const (
	poolOpNone poolOpKind = iota
	poolOpGet
	poolOpPut
)

// classify resolves call (appearing in package p) as a pool op, directly or
// through a module-local wrapper. For a Put it also returns the released
// value expression; for a direct op the pool operand expression.
func (pi *poolIPA) classify(p *Package, call *ast.CallExpr) (kind poolOpKind, poolExpr, putArg ast.Expr) {
	if name, recv := directPoolCall(p.Info, call); name != "" {
		if name == "Get" {
			return poolOpGet, recv, nil
		}
		if len(call.Args) == 1 {
			return poolOpPut, recv, call.Args[0]
		}
		return poolOpNone, nil, nil
	}
	for _, ref := range pi.view.resolveCall(p, call) {
		if ref.viaIface || ref.fn == nil {
			continue
		}
		info := pi.sum.of(pi.view.def(ref.fn))
		if info.getter {
			return poolOpGet, nil, nil
		}
		if info.putParam > 0 && info.putParam <= len(call.Args) {
			return poolOpPut, nil, call.Args[info.putParam-1]
		}
	}
	return poolOpNone, nil, nil
}

// computeSummary derives the getter/putter summary of one function body.
func (pi *poolIPA) computeSummary(def *funcDef) poolFnInfo {
	var out poolFnInfo
	body := def.decl.Body
	info := def.pkg.Info

	params := make(map[types.Object]int) // object -> 1-based index
	if def.decl.Type.Params != nil {
		i := 0
		for _, field := range def.decl.Type.Params.List {
			for _, name := range field.Names {
				i++
				if o := info.Defs[name]; o != nil {
					params[o] = i
				}
			}
		}
	}

	// Locals whose value originates in a pool Get, for the
	// acquired-then-returned getter shape.
	fromPool := make(map[types.Object]bool)
	skipLits := func(n ast.Node) bool { return n != body && isFuncLitNode(n) }

	ast.Inspect(body, func(n ast.Node) bool {
		if skipLits(n) {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			call, ok := stripValue(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if k, _, _ := pi.classify(def.pkg, call); k != poolOpGet {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if o := info.Defs[id]; o != nil {
					fromPool[o] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		if skipLits(n) {
			return false
		}
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				switch v := stripValue(res).(type) {
				case *ast.CallExpr:
					if k, _, _ := pi.classify(def.pkg, v); k == poolOpGet {
						out.getter = true
					}
				case *ast.Ident:
					if o := info.Uses[v]; o != nil && fromPool[o] {
						out.getter = true
					}
				}
			}
		case *ast.CallExpr:
			k, _, arg := pi.classify(def.pkg, x)
			if k != poolOpPut || arg == nil {
				return true
			}
			if id, ok := stripValue(arg).(*ast.Ident); ok {
				if idx, ok := params[info.Uses[id]]; ok {
					out.putParam = idx
				}
			}
		}
		return true
	})
	return out
}

// poolAcquire is one tracked Get bound to a local.
type poolAcquire struct {
	node    ast.Node
	pos     token.Pos
	obj     types.Object
	poolObj types.Object // resolved pool identity; nil when unresolvable
	handoff bool         // covered by //soilint:pool transfer: skip the leak check
}

// poolRelease is one Put whose released value is a local of this scope.
type poolRelease struct {
	node     ast.Node
	pos      token.Pos
	obj      types.Object
	poolObj  types.Object
	deferred bool
}

func runPoolFlow(pass *Pass) {
	pkg := pass.Pkg
	pi := poolIPAFor(pkg)
	transfers, malformed := collectPoolTransfers(pkg)
	for _, pos := range malformed {
		pass.Reportf(pos, "malformed //soilint:pool directive: want 'transfer <reason>'")
	}
	for _, f := range pkg.Files {
		for _, scope := range funcBodies(f) {
			analyzePoolScope(pass, pi, scope, transfers)
		}
	}
	for _, d := range transfers.all {
		if !d.used {
			pass.Reportf(d.pos, "//soilint:pool transfer directive does not cover any pool Get or Put")
		}
	}
}

func analyzePoolScope(pass *Pass, pi *poolIPA, scope funcScope, transfers *directiveIndex) {
	pkg := pass.Pkg
	info := pkg.Info

	var acquires []*poolAcquire
	var releases []*poolRelease

	lifecycleStmts(scope.body, func(st ast.Node) {
		for _, call := range callsIn(st) {
			kind, poolExpr, putArg := pi.classify(pkg, call)
			switch kind {
			case poolOpGet:
				handleGet(pass, scope, transfers, st, call, poolExpr, &acquires)
			case poolOpPut:
				handlePut(scope, st, call, poolExpr, putArg, &releases, info)
			}
		}
	})
	if len(acquires) == 0 && len(releases) == 0 {
		return
	}

	acquired := make(map[types.Object][]*poolAcquire)
	for _, a := range acquires {
		acquired[a.obj] = append(acquired[a.obj], a)
	}

	// Classify releases against the acquire set: cross-pool and
	// put-of-unacquired findings need no CFG.
	matched := make(map[types.Object]map[ast.Node]bool)
	var matchedReleases []*poolRelease
	for _, r := range releases {
		acqs, ok := acquired[r.obj]
		if !ok {
			if !transfers.claim(r.pos) {
				pass.Reportf(r.pos, "'%s' is returned to the pool but was not acquired from one in this function (annotate //soilint:pool transfer if ownership was handed in)", r.obj.Name())
			}
			continue
		}
		for _, a := range acqs {
			if a.poolObj != nil && r.poolObj != nil && a.poolObj != r.poolObj {
				pass.Reportf(r.pos, "'%s' was acquired from pool '%s' but is returned to pool '%s'", r.obj.Name(), refName(a.poolObj), refName(r.poolObj))
			}
		}
		if matched[r.obj] == nil {
			matched[r.obj] = make(map[ast.Node]bool)
		}
		matched[r.obj][r.node] = true
		matchedReleases = append(matchedReleases, r)
	}

	var g *funcCFG
	cfg := func() *funcCFG {
		if g == nil {
			g = buildCFG(scope.body)
		}
		return g
	}

	// Leak: some path from the acquire to exit passes no Put, no ownership
	// transfer, and no overwrite of the local.
	for _, a := range acquires {
		if a.handoff {
			continue
		}
		obj := a.obj
		rel := matched[obj]
		stop := func(n ast.Node) bool {
			return rel[n] || killsObj(n, obj, info) || transfersOwnership(info, n, obj)
		}
		if cfg().pathToExitAvoiding(a.node, stop) {
			pass.Reportf(a.pos, "pooled value '%s' may not be returned to the pool on some path (missing Put or //soilint:pool transfer)", obj.Name())
		}
	}

	// Double-Put: a second Put of the same value reachable from an earlier
	// one with no re-acquire in between.
	for i, ri := range matchedReleases {
		kills := func(n ast.Node) bool { return killsObj(n, ri.obj, info) }
		if cfg().reachesNodeWithout(ri.node, ri.node, kills) {
			pass.Reportf(ri.pos, "pooled value '%s' may be returned to the pool twice (the Put is reachable from itself around a loop)", ri.obj.Name())
		}
		for j, rj := range matchedReleases {
			if i == j || ri.obj != rj.obj {
				continue
			}
			if rj.node == ri.node {
				if j > i {
					pass.Reportf(rj.pos, "pooled value '%s' may be returned to the pool twice (an earlier Put may reach this one)", rj.obj.Name())
				}
				continue
			}
			if cfg().reachesNodeWithout(ri.node, rj.node, kills) {
				pass.Reportf(rj.pos, "pooled value '%s' may be returned to the pool twice (an earlier Put may reach this one)", rj.obj.Name())
			}
		}
	}

	// Use-after-Put: a read of the value reachable after a non-deferred Put
	// before any re-acquire. Deferred Puts run at exit and cannot precede a
	// use.
	for _, r := range matchedReleases {
		if r.deferred {
			continue
		}
		obj := r.obj
		rel := matched[obj]
		use := cfg().firstAfterWithout(r.node,
			func(n ast.Node) bool { return !rel[n] && usesObj(n, obj, info) },
			func(n ast.Node) bool { return killsObj(n, obj, info) })
		if use != nil {
			pass.Reportf(use.Pos(), "pooled value '%s' may be used here after being returned to the pool", obj.Name())
		}
	}
}

// handleGet classifies one Get call site: bound to a local (tracked),
// returned or placed in a composite literal at birth (ownership transferred
// immediately — clean), or unbound (untrackable — a finding unless a
// transfer directive covers it).
func handleGet(pass *Pass, scope funcScope, transfers *directiveIndex, st ast.Node, call *ast.CallExpr, poolExpr ast.Expr, acquires *[]*poolAcquire) {
	pkg := pass.Pkg
	info := pkg.Info
	var poolObj types.Object
	if poolExpr != nil {
		poolObj = refObj(info, poolExpr)
	}

	bindTargets := func(lhs, rhs []ast.Expr) (bound bool) {
		if len(lhs) != len(rhs) {
			return false
		}
		for i := range rhs {
			if stripValue(rhs[i]) != call {
				continue
			}
			id, ok := ast.Unparen(lhs[i]).(*ast.Ident)
			if !ok || id.Name == "_" {
				return false
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return false
			}
			if !declaredWithin(obj, scope.body) {
				return true // assigned to a captured variable: the outer scope owns it
			}
			*acquires = append(*acquires, &poolAcquire{
				node:    st,
				pos:     call.Pos(),
				obj:     obj,
				poolObj: poolObj,
				handoff: transfers.claim(call.Pos()),
			})
			return true
		}
		return false
	}

	switch s := st.(type) {
	case *ast.AssignStmt:
		if bindTargets(s.Lhs, s.Rhs) {
			return
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				if bindTargets(lhs, vs.Values) {
					return
				}
			}
		}
	case *ast.ReturnStmt:
		return // transferred to the caller at birth
	}
	// Inside a composite literal the value is owned by the new structure.
	inComposite := false
	ast.Inspect(st, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok && cl.Pos() <= call.Pos() && call.End() <= cl.End() {
			inComposite = true
		}
		return !inComposite
	})
	if inComposite {
		return
	}
	if !transfers.claim(call.Pos()) {
		pass.Reportf(call.Pos(), "result of %s() is not bound to a local variable; its return to the pool cannot be tracked (bind it or annotate //soilint:pool transfer)", exprName(call.Fun))
	}
}

// handlePut records one Put call site when the released value is a local of
// this scope. Parameters, free variables, and field/index expressions are
// someone else's to release and are exempt.
func handlePut(scope funcScope, st ast.Node, call *ast.CallExpr, poolExpr, putArg ast.Expr, releases *[]*poolRelease, info *types.Info) {
	id, ok := stripValue(putArg).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Uses[id]
	if obj == nil || !declaredWithin(obj, scope.body) {
		return
	}
	var poolObj types.Object
	if poolExpr != nil {
		poolObj = refObj(info, poolExpr)
	}
	ds, isDefer := st.(*ast.DeferStmt)
	*releases = append(*releases, &poolRelease{
		node:     st,
		pos:      call.Pos(),
		obj:      obj,
		poolObj:  poolObj,
		deferred: isDefer && ds.Call == call,
	})
}
