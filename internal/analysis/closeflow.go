package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CloseFlow proves that every acquired io.Closer — a net.Conn from
// Dial/Accept, a net.Listener from Listen, an *os.File from
// Open/Create/CreateTemp — is closed on every path that actually uses it,
// or has its ownership transferred: returned to the caller, sent on a
// channel, stored into a longer-lived structure (the struct's owner closes
// it), captured by a closure, or passed to a module-local function that
// stores or closes it (summarized interprocedurally). The "actually uses
// it" witness is what makes the ubiquitous
//
//	f, err := os.Open(path)
//	if err != nil { return err }
//
// idiom clean without modeling err: on the error path the closer is nil
// and never read, so there is nothing to close. A leak is a path that
// reads the value — proving the code believed the acquire succeeded — and
// still reaches function exit without a Close or a transfer. Closers
// received as parameters or read from fields are the owner's problem and
// are exempt; double-Close is deliberately out of scope (Close is
// idempotent by convention on every tracked type).
var CloseFlow = &Analyzer{
	Name: "closeflow",
	Doc:  "acquired io.Closers (conns, listeners, files) must be closed or ownership-transferred on every used path",
	Run:  runCloseFlow,
}

// closeAcquirers lists the stdlib constructors whose results this analyzer
// tracks, by package path.
var closeAcquirers = map[string]map[string]bool{
	"net": {"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true},
	"os":  {"Open": true, "Create": true, "OpenFile": true, "CreateTemp": true},
}

// closeFnInfo is the interprocedural summary of one module-local function:
// freshCloser means its return value originates in an acquire inside it
// (net.Listen wrappers, dial-with-retry loops); closesParam is the 1-based
// parameter it closes (0 = none); keeps has bit i-1 set when parameter i is
// stored beyond the call (composite literal, field, channel, return).
type closeFnInfo struct {
	freshCloser bool
	closesParam int
	keeps       uint64
}

// closeIPA summarizes the module-local functions reachable from one
// package: every body of the package and of its module dependencies, which
// the loader type-checked through itself, so a *types.Func names the same
// function from any package.
type closeIPA struct {
	fns  map[*types.Func]funcDef
	memo map[*types.Func]closeFnInfo
	busy map[*types.Func]bool // being summarized; a recursive demand gets the zero summary
}

// funcDef is one module-local function body and the package whose type
// information resolves it.
type funcDef struct {
	decl *ast.FuncDecl
	pkg  *Package
}

var closeIPACache = make(map[*Package]*closeIPA)

func closeIPAFor(pkg *Package) *closeIPA {
	if ci, ok := closeIPACache[pkg]; ok {
		return ci
	}
	ci := &closeIPA{fns: make(map[*types.Func]funcDef), memo: make(map[*types.Func]closeFnInfo), busy: make(map[*types.Func]bool)}
	seen := make(map[*Package]bool)
	var index func(p *Package)
	index = func(p *Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						ci.fns[fn] = funcDef{decl: fd, pkg: p}
					}
				}
			}
		}
		for _, dep := range p.Deps {
			index(dep)
		}
	}
	index(pkg)
	closeIPACache[pkg] = ci
	return ci
}

// summary returns fn's closeFnInfo (the zero value for functions without a
// module-local body). A function demanded again while its own summary is
// being computed counts as the zero summary: within a recursion cluster
// the result may depend on which member was asked for first.
func (ci *closeIPA) summary(fn *types.Func) closeFnInfo {
	def, ok := ci.fns[fn]
	if !ok || ci.busy[fn] {
		return closeFnInfo{}
	}
	if s, ok := ci.memo[fn]; ok {
		return s
	}
	ci.busy[fn] = true
	s := ci.computeSummary(def)
	delete(ci.busy, fn)
	ci.memo[fn] = s
	return s
}

// callee is the module-local function a call invokes directly, or nil
// (interface dispatch, function values, literals, builtins).
func (ci *closeIPA) callee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := calleeFunc(info, call); fn != nil {
		if _, ok := ci.fns[fn]; ok {
			return fn
		}
	}
	return nil
}

// isCloserType reports whether t has a Close() error method (possibly
// through an embedded interface or a pointer receiver).
func isCloserType(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return isErrorType(sig.Results().At(0).Type())
}

// classifyAcquire reports whether call produces a fresh closer the caller
// owns, returning a display name for diagnostics ("net.Listen",
// "Listener.Accept", "TCPNode.dialRetry").
func (ci *closeIPA) classifyAcquire(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return "", false
	}
	path := pkgPathOf(fn)
	if set, ok := closeAcquirers[path]; ok && set[fn.Name()] {
		return fn.Pkg().Name() + "." + fn.Name(), true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	if strings.HasPrefix(fn.Name(), "Accept") && isCloserType(sig.Results().At(0).Type()) {
		return funcDisplayName(fn), true
	}
	if ci.summary(fn).freshCloser {
		return funcDisplayName(fn), true
	}
	return "", false
}

// computeSummary derives freshCloser/closesParam/keeps for one body.
func (ci *closeIPA) computeSummary(def funcDef) closeFnInfo {
	var out closeFnInfo
	body := def.decl.Body
	info := def.pkg.Info

	params := make(map[types.Object]int)
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

	fromAcq := make(map[types.Object]bool)
	skipLits := func(n ast.Node) bool { return n != body && isFuncLitNode(n) }
	ast.Inspect(body, func(n ast.Node) bool {
		if skipLits(n) {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// x, err := acquire() binds the closer to the first target.
		if len(as.Rhs) == 1 {
			if call, ok := stripValue(as.Rhs[0]).(*ast.CallExpr); ok {
				if _, isAcq := ci.classifyAcquire(def.pkg, call); isAcq && len(as.Lhs) >= 1 {
					if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
						if o := info.Defs[id]; o != nil {
							fromAcq[o] = true
						}
					}
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
					if _, isAcq := ci.classifyAcquire(def.pkg, v); isAcq {
						out.freshCloser = true
					}
				case *ast.Ident:
					if o := info.Uses[v]; o != nil && fromAcq[o] {
						out.freshCloser = true
					}
				}
			}
		case *ast.CallExpr:
			if obj := closeReceiver(info, x); obj != nil {
				if idx, ok := params[obj]; ok {
					out.closesParam = idx
				}
			}
			if fn := ci.callee(info, x); fn != nil {
				if cp := ci.summary(fn).closesParam; cp > 0 && cp <= len(x.Args) {
					if id, ok := ast.Unparen(x.Args[cp-1]).(*ast.Ident); ok {
						if idx, ok := params[info.Uses[id]]; ok {
							out.closesParam = idx
						}
					}
				}
			}
		}
		return true
	})

	lifecycleStmts(body, func(st ast.Node) {
		for obj, idx := range params {
			if out.keeps&(1<<(idx-1)) != 0 {
				continue
			}
			if transfersOwnership(info, st, obj) {
				out.keeps |= 1 << (idx - 1)
			}
		}
	})
	return out
}

// closeReceiver matches x.Close() with an identifier receiver, returning
// the receiver's object (nil otherwise).
func closeReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) != 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// closeAcquire is one tracked acquire bound to a local.
type closeAcquire struct {
	node ast.Node
	pos  token.Pos
	obj  types.Object
	src  string // acquirer display name
}

func runCloseFlow(pass *Pass) {
	pkg := pass.Pkg
	ci := closeIPAFor(pkg)
	for _, f := range pkg.Files {
		for _, scope := range funcBodies(f) {
			analyzeCloseScope(pass, ci, scope)
		}
	}
}

func analyzeCloseScope(pass *Pass, ci *closeIPA, scope funcScope) {
	pkg := pass.Pkg
	info := pkg.Info

	var acquires []*closeAcquire
	releaseNodes := make(map[types.Object]map[ast.Node]bool)
	release := func(obj types.Object, st ast.Node) {
		if releaseNodes[obj] == nil {
			releaseNodes[obj] = make(map[ast.Node]bool)
		}
		releaseNodes[obj][st] = true
	}

	lifecycleStmts(scope.body, func(st ast.Node) {
		for _, call := range callsIn(st) {
			if src, ok := ci.classifyAcquire(pkg, call); ok {
				handleCloseAcquire(pass, scope, st, call, src, &acquires)
				continue
			}
			if obj := closeReceiver(info, call); obj != nil && declaredWithin(obj, scope.body) {
				release(obj, st)
				continue
			}
			if fn := ci.callee(info, call); fn != nil {
				if cp := ci.summary(fn).closesParam; cp > 0 && cp <= len(call.Args) {
					if id, ok := ast.Unparen(call.Args[cp-1]).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil && declaredWithin(obj, scope.body) {
							release(obj, st)
						}
					}
				}
			}
		}
	})
	if len(acquires) == 0 {
		return
	}

	g := buildCFG(scope.body)
	for _, a := range acquires {
		obj := a.obj
		rel := releaseNodes[obj]
		stop := func(n ast.Node) bool {
			return rel[n] || killsObj(n, obj, info) ||
				transfersOwnership(info, n, obj) || ci.keeperCall(pkg, n, obj)
		}
		if leakWithWitness(g, info, a.node, obj, stop) {
			pass.Reportf(a.pos, "'%s' (from %s) may not be closed on some path that uses it (missing Close or ownership transfer)", obj.Name(), a.src)
		}
	}
}

// keeperCall reports whether statement st passes obj to a module-local
// function that stores it beyond the call (keeps summary bit set for that
// parameter) — an ownership transfer the generic classifier cannot see.
func (ci *closeIPA) keeperCall(p *Package, st ast.Node, obj types.Object) bool {
	for _, call := range callsIn(st) {
		for i, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok || p.Info.Uses[id] != obj {
				continue
			}
			if fn := ci.callee(p.Info, call); fn != nil && ci.summary(fn).keeps&(1<<i) != 0 {
				return true
			}
		}
	}
	return false
}

// handleCloseAcquire records one acquire when its result is bound to a
// local. Results returned, stored into composites/fields, or assigned to
// captured variables transfer ownership at birth and are clean; a result
// that is plainly discarded cannot be verified and is flagged.
func handleCloseAcquire(pass *Pass, scope funcScope, st ast.Node, call *ast.CallExpr, src string, acquires *[]*closeAcquire) {
	info := pass.Pkg.Info

	bind := func(lhs []ast.Expr, rhs []ast.Expr) bool {
		var target ast.Expr
		if len(rhs) == 1 && len(lhs) >= 1 && stripValue(rhs[0]) == call {
			target = lhs[0] // tuple form: x, err := acquire()
		} else if len(lhs) == len(rhs) {
			for i := range rhs {
				if stripValue(rhs[i]) == call {
					target = lhs[i]
					break
				}
			}
		}
		if target == nil {
			return false
		}
		id, ok := ast.Unparen(target).(*ast.Ident)
		if !ok {
			return true // stored straight into a field/index: transferred at birth
		}
		if id.Name == "_" {
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
			return true // captured variable: the outer scope owns it
		}
		*acquires = append(*acquires, &closeAcquire{node: st, pos: call.Pos(), obj: obj, src: src})
		return true
	}

	switch s := st.(type) {
	case *ast.AssignStmt:
		if bind(s.Lhs, s.Rhs) {
			return
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					if bind(lhs, vs.Values) {
						return
					}
				}
			}
		}
	case *ast.ReturnStmt:
		return // transferred to the caller at birth
	}
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
	pass.Reportf(call.Pos(), "result of %s() is discarded; closeflow cannot verify it is ever closed", src)
}

// leakWithWitness reports whether some path from strictly after start
// reaches function exit having read obj at least once without passing a
// stop node (release, transfer, or kill). The read witness is what keeps
// `x, err := acquire(); if err != nil { return err }` clean: the error path
// never reads x.
func leakWithWitness(g *funcCFG, info *types.Info, start ast.Node, obj types.Object, stop func(ast.Node) bool) bool {
	p, ok := g.pos[start]
	if !ok {
		return false
	}
	type state struct {
		b    *cfgBlock
		read bool
	}
	visited := make(map[state]bool)
	var scan func(b *cfgBlock, i int, read bool) bool
	scan = func(b *cfgBlock, i int, read bool) bool {
		for ; i < len(b.nodes); i++ {
			n := b.nodes[i]
			if stop(n) {
				return false
			}
			if !read && usesObj(n, obj, info) {
				read = true
			}
		}
		if b == g.exit {
			return read
		}
		for _, s := range b.succs {
			if s == g.exit {
				if read {
					return true
				}
				continue
			}
			st := state{b: s, read: read}
			if visited[st] {
				continue
			}
			visited[st] = true
			if scan(s, 0, read) {
				return true
			}
		}
		return false
	}
	return scan(p.b, p.idx+1, false)
}

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

// funcDisplayName renders fn for diagnostics: "pkgname.Name" or
// "(T).Name" for methods, without module-path noise.
func funcDisplayName(fn *types.Func) string {
	if fn == nil {
		return "func literal"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
