package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the interprocedural layer goleak, deadlineflow, lockorder,
// poolflow and closeflow are built on: a module-local
// view of every function body reachable from one package, call-site
// resolution (direct calls, method values bound to locals, interface
// dispatch to the known module-local concrete set), and a memoized,
// cycle-tolerant summary cache.
//
// The view is module-local on purpose. The loader type-checks module
// dependencies through itself (loader.go), so every dependency's syntax is
// already in memory with *types.Func pointers that are identical across
// packages — no export-data reconstruction, no position translation.
// Functions outside the module (stdlib, opaque function values) have no
// bodies here; analyzers treat them per their own policy, conservatively
// documented in each analyzer's Doc string.

// funcDef is one module-local function body, paired with the package whose
// type info resolves identifiers inside it.
type funcDef struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// ipaView indexes one package plus its transitive module-local
// dependencies.
type ipaView struct {
	root *Package
	pkgs []*Package // root + transitive deps, root first, then sorted by path

	fns map[*types.Func]*funcDef
	// funcVals maps a local variable object to the single function literal
	// or named function it is bound to, when it is bound exactly once (the
	// method-value / closure-in-variable pattern: f := s.run; go f()).
	funcVals map[types.Object]funcBinding
	// named lists every defined (non-alias) named type of the module view,
	// the candidate set for interface dispatch.
	named []*types.Named

	// concretes memoizes interface -> implementing module-local methods.
	concretes map[*types.Func][]*types.Func
}

// funcBinding is one resolved function-valued binding: either a named
// function/method (fn) or a literal (lit, with the package it appears in).
type funcBinding struct {
	fn  *types.Func
	lit *ast.FuncLit
	pkg *Package
}

// ipaCache keeps one view per root package: the passes of the
// interprocedural analyzers over the same package share the index instead
// of rebuilding it. The linter is single-threaded per Run, so a plain map
// suffices.
var ipaCache = make(map[*Package]*ipaView)

// newIPAView builds (or returns the cached) module-local view rooted at
// pkg.
func newIPAView(pkg *Package) *ipaView {
	if v, ok := ipaCache[pkg]; ok {
		return v
	}
	v := &ipaView{
		root:      pkg,
		fns:       make(map[*types.Func]*funcDef),
		funcVals:  make(map[types.Object]funcBinding),
		concretes: make(map[*types.Func][]*types.Func),
	}
	seen := make(map[*Package]bool)
	var collect func(p *Package)
	collect = func(p *Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		v.pkgs = append(v.pkgs, p)
		paths := make([]string, 0, len(p.Deps))
		for path := range p.Deps {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			collect(p.Deps[path])
		}
	}
	collect(pkg)
	for _, p := range v.pkgs {
		v.indexPackage(p)
	}
	ipaCache[pkg] = v
	return v
}

func (v *ipaView) indexPackage(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				v.fns[fn] = &funcDef{fn: fn, decl: fd, pkg: p}
			}
		}
		v.indexFuncVals(p, f)
	}
	if p.Types != nil {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				v.named = append(v.named, n)
			}
		}
	}
}

// indexFuncVals records single-assignment function-valued locals. A
// variable assigned more than once, or from an unresolvable expression, is
// dropped (opaque).
func (v *ipaView) indexFuncVals(p *Package, f *ast.File) {
	assigns := make(map[types.Object]int)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		assigns[obj]++
		if assigns[obj] > 1 {
			delete(v.funcVals, obj)
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			v.funcVals[obj] = funcBinding{lit: r, pkg: p}
		case *ast.Ident:
			if fn, ok := p.Info.Uses[r].(*types.Func); ok {
				v.funcVals[obj] = funcBinding{fn: fn}
			}
		case *ast.SelectorExpr:
			// Method value: f := s.run (Selections non-nil) or package
			// function value: f := pkg.Run.
			if fn, ok := p.Info.Uses[r.Sel].(*types.Func); ok {
				v.funcVals[obj] = funcBinding{fn: fn}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
}

// def returns the module-local body of fn, or nil (stdlib, interface
// method, bodyless declaration).
func (v *ipaView) def(fn *types.Func) *funcDef {
	if fn == nil {
		return nil
	}
	return v.fns[fn]
}

// resolveCall resolves one call expression (appearing in package p) to the
// set of possible callees. Interface method calls expand to every
// module-local named type implementing the interface (the known concrete
// set); calls through unresolvable function values yield nil (opaque).
// The viaIface flag lets analyzers apply different policies to dispatched
// calls.
func (v *ipaView) resolveCall(p *Package, call *ast.CallExpr) []calleeRef {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return []calleeRef{{lit: fun, pkg: p}}
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return []calleeRef{{fn: fn}}
		}
		if obj := p.Info.Uses[fun]; obj != nil {
			if b, ok := v.funcVals[obj]; ok {
				return []calleeRef{{fn: b.fn, lit: b.lit, pkg: b.pkg}}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := p.Info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel := p.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				var out []calleeRef
				for _, impl := range v.implementers(fn, sel.Recv()) {
					out = append(out, calleeRef{fn: impl, viaIface: true})
				}
				return out
			}
		}
		return []calleeRef{{fn: fn}}
	}
	return nil
}

// calleeRef is one possible callee: a named function (fn, with def
// resolvable through the view) or a literal (lit in pkg).
type calleeRef struct {
	fn       *types.Func
	lit      *ast.FuncLit
	pkg      *Package
	viaIface bool
}

// implementers returns the concrete methods the interface method m can
// dispatch to among the module-local named types.
func (v *ipaView) implementers(m *types.Func, recv types.Type) []*types.Func {
	if out, ok := v.concretes[m]; ok {
		return out
	}
	iface, _ := recv.Underlying().(*types.Interface)
	var out []*types.Func
	if iface != nil {
		for _, n := range v.named {
			if types.IsInterface(n.Underlying()) {
				continue
			}
			var t types.Type = n
			if !types.Implements(t, iface) {
				t = types.NewPointer(n)
				if !types.Implements(t, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	v.concretes[m] = out
	return out
}

// summarizer memoizes one summary of type T per function and tolerates
// recursion: a demand for a function that is still being computed yields the
// zero summary. A summary built while something outside its own computation
// was still unfinished may rest on such a zero, so it is provisional: it is
// reused until the unfinished function it waited on returns — a recursion
// cluster costs one computation per member, not one per call path — and then
// forgotten, so what stays cached never depends on which function was asked
// for first (ipa_test.go pins that). The one summarizer serves goleak,
// lockorder, poolflow and closeflow.
type summarizer[T any] struct {
	compute func(def *funcDef) T
	memo    map[*types.Func]T
	active  map[*types.Func]int // functions being computed -> stack depth, outermost 1
	prov    map[*types.Func]provisional[T]
	trail   []*types.Func // prov's keys, oldest first
	low     int           // shallowest unfinished depth the running computation has met
}

// provisional is a summary with the shallowest stack depth it waited on.
type provisional[T any] struct {
	v   T
	low int
}

// summaryDepthLimit bounds call-chain recursion; past it, summaries degrade
// to the zero summary (under-approximate, never wrong-position) and nothing
// on the stack is cached.
const summaryDepthLimit = 64

func newSummarizer[T any](compute func(def *funcDef) T) *summarizer[T] {
	return &summarizer[T]{
		compute: compute,
		memo:    make(map[*types.Func]T),
		active:  make(map[*types.Func]int),
		prov:    make(map[*types.Func]provisional[T]),
	}
}

// of returns the summary for def.fn.
func (s *summarizer[T]) of(def *funcDef) T {
	var zero T
	if def == nil {
		return zero
	}
	if v, ok := s.memo[def.fn]; ok {
		return v
	}
	if p, ok := s.prov[def.fn]; ok {
		s.low = min(s.low, p.low)
		return p.v
	}
	if d, ok := s.active[def.fn]; ok {
		s.low = min(s.low, d)
		return zero
	}
	depth := len(s.active) + 1
	if depth > summaryDepthLimit {
		s.low = 0
		return zero
	}
	s.active[def.fn] = depth
	outer, mark := s.low, len(s.trail)
	s.low = depth
	v := s.compute(def)
	delete(s.active, def.fn)
	final := s.low >= depth // waited on nothing outside itself
	if final {
		s.memo[def.fn] = v
		s.low = outer
	} else {
		s.prov[def.fn] = provisional[T]{v, s.low}
		s.trail = append(s.trail, def.fn)
		s.low = min(s.low, outer)
	}
	if final || depth == 1 {
		// Whatever became provisional in here was waiting on this function
		// (or, past the depth limit, on nothing that will ever finish).
		for _, fn := range s.trail[mark:] {
			delete(s.prov, fn)
		}
		s.trail = s.trail[:mark]
	}
	return v
}

// refObj resolves the object a channel/mutex operand refers to: a local or
// package-level variable for identifiers, the field variable for (possibly
// nested) selectors — which is identical across every instance of the
// struct and across packages, since the whole module shares one loader.
// Index and slice layers are peeled (writeMu[dst] conflates to the writeMu
// field — conservative). Returns nil for unresolvable operands (call
// results, map loads through interfaces, ...).
func refObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			if o := info.Uses[x.Sel]; o != nil {
				return o // package-qualified var
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// refName renders a short, deterministic name for a resolved operand
// object: "T.field" for struct fields, the plain name otherwise.
func refName(obj types.Object) string {
	if obj == nil {
		return "?"
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		if owner := fieldOwner(v); owner != "" {
			return owner + "." + v.Name()
		}
	}
	return obj.Name()
}

// fieldOwner finds the named type declaring field v, scanning the field's
// package scope (best-effort; "" when not found, e.g. anonymous structs).
func fieldOwner(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

// exprName renders a short source-ish name for ident/selector chains
// ("free", "s.ready", "cn.out"); "chan" when unrenderable.
func exprName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprName(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprName(x.X) + "[...]"
	case *ast.CallExpr:
		return exprName(x.Fun) + "()"
	}
	return "chan"
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
