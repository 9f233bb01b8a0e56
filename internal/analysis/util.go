package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method a call expression invokes, or
// nil for builtins, conversions, indirect calls through function values,
// and anything the (possibly partial) type information cannot name.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeLabel names a function for a diagnostic: pkg.Func, or the
// receiver type and the method name.
func calleeLabel(f *types.Func) string {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return types.TypeString(recv.Type(), func(p *types.Package) string { return p.Name() }) + "." + f.Name()
	}
	return f.Pkg().Name() + "." + f.Name()
}

// calleeBuiltin returns the name of the builtin a call invokes ("make",
// "append", ...), or "".
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// pkgPathOf returns the import path of the package a function belongs to
// ("" for builtins and universe-scope objects).
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// pathHasSuffix reports whether an import path ends in one of the given
// suffixes. Matching by suffix (e.g. "internal/fft") keeps the analyzers
// honest on both the real tree (soifft/internal/fft) and test fixtures
// (soifft/internal/analysis/testdata/src/.../internal/fft).
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// parForCallee returns "For" or "ForChunked" if the call invokes one of the
// par package's loop primitives, else "".
func parForCallee(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || !pathHasSuffix(pkgPathOf(f), "internal/par") {
		return ""
	}
	if name := f.Name(); name == "For" || name == "ForChunked" {
		return name
	}
	return ""
}

// parBody returns the func-literal loop body of a par.For/par.ForChunked
// call, or nil (the primitives take the body as their last argument).
func parBody(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if parForCallee(info, call) == "" || len(call.Args) == 0 {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return lit
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

// enclosingFuncName walks the file for the named function declaration whose
// body contains pos, returning "" at file scope.
func enclosingFuncName(f *ast.File, pos ast.Node) string {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos.Pos() && pos.Pos() <= fd.Body.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// isPrecomputeFunc reports whether a function name marks plan-construction
// or table-building code, which is exempt from hot-path checks: twiddle and
// window tables are *supposed* to be built with real trigonometry and real
// allocations, once, at plan time.
func isPrecomputeFunc(name string) bool {
	return strings.HasPrefix(name, "New") ||
		strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Build") ||
		strings.HasPrefix(name, "build") ||
		strings.HasSuffix(name, "Table") ||
		name == "init"
}

// rootIdent peels index and selector layers off an lvalue and returns the
// base identifier (x for x[i][j], x.f[k]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}
