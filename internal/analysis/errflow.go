package analysis

import (
	"go/ast"
	"go/types"
)

// errflowTargets are the packages whose errors report communicator and
// distributed-transform failures.
var errflowTargets = []string{"internal/mpi", "internal/dist"}

// ErrFlow is the flow-aware upgrade of errdrop. errdrop catches errors
// discarded AT the call site (`c.Send(...)` as a bare statement, `_ =`).
// ErrFlow catches errors that were stored in a variable — so errdrop is
// satisfied — but can still die unobserved: some execution path from the
// assignment reaches a return (or plainly overwrites the variable) without
// the error ever being returned, checked, or logged. The classic shape:
//
//	err := c.Send(dst, tag, data)
//	if verbose {
//	    log.Println(err)
//	}
//	return nil   // err dropped when !verbose
//
// Any read counts as observation (a condition, a return value, a log
// argument, capture into a struct or channel send). Variables that are
// named results of the enclosing function are skipped: a naked return
// returns them invisibly, which path scanning cannot see.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "flags mpi/dist errors stored in a variable and dropped on some path to return",
	Run:  runErrFlow,
}

func runErrFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					checkErrFlow(pass, v.Type, v.Body)
				}
			case *ast.FuncLit:
				checkErrFlow(pass, v.Type, v.Body)
			}
			return true
		})
	}
}

func checkErrFlow(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	named := namedResultObjs(ftype, info)
	var g *funcCFG // built lazily: most functions define no candidate errors
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // literal bodies get their own walk and CFG
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, id := range errDefTargets(info, as) {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || named[obj] {
				continue
			}
			if g == nil {
				g = buildCFG(body)
			}
			if g.dropOnSomePath(as, obj, info) {
				pass.Reportf(id.Pos(), "error %s from %s can reach a return without being returned, checked, or logged; handle it on every path", id.Name, errSourceLabel(info, as))
			}
		}
		return true
	})
}

// errDefTargets returns the non-blank error-typed identifiers an assignment
// fills from a call into an errflow target package.
func errDefTargets(info *types.Info, as *ast.AssignStmt) []*ast.Ident {
	var out []*ast.Ident
	collect := func(lhs ast.Expr, call *ast.CallExpr) {
		f := calleeFunc(info, call)
		if f == nil || !pathHasSuffix(pkgPathOf(f), errflowTargets...) || !returnsError(f) {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if t := info.TypeOf(id); t == nil || !isErrorType(t) {
			return
		}
		out = append(out, id)
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple form: data, err := c.Recv(src, tag)
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			for _, l := range as.Lhs {
				collect(l, call)
			}
		}
		return out
	}
	for i := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
			collect(as.Lhs[i], call)
		}
	}
	return out
}

// errSourceLabel names the call the assignment took its error from, for the
// diagnostic message.
func errSourceLabel(info *types.Info, as *ast.AssignStmt) string {
	for _, r := range as.Rhs {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			if f := calleeFunc(info, call); f != nil && pathHasSuffix(pkgPathOf(f), errflowTargets...) {
				return calleeLabel(f)
			}
		}
	}
	return "an mpi/dist call"
}

// namedResultObjs collects the named result variables of a function type; a
// naked return returns them without any visible identifier use, so errflow
// cannot path-scan them soundly and leaves them alone.
func namedResultObjs(ftype *ast.FuncType, info *types.Info) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ftype == nil || ftype.Results == nil {
		return out
	}
	for _, field := range ftype.Results.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}
