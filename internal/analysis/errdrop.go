package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// errdropTargets are the packages whose errors encode communicator and
// instrumentation failures. A dropped Send error means a rank silently
// computed on garbage — the distributed transform returns a wrong spectrum
// with no diagnostic, the worst possible failure mode at cluster scale.
var errdropTargets = []string{"internal/mpi", "internal/trace"}

// ErrDrop flags errors returned by the mpi and trace APIs that are
// discarded: calls used as bare statements, go statements, or with the
// error result assigned to the blank identifier. Deferred Close calls are
// exempt (the conventional best-effort teardown idiom); any other deferred
// drop is flagged.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded errors from internal/mpi and internal/trace calls",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	info := pass.Pkg.Info
	inspectAll(pass.Pkg, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
				if f, pos := droppedErrCall(info, call); f != nil {
					pass.Reportf(pos, "%s returns an error that is discarded; handle or propagate it", calleeLabel(f))
				}
			}
		case *ast.GoStmt:
			if f, pos := droppedErrCall(info, v.Call); f != nil {
				pass.Reportf(pos, "go %s discards the returned error; collect it through a channel or errgroup-style fan-in", calleeLabel(f))
			}
		case *ast.DeferStmt:
			f, pos := droppedErrCall(info, v.Call)
			if f != nil && f.Name() != "Close" {
				pass.Reportf(pos, "defer %s discards the returned error; only deferred Close is exempt", calleeLabel(f))
			}
		case *ast.AssignStmt:
			reportBlankErrAssign(pass, v)
		}
		return true
	})
}

// droppedErrCall reports whether call invokes a target-package function
// returning at least one error, with the call position for reporting.
func droppedErrCall(info *types.Info, call *ast.CallExpr) (*types.Func, token.Pos) {
	f := calleeFunc(info, call)
	if f == nil || !pathHasSuffix(pkgPathOf(f), errdropTargets...) {
		return nil, token.NoPos
	}
	if !returnsError(f) {
		return nil, token.NoPos
	}
	return f, call.Pos()
}

func calleeLabel(f *types.Func) string {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return types.TypeString(recv.Type(), func(p *types.Package) string { return p.Name() }) + "." + f.Name()
	}
	return f.Pkg().Name() + "." + f.Name()
}

func returnsError(f *types.Func) bool {
	res := f.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// reportBlankErrAssign flags `_`-positions of an assignment that swallow an
// error result of a target-package call: both `_ = c.Send(...)` and
// `data, _, _ := c.Recv(...)` (the error is the last blank there).
func reportBlankErrAssign(pass *Pass, stmt *ast.AssignStmt) {
	info := pass.Pkg.Info
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		// Tuple form: one multi-result call fanned out to n targets.
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		f := calleeFunc(info, call)
		if f == nil || !pathHasSuffix(pkgPathOf(f), errdropTargets...) {
			return
		}
		res := f.Type().(*types.Signature).Results()
		for i := 0; i < res.Len() && i < len(stmt.Lhs); i++ {
			if isErrorType(res.At(i).Type()) && isBlank(stmt.Lhs[i]) {
				pass.Reportf(stmt.Lhs[i].Pos(), "error from %s assigned to _; handle or propagate it", calleeLabel(f))
			}
		}
		return
	}
	for i, lhs := range stmt.Lhs {
		if !isBlank(lhs) || i >= len(stmt.Rhs) {
			continue
		}
		call, ok := ast.Unparen(stmt.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if f, _ := droppedErrCall(info, call); f != nil {
			pass.Reportf(lhs.Pos(), "error from %s assigned to _; handle or propagate it", calleeLabel(f))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
