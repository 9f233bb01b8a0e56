package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// MPIOrder encodes the paper's communication discipline as a protocol
// check. A collective (AllToAll, Barrier, Bcast, Gather, Reduce, AllReduce,
// Scatter — and SendRecv, which pairs with the same call on the peer) must
// be entered by EVERY rank of the communicator, or the ranks that did enter
// block forever: the classic `if rank == 0 { Barrier(c) }` distributed
// deadlock. The analyzer tracks rank-derived values through assignments
// (dataflow, not just the literal Rank() call in the condition) and flags
// collective calls that are control-dependent on them. It also matches
// constant Send/Recv tags within a function: in SPMD code every rank runs
// the same function, so a constant-tag Send with no constant-tag Recv
// counterpart (and vice versa) can never be delivered.
var MPIOrder = &Analyzer{
	Name: "mpiorder",
	Doc:  "flags mpi collectives control-dependent on Rank() comparisons and Send/Recv pairs whose constant tags cannot match",
	Run:  runMPIOrder,
}

// mpiCollectives are the internal/mpi entry points every rank must reach
// together.
var mpiCollectives = map[string]bool{
	"AllToAll": true, "Barrier": true, "Bcast": true, "Gather": true,
	"Reduce": true, "AllReduce": true, "Scatter": true, "SendRecv": true,
	"AllToAllInto": true, "SendRecvInto": true,
}

func runMPIOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			taint := rankTaintedObjects(fd.Body, info)
			reportRankConditional(pass, fd.Body, taint, false)
			reportTagMismatches(pass, fd.Body)
		}
	}
}

// rankTaintedObjects computes the set of local variables whose value is
// derived from Rank(): assigned from a Rank() call or from an expression
// mentioning an already-tainted variable. Iterated to a fixpoint so taint
// flows through chains (r := c.Rank(); leader := r == 0).
func rankTaintedObjects(body ast.Node, info *types.Info) map[types.Object]bool {
	taint := make(map[types.Object]bool)
	tainted := func(e ast.Expr) bool { return exprRankTainted(e, info, taint) }
	markLHS := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || taint[obj] {
			return false
		}
		taint[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) == len(v.Rhs) {
					for i := range v.Lhs {
						if tainted(v.Rhs[i]) && markLHS(v.Lhs[i]) {
							changed = true
						}
					}
				} else {
					any := false
					for _, r := range v.Rhs {
						any = any || tainted(r)
					}
					if any {
						for _, l := range v.Lhs {
							if markLHS(l) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				any := false
				for _, r := range v.Values {
					any = any || tainted(r)
				}
				if any {
					for _, name := range v.Names {
						if obj := info.Defs[name]; obj != nil && !taint[obj] {
							taint[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return taint
}

// exprRankTainted reports whether e mentions a Rank() call or a tainted
// variable.
func exprRankTainted(e ast.Expr, info *types.Info, taint map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if isRankCall(info, v) {
				found = true
			}
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil && taint[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRankCall matches c.Rank() / mpi-package Rank calls.
func isRankCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Name() == "Rank" && pathHasSuffix(pkgPathOf(f), "internal/mpi")
}

// reportRankConditional walks n flagging collective calls inside regions
// guarded by a rank-derived condition. rankCond is true when an enclosing
// if/switch/for condition was rank-dependent.
func reportRankConditional(pass *Pass, n ast.Node, taint map[types.Object]bool, rankCond bool) {
	info := pass.Pkg.Info
	if n == nil {
		return
	}
	tainted := func(e ast.Expr) bool {
		return e != nil && exprRankTainted(e, info, taint)
	}
	switch v := n.(type) {
	case *ast.IfStmt:
		reportRankConditional(pass, v.Init, taint, rankCond)
		cond := rankCond || tainted(v.Cond)
		reportCollectiveCalls(pass, v.Cond, rankCond) // calls in the condition itself are pre-branch
		reportRankConditional(pass, v.Body, taint, cond)
		reportRankConditional(pass, v.Else, taint, cond)
	case *ast.SwitchStmt:
		reportRankConditional(pass, v.Init, taint, rankCond)
		tagCond := rankCond || tainted(v.Tag)
		for _, cl := range v.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			cond := tagCond
			for _, e := range cc.List {
				cond = cond || tainted(e)
			}
			for _, s := range cc.Body {
				reportRankConditional(pass, s, taint, cond)
			}
		}
	case *ast.ForStmt:
		reportRankConditional(pass, v.Init, taint, rankCond)
		cond := rankCond || tainted(v.Cond)
		reportRankConditional(pass, v.Body, taint, cond)
		reportRankConditional(pass, v.Post, taint, cond)
	case *ast.BlockStmt:
		for _, s := range v.List {
			reportRankConditional(pass, s, taint, rankCond)
		}
	case ast.Stmt, ast.Expr:
		reportCollectiveCalls(pass, v, rankCond)
		// Descend for nested statements (closures, range bodies, selects).
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.ForStmt:
				reportRankConditional(pass, m, taint, rankCond)
				return false
			case *ast.BlockStmt:
				reportRankConditional(pass, m, taint, rankCond)
				return false
			}
			return true
		})
	}
}

// reportCollectiveCalls flags the collective calls directly inside n (not
// descending into nested control statements, which reportRankConditional
// owns) when the region is rank-conditional.
func reportCollectiveCalls(pass *Pass, n ast.Node, rankCond bool) {
	if !rankCond || n == nil {
		return
	}
	info := pass.Pkg.Info
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.ForStmt, *ast.BlockStmt:
			return false // handled by the region walk
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || !mpiCollectives[f.Name()] || !pathHasSuffix(pkgPathOf(f), "internal/mpi") {
			return true
		}
		pass.Reportf(call.Pos(), "%s is control-dependent on Rank(); a collective must be entered by every rank or the ranks that enter it deadlock", calleeLabel(f))
		return true
	})
}

// reportTagMismatches matches constant Send/Recv tags within one function.
// SPMD functions are their own protocol peers: every rank executes the same
// body, so a constant-tag Send must find a constant-tag Recv (or SendRecv)
// in the same function. The check stays silent as soon as either side uses
// a computed tag — then a match cannot be dis-proven.
func reportTagMismatches(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	type tagSite struct {
		call *ast.CallExpr
		f    *types.Func
		tag  int64
	}
	var sends, recvs []tagSite
	sendOK, recvOK := true, true // false once a non-constant tag appears
	constTag := func(e ast.Expr) (int64, bool) {
		tv, ok := info.Types[e]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return 0, false
		}
		v, ok := constant.Int64Val(tv.Value)
		return v, ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || !pathHasSuffix(pkgPathOf(f), "internal/mpi") {
			return true
		}
		var tagArg ast.Expr
		var isSend, isRecv bool
		switch {
		case f.Name() == "Send" && len(call.Args) >= 2:
			tagArg, isSend = call.Args[1], true
		case f.Name() == "Recv" && len(call.Args) >= 2:
			tagArg, isRecv = call.Args[1], true
		case (f.Name() == "SendRecv" || f.Name() == "SendRecvInto") && len(call.Args) >= 5:
			tagArg, isSend, isRecv = call.Args[4], true, true
		default:
			return true
		}
		tag, ok := constTag(tagArg)
		if isSend {
			if ok {
				sends = append(sends, tagSite{call, f, tag})
			} else {
				sendOK = false
			}
		}
		if isRecv {
			if ok {
				recvs = append(recvs, tagSite{call, f, tag})
			} else {
				recvOK = false
			}
		}
		return true
	})
	if len(sends) == 0 || len(recvs) == 0 {
		return // send-only / recv-only helpers pair with peers elsewhere
	}
	sendTags, recvTags := make(map[int64]bool), make(map[int64]bool)
	for _, s := range sends {
		sendTags[s.tag] = true
	}
	for _, r := range recvs {
		recvTags[r.tag] = true
	}
	if recvOK {
		for _, s := range sends {
			if !recvTags[s.tag] {
				pass.Reportf(s.call.Pos(), "%s with constant tag %d has no matching Recv tag in this function (recv tags: %s); the message can never be delivered here", calleeLabel(s.f), s.tag, tagList(recvTags))
			}
		}
	}
	if sendOK {
		for _, r := range recvs {
			if !sendTags[r.tag] {
				pass.Reportf(r.call.Pos(), "%s with constant tag %d has no matching Send tag in this function (send tags: %s); every rank blocks here", calleeLabel(r.f), r.tag, tagList(sendTags))
			}
		}
	}
}

func tagList(tags map[int64]bool) string {
	var vals []int64
	for t := range tags {
		vals = append(vals, t)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}
