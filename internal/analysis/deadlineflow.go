package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DeadlineFlow is the static twin of the faultcomm no-hang contract: every
// blocking mpi/wire operation in the serving and transport packages that
// is reachable from a request-handling entry point (an exported function
// or method, or a goroutine it spawns) must observe a deadline on every
// path — a SetReadDeadline/SetWriteDeadline/SetDeadline call preceding the
// operation within the same function, or a deadline-carrying variant of
// the primitive (RecvDeadline, RecvTimeout). PR 5's watchdog converts the
// hangs this misses into aborts at run time; deadlineflow rejects the
// shape at lint time.
//
// Audited packages: internal/serve, client, internal/faultcomm,
// internal/dist, internal/cluster. internal/wire and internal/mpi define
// the primitives (pure codec over io.Reader / transport internals with
// their own op-timeout machinery) and are exempt. Blocking primitives:
//
//   - mpi.Comm.Recv and the deadline-less collectives (SendRecv, AllToAll,
//     their ...Into forms, Barrier, Bcast, Gather, Reduce, AllReduce,
//     Scatter) — bounded only
//     by the transport's op-timeout, so a call site must either run under
//     one (justified suppression) or use RecvDeadline/RecvTimeout;
//   - wire reads (ReadHeader, ReadVector, ReadText, DiscardPayload) and
//     io.ReadFull — need a read deadline on the underlying conn;
//   - wire writes (Write*) and bufio.Writer.Flush — need a write deadline
//     (a peer that stops reading wedges the writer via TCP backpressure).
//
// The deadline must be established in the same function as the operation:
// a conservative, readable rule — a caller-established deadline still
// flags, and earns a suppression naming the caller.
var DeadlineFlow = &Analyzer{
	Name: "deadlineflow",
	Doc:  "blocking mpi/wire call reachable from an entry point without a deadline on every path",
	Run:  runDeadlineFlow,
}

// deadlineflowTargets are the audited packages (suffix-matched, so the
// golden fixtures under testdata/src/deadlineflow/... participate).
var deadlineflowTargets = []string{
	"internal/serve", "client", "internal/faultcomm", "internal/dist", "internal/cluster",
}

// unboundedMPI names the mpi-package calls with no deadline parameter.
var unboundedMPI = map[string]bool{
	"Recv": true, "SendRecv": true, "AllToAll": true, "Barrier": true,
	"SendRecvInto": true, "AllToAllInto": true,
	"Bcast": true, "Gather": true, "Reduce": true, "AllReduce": true, "Scatter": true,
}

// wireReads names the internal/wire decode calls that block on conn reads.
var wireReads = map[string]bool{
	"ReadHeader": true, "ReadVector": true, "ReadText": true, "DiscardPayload": true,
}

func runDeadlineFlow(pass *Pass) {
	pkg := pass.Pkg
	if !pathHasSuffix(pkg.Path, deadlineflowTargets...) {
		return
	}
	view := newIPAView(pkg)
	entryOf := reachableFromEntries(view, pkg)

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			entry, reached := entryOf[fn]
			if !reached {
				continue // not reachable from any entry point
			}
			checkDeadlineOps(pass, fd, entry)
		}
	}
}

// blockingOp classifies one call: "" if not blocking, else a display name,
// plus whether it is a read or write (for deadline-kind matching).
func classifyBlockingCall(info *types.Info, call *ast.CallExpr) (opName string, isWrite bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	path, name := pkgPathOf(fn), fn.Name()
	switch {
	case pathHasSuffix(path, "internal/mpi") && unboundedMPI[name]:
		return "mpi." + name, false
	case pathHasSuffix(path, "internal/wire") && wireReads[name]:
		return "wire." + name, false
	case pathHasSuffix(path, "internal/wire") && strings.HasPrefix(name, "Write"):
		return "wire." + name, true
	case path == "bufio" && name == "Flush":
		return "bufio.Writer.Flush", true
	case path == "io" && name == "ReadFull":
		return "io.ReadFull", false
	}
	return "", false
}

// checkDeadlineOps scans one declaration (including its function literals
// — goroutine bodies block on behalf of the same entry) for blocking calls
// not preceded by a deadline on every path within their innermost scope.
func checkDeadlineOps(pass *Pass, fd *ast.FuncDecl, entry string) {
	pkg := pass.Pkg
	// Innermost scopes: the declaration body plus every literal inside it.
	type scopeCFG struct {
		body *ast.BlockStmt
		g    *funcCFG
	}
	var scopes []*scopeCFG
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			scopes = append(scopes, &scopeCFG{body: x.Body})
		case *ast.FuncDecl:
			scopes = append(scopes, &scopeCFG{body: x.Body})
		}
		return true
	})
	innermost := func(pos ast.Node) *scopeCFG {
		var best *scopeCFG
		for _, s := range scopes {
			if s.body.Pos() <= pos.Pos() && pos.End() <= s.body.End() {
				if best == nil || best.body.Pos() <= s.body.Pos() {
					best = s
				}
			}
		}
		return best
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		opName, isWrite := classifyBlockingCall(pkg.Info, call)
		if opName == "" {
			return true
		}
		sc := innermost(call)
		if sc == nil {
			return true
		}
		if sc.g == nil {
			sc.g = buildCFG(sc.body)
		}
		node := registeredNodeFor(sc.g, call)
		if node != nil && sc.g.precededOnAllPaths(node, func(m ast.Node) pathMark {
			if hasDeadlineCall(pkg.Info, m, isWrite) {
				return markSatisfy
			}
			return markNone
		}) {
			return true
		}
		kind := "read"
		if isWrite {
			kind = "write"
		}
		pass.Reportf(call.Pos(), "blocking %s call to %s with no %s deadline on every path (entry %s)", kind, opName, kind, entry)
		return true
	})
}

// registeredNodeFor finds the smallest CFG-registered node containing
// expr.
func registeredNodeFor(g *funcCFG, expr ast.Node) ast.Node {
	var best ast.Node
	for n := range g.pos {
		if n.Pos() <= expr.Pos() && expr.End() <= n.End() {
			if best == nil || n.Pos() >= best.Pos() && n.End() <= best.End() {
				best = n
			}
		}
	}
	return best
}

// hasDeadlineCall reports whether the node contains a Set*Deadline call of
// the right kind (function literals excluded: they run later).
func hasDeadlineCall(info *types.Info, n ast.Node, isWrite bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found || isFuncLitNode(m) && m != n {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "SetDeadline":
			found = true
		case "SetReadDeadline":
			found = found || !isWrite
		case "SetWriteDeadline":
			found = found || isWrite
		}
		return !found
	})
	return found
}

// reachableFromEntries computes, for every function of pkg, the entry
// point it is reachable from (exported functions/methods and main,
// breadth-first in sorted name order so the attribution is deterministic;
// goroutine spawns count as calls).
func reachableFromEntries(view *ipaView, pkg *Package) map[*types.Func]string {
	type qitem struct {
		fn    *types.Func
		entry string
	}
	var queue []qitem
	var entries []*types.Func
	for fn, def := range view.fns {
		if def.pkg != pkg {
			continue
		}
		if fn.Exported() || fn.Name() == "main" {
			entries = append(entries, fn)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		return funcDisplayName(entries[i]) < funcDisplayName(entries[j])
	})
	entryOf := make(map[*types.Func]string)
	for _, e := range entries {
		name := funcDisplayName(e)
		if _, ok := entryOf[e]; !ok {
			entryOf[e] = name
			queue = append(queue, qitem{e, name})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		def := view.def(it.fn)
		if def == nil {
			continue
		}
		ast.Inspect(def.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, c := range view.resolveCall(def.pkg, call) {
				if c.fn == nil {
					continue
				}
				if _, seen := entryOf[c.fn]; !seen {
					entryOf[c.fn] = it.entry
					queue = append(queue, qitem{c.fn, it.entry})
				}
			}
			return true
		})
	}
	return entryOf
}
