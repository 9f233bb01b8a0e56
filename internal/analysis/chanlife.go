package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ChanLife flags channel protocol violations: a send that may follow a
// close of the same channel on some path, a channel that may be closed
// twice, and violations of two annotatable ownership contracts declared on
// the channel's field or variable declaration:
//
//	//soilint:chan owner <Func>[,<Func>...]
//	//soilint:chan token <mutexField>
//
// `owner` restricts close to the named functions (a close inside a
// function literal is attributed to its enclosing named function) — the
// serve layer's close-by-owner handshakes (conn.out is closed by handle
// alone) become machine-checked. `token` requires every send and close on
// the channel to hold the named sibling mutex on every path from function
// entry — the scheduler's token-in-ready-channel invariant ("sends happen
// under mu, so the capacity bound holds") becomes machine-checked. Both
// contracts bind to the channel identity (struct field or variable), so
// they apply to every instance.
//
// Close/send matching is per-function (CFG-based); cross-function close
// protocols are what the contracts are for.
var ChanLife = &Analyzer{
	Name: "chanlife",
	Doc:  "channel protocol violations: send-after-close, double close, //soilint:chan ownership contracts",
	Run:  runChanLife,
}

// chanContract is the parsed contract of one channel identity.
type chanContract struct {
	owners []string // close allowed only inside these named functions
	token  string   // sends/closes must hold this sibling mutex / package var
}

func runChanLife(pass *Pass) {
	pkg := pass.Pkg
	contracts, malformed := collectChanContracts(pkg)
	for _, d := range malformed {
		pass.Reportf(d, "malformed //soilint:chan directive: want 'owner Func[,Func...]' or 'token mutexName'")
	}

	for _, f := range pkg.Files {
		for _, scope := range funcBodies(f) {
			checkChanScope(pass, f, scope, contracts)
		}
	}
}

// chanOp is one registered send or close inside a function scope.
type chanOp struct {
	node ast.Node  // the CFG-registered statement
	pos  token.Pos // the operation position (send stmt / close call)
	obj  types.Object
	send bool // send vs close
}

// checkChanScope runs the per-function channel checks over one body.
func checkChanScope(pass *Pass, file *ast.File, scope funcScope, contracts map[types.Object]*chanContract) {
	pkg := pass.Pkg
	var ops []chanOp
	// Collect sends/closes registered in this scope (function literals are
	// separate scopes; skip their subtrees).
	var scan func(n ast.Node, reg ast.Node)
	scan = func(n ast.Node, reg ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m != n && isFuncLitNode(m) {
				return false
			}
			switch x := m.(type) {
			case *ast.SendStmt:
				if obj := refObj(pkg.Info, x.Chan); obj != nil {
					ops = append(ops, chanOp{node: reg, pos: x.Pos(), obj: obj, send: true})
				}
			case *ast.CallExpr:
				if calleeBuiltin(pkg.Info, x) == "close" && len(x.Args) == 1 {
					if obj := refObj(pkg.Info, x.Args[0]); obj != nil {
						ops = append(ops, chanOp{node: reg, pos: x.Pos(), obj: obj, send: false})
					}
				}
			}
			return true
		})
	}
	// Walk top-level statements so every op knows its registered CFG node.
	var g *funcCFG // built lazily: most functions touch no channels
	ast.Inspect(scope.body, func(n ast.Node) bool {
		if n != scope.body && isFuncLitNode(n) {
			return false
		}
		switch n.(type) {
		case *ast.SendStmt, *ast.ExprStmt, *ast.AssignStmt, *ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt:
			scan(n, n.(ast.Node))
			return false
		}
		return true
	})
	if len(ops) == 0 {
		return
	}
	g = buildCFG(scope.body)

	// Contract checks.
	for _, op := range ops {
		c := contracts[op.obj]
		if c == nil {
			continue
		}
		name := refName(op.obj)
		if !op.send && len(c.owners) > 0 {
			owner := enclosingFuncName(file, nodeAt(op.pos))
			if !slices.Contains(c.owners, owner) {
				pass.Reportf(op.pos, "channel '%s' is closed outside its owner(s) %s (//soilint:chan owner contract)",
					name, strings.Join(c.owners, ","))
			}
		}
		if c.token != "" {
			mu := resolveTokenMutex(pkg, op.obj, c.token)
			if mu == nil {
				pass.Reportf(op.pos, "//soilint:chan token contract on '%s' names unknown mutex '%s'", name, c.token)
				continue
			}
			if !heldOnAllPaths(pkg, g, op.node, mu) {
				verb := "send on"
				if !op.send {
					verb = "close of"
				}
				pass.Reportf(op.pos, "%s '%s' without holding '%s' on some path (//soilint:chan token contract)", verb, name, c.token)
			}
		}
	}

	// Double close and send-after-close (per identity, within this scope).
	for i, ci := range ops {
		if ci.send {
			continue
		}
		after := g.reachableAfter(ci.node)
		for j, cj := range ops {
			if cj.obj != ci.obj {
				continue
			}
			reaches := after(cj.node) || cj.node == ci.node && j > i
			if !reaches {
				continue
			}
			name := refName(ci.obj)
			if cj.send {
				pass.Reportf(cj.pos, "send on '%s' may follow a close of it on some path", name)
			} else if j != i || selfReaches(g, ci.node) {
				if j != i {
					pass.Reportf(cj.pos, "channel '%s' may be closed twice (an earlier close may reach this one)", name)
				} else {
					pass.Reportf(cj.pos, "channel '%s' may be closed twice (the close is reachable from itself around a loop)", name)
				}
			}
		}
	}
}

// selfReaches reports whether node lies on a cycle (a loop re-executes it).
func selfReaches(g *funcCFG, n ast.Node) bool {
	return g.reachableAfter(n)(n)
}

// nodeAt wraps a position as a zero-width node for enclosingFuncName.
type posNode token.Pos

func (p posNode) Pos() token.Pos { return token.Pos(p) }
func (p posNode) End() token.Pos { return token.Pos(p) }

func nodeAt(p token.Pos) ast.Node { return posNode(p) }

func isFuncLitNode(n ast.Node) bool {
	_, ok := n.(*ast.FuncLit)
	return ok
}

// resolveTokenMutex resolves the mutex a token contract names: a sibling
// field of the channel's struct, or a package-level variable.
func resolveTokenMutex(pkg *Package, chanObj types.Object, name string) types.Object {
	if v, ok := chanObj.(*types.Var); ok && v.IsField() && v.Pkg() != nil {
		scope := v.Pkg().Scope()
		for _, tn := range scope.Names() {
			t, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := t.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			owns := false
			var mu types.Object
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					owns = true
				}
				if st.Field(i).Name() == name {
					mu = st.Field(i)
				}
			}
			if owns && mu != nil {
				return mu
			}
		}
		return nil
	}
	if pkg.Types != nil {
		if o := pkg.Types.Scope().Lookup(name); o != nil {
			return o
		}
	}
	return nil
}

// heldOnAllPaths reports whether every backward path from node to function
// entry passes a Lock() on mu after any Unlock() on it — i.e. the mutex is
// held when node executes, ignoring deferred unlocks (they run at exit).
func heldOnAllPaths(pkg *Package, g *funcCFG, node ast.Node, mu types.Object) bool {
	return g.precededOnAllPaths(node, func(n ast.Node) pathMark {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return markNone
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return markNone
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return markNone
		}
		if refObj(pkg.Info, sel.X) != mu {
			return markNone
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			return markSatisfy
		case "Unlock", "RUnlock":
			return markKill
		}
		return markNone
	})
}

// collectChanContracts scans the package comments for //soilint:chan
// directives and binds each to the channel identities declared on the
// directive's line or the line directly below it.
func collectChanContracts(pkg *Package) (map[types.Object]*chanContract, []token.Pos) {
	dirs, malformed := collectDirectives(pkg, "chan", func(args []string) bool {
		return len(args) == 2 && (args[0] == "owner" || args[0] == "token")
	})
	contracts := make(map[types.Object]*chanContract)
	bind := func(obj types.Object, d *directive) {
		if obj == nil || d == nil {
			return
		}
		if t := obj.Type(); t != nil {
			if _, ok := t.Underlying().(*types.Chan); !ok {
				return
			}
		}
		c := contracts[obj]
		if c == nil {
			c = &chanContract{}
			contracts[obj] = c
		}
		d.used = true
		switch d.args[0] {
		case "owner":
			c.owners = append(c.owners, splitList(d.args[1])...)
			sort.Strings(c.owners)
		case "token":
			c.token = d.args[1]
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				for _, name := range x.Names {
					bind(pkg.Info.Defs[name], dirs.at(name.Pos()))
				}
			case *ast.ValueSpec:
				for _, name := range x.Names {
					bind(pkg.Info.Defs[name], dirs.at(name.Pos()))
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for _, l := range x.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							bind(pkg.Info.Defs[id], dirs.at(id.Pos()))
						}
					}
				}
			}
			return true
		})
	}
	for _, d := range dirs.all {
		if !d.used {
			malformed = append(malformed, d.pos)
		}
	}
	return contracts, malformed
}
