package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CodecFlow keeps the codec dispatch intact as the codec set grows: every
// switch over codec.ID either covers all declared ID constants or carries a
// rejecting (non-empty) default, so a new codec added to the enum without
// updating its dispatch sites (the For registry, the wire negotiation clamp,
// the flag parsers) becomes findings naming each stale switch, not a peer
// that silently drops frames. (That a block's CRC is verified before it is
// decoded is the tamper tests' to catch: matrix row
// codecflow-decode-before-crc.)
var CodecFlow = &Analyzer{
	Name: "codecflow",
	Doc:  "codec conformance: switches over codec.ID are exhaustive or reject unknowns",
	Run:  runCodecFlow,
}

// codecModel is the declared codec surface, extracted from the package
// whose import path ends in internal/codec: the ID enum and its constants.
type codecModel struct {
	pkg      *Package
	idType   *types.TypeName
	idConsts []*types.Const
}

// extractCodecModel builds the model, or nil when the package declares no
// ID enum (e.g. fixture stubs of other analyzers).
func extractCodecModel(pkg *Package) *codecModel {
	if pkg.Types == nil {
		return nil
	}
	scope := pkg.Types.Scope()
	tn, ok := scope.Lookup("ID").(*types.TypeName)
	if !ok {
		return nil
	}
	if _, isBasic := tn.Type().Underlying().(*types.Basic); !isBasic {
		return nil
	}
	m := &codecModel{pkg: pkg, idType: tn}
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), tn.Type()) {
			m.idConsts = append(m.idConsts, c)
		}
	}
	if len(m.idConsts) == 0 {
		return nil
	}
	return m
}

// findCodecModel locates the codec package in pkg's module-local view (or
// pkg itself) and extracts the model.
func findCodecModel(pkg *Package) *codecModel {
	if pathHasSuffix(pkg.Path, "internal/codec") {
		return extractCodecModel(pkg)
	}
	for _, p := range newIPAView(pkg).pkgs {
		if pathHasSuffix(p.Path, "internal/codec") {
			return extractCodecModel(p)
		}
	}
	return nil
}

func runCodecFlow(pass *Pass) {
	pkg := pass.Pkg
	if !pathHasSuffix(pkg.Path, "internal/codec", "internal/wire", "internal/serve", "internal/mpi", "internal/dist", "client") {
		return
	}
	model := findCodecModel(pkg)
	if model == nil {
		return
	}
	checkIDSwitches(pass, model)
}

// checkIDSwitches verifies every tagged switch over codec.ID is exhaustive
// over the declared constants or rejects unknowns.
func checkIDSwitches(pass *Pass, model *codecModel) {
	pkg := pass.Pkg
	info := pkg.Info
	inspectAll(pkg, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tagType := info.TypeOf(sw.Tag)
		if tagType == nil || !types.Identical(tagType, model.idType.Type()) {
			return true
		}
		caseObjs := make(map[types.Object]bool)
		hasDefault, emptyDefault := false, false
		for _, cl := range sw.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			if len(cc.List) == 0 {
				hasDefault = true
				emptyDefault = len(cc.Body) == 0
				continue
			}
			for _, e := range cc.List {
				if obj := constOf(info, e); obj != nil {
					caseObjs[obj] = true
				}
			}
		}
		if hasDefault && emptyDefault {
			pass.Reportf(sw.Pos(), "switch over codec.ID has an empty default: unknown codecs are silently ignored")
			return true
		}
		if hasDefault {
			return true
		}
		var missing []string
		for _, c := range model.idConsts {
			if !caseObjs[c] {
				missing = append(missing, c.Name())
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			pass.Reportf(sw.Pos(), "switch over codec.ID does not handle %s and has no rejecting default (new codecs fall through silently)", strings.Join(missing, ", "))
		}
		return true
	})
}
