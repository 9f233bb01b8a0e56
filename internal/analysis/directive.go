package analysis

import (
	"go/token"
	"strings"
)

// One grammar serves every soilint comment directive:
//
//	//soilint:<verb> <word> <word> ...
//
// in a line or block comment, with optional space after the comment marker.
// What the words mean is the verb's business — the suppressions in
// analysis.go (ignore, file-ignore) and chanlife's channel contracts (chan)
// — but where a directive applies is
// the same for all of them: to its own line and the line directly below, so
// it may trail the code it governs or sit on its own line above it.

// directive is one parsed soilint comment.
type directive struct {
	args []string
	pos  token.Pos
	used bool // set by the analyzer that honours it; chan directives left unused are findings
}

// parseDirective splits a comment's text into a directive's verb and
// argument words; ok is false for any other comment. The verb ends at the
// first blank, so "soilint:ignored x" has the verb "ignored", not "ignore".
func parseDirective(text string) (verb string, args []string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "soilint:")
	if !ok {
		return "", nil, false
	}
	words := strings.Fields(rest)
	if len(words) == 0 || rest[0] == ' ' || rest[0] == '\t' {
		return "", nil, false
	}
	return words[0], words[1:], true
}

// splitList splits a comma-separated word ("closeflow,chanlife") into its
// non-empty items.
func splitList(word string) []string {
	var items []string
	for _, s := range strings.Split(word, ",") {
		if s = strings.TrimSpace(s); s != "" {
			items = append(items, s)
		}
	}
	return items
}

// directiveIndex holds one package's directives of one verb by file and line.
type directiveIndex struct {
	fset   *token.FileSet
	byLine map[string]map[int]*directive
	all    []*directive
}

// collectDirectives indexes pkg's directives with the given verb. Those
// whose arguments wellFormed rejects (nil accepts all) are left out of the
// index and their positions returned.
func collectDirectives(pkg *Package, verb string, wellFormed func(args []string) bool) (x *directiveIndex, malformed []token.Pos) {
	x = &directiveIndex{fset: pkg.Fset, byLine: make(map[string]map[int]*directive)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				v, args, ok := parseDirective(c.Text)
				if !ok || v != verb {
					continue
				}
				if wellFormed != nil && !wellFormed(args) {
					malformed = append(malformed, c.Pos())
					continue
				}
				d := &directive{args: args, pos: c.Pos()}
				x.all = append(x.all, d)
				at := pkg.Fset.Position(c.Pos())
				if x.byLine[at.Filename] == nil {
					x.byLine[at.Filename] = make(map[int]*directive)
				}
				x.byLine[at.Filename][at.Line] = d
			}
		}
	}
	return x, malformed
}

// covering returns the directives that apply to a line: the one on it and
// the one on the line above, either of which may be nil.
func (x *directiveIndex) covering(file string, line int) [2]*directive {
	return [2]*directive{x.byLine[file][line], x.byLine[file][line-1]}
}

// at returns the nearest directive that applies to pos, or nil.
func (x *directiveIndex) at(pos token.Pos) *directive {
	p := x.fset.Position(pos)
	c := x.covering(p.Filename, p.Line)
	if c[0] != nil {
		return c[0]
	}
	return c[1]
}
