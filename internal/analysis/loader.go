package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package: the unit every
// analyzer runs over. Type checking is best-effort — a package with type
// errors still carries its syntax trees and whatever type information could
// be computed, so analyzers degrade gracefully instead of going blind.
type Package struct {
	Path   string // import path, e.g. soifft/internal/fft
	Dir    string // absolute directory
	Module string // module path of the loader that produced the package
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	// TypeErrors holds every error the type checker reported for this
	// package (not for its dependencies). Analyzers still run, but on
	// degraded type information: soilint and TestRepoIsClean fail on any.
	TypeErrors []error
	// Deps maps the import paths of this package's module-local imports to
	// their loaded packages. Because ImportFrom routes module-local imports
	// through the same loader during type checking, every dependency's
	// syntax trees and type info are already cached when Check returns —
	// Deps just exposes that link, which is what lets closeflow's function
	// summaries resolve *types.Func objects to bodies across package
	// boundaries with consistent pointer identity (one shared fset, one
	// loader).
	Deps map[string]*Package
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-local imports resolve against the module root,
// everything else goes through the source importer (GOROOT). Results are
// cached per import path, so loading ./... type-checks each package once.
type Loader struct {
	Root   string // absolute module root (directory containing go.mod)
	Module string // module path from go.mod
	// Overlay maps absolute file names to the source to parse in place of
	// the file on disk (the catch matrix's seeded defects). Set it before
	// the first load.
	Overlay map[string][]byte

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle guard
}

// NewLoader creates a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Root:    abs,
		Module:  mod,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set; positions in every loaded
// package resolve against it.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// importPathFor maps an absolute directory under the module root to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path to its absolute directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// LoadDir parses and type-checks the package in dir (non-test files only).
// A syntax error in any file fails the whole load; type errors do not — they
// are collected into Package.TypeErrors.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		filename := filepath.Join(dir, name)
		var src any // nil: read the file
		if b, ok := l.Overlay[filename]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Dir: dir, Module: l.Module, Fset: l.fset}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// Check never aborts the load: with conf.Error set it reports every
	// error and still returns a (partial) package, which is exactly the
	// degrade-don't-die behavior we want.
	tpkg, _ := conf.Check(path, l.fset, files, info)
	pkg.Files = files
	pkg.Types = tpkg
	pkg.Info = info
	pkg.Deps = make(map[string]*Package)
	if tpkg != nil {
		for _, imp := range tpkg.Imports() {
			if dp, ok := l.pkgs[imp.Path()]; ok {
				pkg.Deps[imp.Path()] = dp
			}
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// goSources lists the non-test .go files of dir that the host's go build
// would compile — file-name suffixes and //go:build lines decided by
// go/build for the default GOOS/GOARCH — sorted.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages load
// through this loader (source parsed from the module tree), everything else
// resolves from GOROOT via the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Expand resolves package patterns ("./...", "./internal/fft", "internal/fft")
// to package directories, relative to the module root. The recursive form
// walks the tree, skipping testdata, vendor, hidden and underscore
// directories, and keeps only directories that contain Go files.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "" {
			pat = ""
		}
		base := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if srcs, err := goSources(p); err == nil && len(srcs) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadPatterns expands the patterns and loads every matched package,
// returning them in directory order. The first load failure aborts.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		p, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
