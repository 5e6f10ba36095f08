package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path within the module
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks the packages matched by patterns, relative
// to dir (which must sit inside a Go module). Supported patterns are the
// subset the driver needs: a directory path, or a path ending in /...
// for a recursive walk. Test files are skipped — bpvet vets production
// code — and, like the go tool, the walk ignores testdata, vendor and
// hidden directories.
//
// Type-checking uses only the standard library: module-internal imports
// are resolved by loading the imported package recursively; everything
// else is handed to go/importer's source importer.
func Load(dir string, patterns []string) ([]*Package, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	dirs, err := expandPatterns(absDir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		pkg, err := ld.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("vet: no go.mod above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves the driver's package patterns to directories.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			start := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != start && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.Join(base, filepath.FromSlash(p))
		if !hasGoFiles(d) {
			return nil, fmt.Errorf("vet: no Go files in %s", d)
		}
		add(d)
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loader memoizes per-directory loads and doubles as the types.Importer
// for module-internal import paths.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string // module import path
	std     types.Importer
	pkgs    map[string]*Package // keyed by directory
	loading map[string]bool     // cycle detection
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("vet: no Go files in package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir. Returns (nil, nil)
// when the directory holds no non-test Go files.
func (l *loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("vet: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	importPath := l.modPath
	if rel != "." {
		importPath += "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Fset:  l.fset,
		Path:  importPath,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}
