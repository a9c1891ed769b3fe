package golint

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

// ModuleRoot walks up from dir (or the working directory when dir is
// empty) to the enclosing go.mod and returns its directory and module
// path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	if dir == "" {
		dir, err = os.Getwd()
		if err != nil {
			return "", "", err
		}
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("golint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("golint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// ListPackages enumerates every package directory of the module that
// holds non-test Go files, as import paths (the ./... of the driver).
// Like the go command, it stops at nested modules: a subdirectory with
// its own go.mod belongs to that module, not this one.
func ListPackages(root, modPath string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		if path != root && hasGoMod(ents) {
			return filepath.SkipDir
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, modPath)
				} else {
					paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// hasGoMod reports whether a directory listing contains a go.mod file.
func hasGoMod(ents []os.DirEntry) bool {
	for _, e := range ents {
		if !e.IsDir() && e.Name() == "go.mod" {
			return true
		}
	}
	return false
}

// LoadPackages parses and type-checks the given import paths of the
// module rooted at root. Test files are excluded: the invariants the
// analyzers encode are production-path properties.
func LoadPackages(root, modPath string, importPaths []string) ([]*Package, error) {
	fset := token.NewFileSet()
	// The source importer type-checks dependency packages from source on
	// demand, so intra-module imports resolve without compiled export
	// data.
	imp := importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, ip := range importPaths {
		dir := root
		if ip != modPath {
			rel, ok := strings.CutPrefix(ip, modPath+"/")
			if !ok {
				return nil, fmt.Errorf("golint: import path %q outside module %q", ip, modPath)
			}
			dir = filepath.Join(root, filepath.FromSlash(rel))
		}

		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("golint: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}

		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(ip, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("golint: type-checking %s: %w", ip, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  ip,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}
