// Package analysis is spinnaker-lint: a stdlib-only static-analysis
// driver plus the four repo-specific analyzers that machine-check the
// codebase's hard-won invariants (see ARCHITECTURE.md "Invariants"):
//
//   - detcheck  — determinism lint for the simulation/fault planes (PR 2:
//     replayable FaultSeed runs need seed-pure code).
//   - aliascheck — the zero-copy aliasing contract on the replication
//     codec and the WAL's pooled encode scratch (PR 5).
//   - lockcheck — annotation-driven lock discipline: //spinnaker:locked
//     obligations, lock-ordering pairs, and "never hold this lock across
//     blob I/O or channel sends" (PR 4).
//   - hotpath   — allocation hygiene for //spinnaker:hotpath functions,
//     the static complement to BENCHMARK.json's allocs_per_op bound
//     (PR 5).
//
// The loader below is deliberately dependency-free: module-internal
// import paths are resolved against the module root by this package
// itself, and everything else (the standard library) goes through the
// go/importer "source" importer, so the whole module type-checks with
// zero external tooling.
package analysis

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

// Package is one loaded, parsed, type-checked package.
type Package struct {
	// Path is the import path ("spinnaker/internal/core").
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir string
	// Files are the parsed non-test Go files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries identifier resolution and expression types.
	Info *types.Info
}

// Module is a loaded module: every package reachable by walking the
// module root, parsed and type-checked against a shared FileSet.
type Module struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// ModPath is the module path from go.mod.
	ModPath string
	// Fset positions every file in the module.
	Fset *token.FileSet
	// Packages maps import path → package, for every loaded package.
	Packages map[string]*Package
}

// Pkgs returns the loaded packages sorted by import path.
func (m *Module) Pkgs() []*Package {
	out := make([]*Package, 0, len(m.Packages))
	for _, p := range m.Packages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LoadModule walks root (a directory containing go.mod), parses every
// non-test Go file, and type-checks each package. Test files are
// excluded by design: the analyzers enforce contracts on shipped code,
// and test harnesses legitimately use wall-clock timeouts the
// determinism lint would otherwise flag.
//
// dirs, when non-empty, restricts loading to those directories
// (relative to root or absolute); their module-internal imports are
// still loaded as needed.
func LoadModule(root string, dirs ...string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:     root,
		ModPath:  modPath,
		Fset:     token.NewFileSet(),
		Packages: map[string]*Package{},
	}
	want := dirs
	if len(want) == 0 {
		if want, err = goDirs(root); err != nil {
			return nil, err
		}
	}
	ld := &loader{
		mod:     m,
		std:     importer.ForCompiler(m.Fset, "source", nil),
		checked: map[string]*types.Package{},
	}
	for _, d := range want {
		if !filepath.IsAbs(d) {
			d = filepath.Join(root, d)
		}
		rel, err := filepath.Rel(root, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module root %s", d, root)
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := ld.load(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadDir loads a single directory as a standalone package (used for
// fixture corpora under testdata/, which the go tool ignores). The
// directory's imports must be resolvable: module-internal paths against
// root, the rest from the standard library.
func LoadDir(root, dir string) (*Module, *Package, error) {
	m, err := LoadModule(root, dir)
	if err != nil {
		return nil, nil, err
	}
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(m.Root, dir) // m.Root is root, absolutized
	}
	for _, p := range m.Packages {
		if p.Dir == abs {
			return m, p, nil
		}
	}
	return nil, nil, fmt.Errorf("analysis: no package loaded from %s", dir)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w (spinnaker-lint must run inside the module)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// goDirs lists every directory under root holding at least one non-test
// Go file, skipping testdata (fixture corpora), hidden directories, and
// vendor.
func goDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e.Name()) {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	return out, err
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// loader resolves and type-checks packages: module-internal paths from
// source against the module root, everything else via the stdlib source
// importer.
type loader struct {
	mod     *Module
	std     types.Importer
	checked map[string]*types.Package // module-internal, by import path
	stack   []string                  // cycle detection
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == ld.mod.ModPath || strings.HasPrefix(path, ld.mod.ModPath+"/") {
		return ld.load(path)
	}
	if from, ok := ld.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return ld.std.Import(path)
}

// load parses and type-checks one module-internal package (memoized).
func (ld *loader) load(path string) (*types.Package, error) {
	if tp, ok := ld.checked[path]; ok {
		return tp, nil
	}
	for _, on := range ld.stack {
		if on == path {
			return nil, fmt.Errorf("analysis: import cycle: %s", strings.Join(append(ld.stack, path), " -> "))
		}
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.mod.ModPath), "/")
	dir := filepath.Join(ld.mod.Root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %q: %w", path, err)
	}
	var names []string
	for _, e := range ents {
		if isSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: import %q: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: ld}
	tp, err := conf.Check(path, ld.mod.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	ld.checked[path] = tp
	ld.mod.Packages[path] = &Package{Path: path, Dir: dir, Files: files, Types: tp, Info: info}
	return tp, nil
}
