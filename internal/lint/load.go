package lint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/runner"
)

// Package is one type-checked target package.
type Package struct {
	// Path is the import path (e.g. "repro/internal/sim").
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the sources.
	Dir string
	// GoFiles are the non-test source files, absolute paths.
	GoFiles []string
	// Files are the parsed GoFiles, in the same order.
	Files []*ast.File
	// Imports are the import paths of the other *target* packages this
	// one depends on (directly), the edges of the analysis DAG.
	Imports []string
	// Types and Info are the type-checker outputs.
	Types *types.Package
	// Info holds the type-checker's per-expression results.
	Info *types.Info
}

// Module is a loaded set of target packages sharing one FileSet.
type Module struct {
	Fset     *token.FileSet
	Packages []*Package
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// LoadContext lists the packages matching patterns (relative to dir, ""
// meaning the current directory), then parses and type-checks every
// non-test file of the matched packages. Dependencies — including
// in-module ones — are resolved from compiled export data, so a
// whole-module load costs one `go list -export -deps` plus a source
// type-check of only the targets.
//
// Test files are deliberately excluded: the lint gate covers production
// code, and table-driven tests legitimately use constructs (exact float
// literals, ad-hoc goroutines) the analyzers forbid elsewhere.
//
// Packages come back in the order `go list -deps` prints them, a
// depth-first post-order: every package appears after all of its
// in-module dependencies. That ordering is what lets the sequential
// driver propagate facts in a single pass and the parallel driver
// schedule the DAG in waves. An import cycle is a package error of
// `go list`, which LoadContext returns.
//
// The per-package parse + type-check jobs — independent of one another
// because in-module dependencies resolve from compiled export data, not
// source — run on the given worker pool (nil selects the default
// GOMAXPROCS-bounded pool), and ctx cancels them. The result is the same
// at any worker count.
func LoadContext(ctx context.Context, pool *runner.Pool, dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, used in place of source.
	exports := make(map[string]string)
	targetSet := make(map[string]bool)
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
			targetSet[p.ImportPath] = true
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	// The gc importer caches internally but is not safe for concurrent
	// Import calls; one lock shared by every type-check job keeps package
	// identity unified across the whole module.
	var importMu sync.Mutex
	lockedImport := func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		importMu.Lock()
		defer importMu.Unlock()
		return gc.Import(path)
	}

	checked, err := runner.Map(ctx, pool, len(targets), func(ctx context.Context, i int) (*Package, error) {
		t := targets[i]
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the offline loader does not support", t.ImportPath)
		}
		pkg := &Package{Path: t.ImportPath, Name: t.Name, Dir: t.Dir}
		for _, dep := range t.Imports {
			if targetSet[dep] {
				pkg.Imports = append(pkg.Imports, dep)
			}
		}
		for _, name := range t.GoFiles {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			full := filepath.Join(t.Dir, name)
			f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", full, err)
			}
			pkg.GoFiles = append(pkg.GoFiles, full)
			pkg.Files = append(pkg.Files, f)
		}
		if len(pkg.Files) == 0 {
			return nil, nil
		}
		cfg := &types.Config{
			Importer: importerFunc(lockedImport),
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
		}
		if t.Module != nil && t.Module.GoVersion != "" {
			cfg.GoVersion = "go" + t.Module.GoVersion
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := cfg.Check(t.ImportPath, fset, pkg.Files, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", t.ImportPath, err)
		}
		pkg.Types = tpkg
		return pkg, nil
	})
	if err != nil {
		return nil, err
	}

	mod := &Module{Fset: fset}
	for _, pkg := range checked {
		if pkg != nil {
			mod.Packages = append(mod.Packages, pkg)
		}
	}
	return mod, nil
}

// goList shells out to `go list -export -deps -json`. The go tool is the
// one piece of build machinery the driver leans on; everything downstream
// is stdlib go/parser + go/types.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
