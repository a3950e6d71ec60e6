package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/ir"
)

// Analyzer describes one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer (Name, Doc, Run(*Pass),
// FactTypes) so the analyzers can migrate to the real framework wholesale
// if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:ignore
	// directives. It must look like a Go identifier.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest explains the rule and the sanctioned fix.
	Doc string
	// Run applies the analyzer to one package and reports findings via
	// pass.Report / pass.Reportf.
	Run func(*Pass) error
	// FactTypes lists the fact types this analyzer exports and imports
	// (pointers to zero values). Declaring them lets the drivers register
	// the types for vetx serialization and route stored facts back to the
	// analyzer when dependent packages are analyzed.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's syntax and type information to an analyzer,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos in Files to file positions.
	Fset *token.FileSet
	// Files are the parsed non-test Go files of the package.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)

	// facts is the driver-wide fact store; nil in a Pass built without a
	// driver (all fact operations become no-ops / misses).
	facts *factStore
	// irs caches the per-function SSA/CFG intermediate representation.
	// The driver shares one cache across every analyzer of a package, so
	// detflow, errflow, nilness and unusedwrite all reason over the same
	// IR and each function is lowered exactly once.
	irs *irCache
	// cg caches the package call graph (repro/internal/lint/callgraph),
	// shared like irs so the graph and its SCC condensation are built at
	// most once per package per driver run.
	cg *cgCache
}

// FuncIR returns the value-flow IR (CFG + dominators + SSA, see
// repro/internal/lint/ir) for one function declaration of this package,
// building it on first request and caching it for every later analyzer of
// the same driver run. It returns nil for declarations without a body.
func (p *Pass) FuncIR(fd *ast.FuncDecl) *ir.Func {
	if fd == nil || fd.Body == nil {
		return nil
	}
	if p.irs == nil {
		// Driverless Pass (unit tests): build uncached.
		return ir.Build(p.TypesInfo, fd)
	}
	return p.irs.get(p.TypesInfo, fd)
}

// CallGraph returns the package's call graph (static calls, SSA-resolved
// function values, package-local CHA for interface dispatch — see
// repro/internal/lint/callgraph), built on first request and cached for
// every later analyzer of the same driver run. Function-value resolution
// reuses the shared IR cache, so requesting the graph also warms FuncIR.
func (p *Pass) CallGraph() *callgraph.Graph {
	if p.cg == nil {
		// Driverless Pass (unit tests): build uncached.
		return callgraph.Build(p.TypesInfo, p.Files, p.FuncIR)
	}
	return p.cg.get(p)
}

// cgCache is the per-package call-graph store shared across analyzers.
type cgCache struct {
	mu sync.Mutex
	g  *callgraph.Graph
}

func (c *cgCache) get(p *Pass) *callgraph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		c.g = callgraph.Build(p.TypesInfo, p.Files, p.FuncIR)
		c.g.SCCs() // condense under the lock: SCCs caches without synchronisation
	}
	return c.g
}

// irCache is the per-package IR store shared across analyzers.
type irCache struct {
	mu    sync.Mutex
	funcs map[*ast.FuncDecl]*ir.Func
}

func newIRCache() *irCache {
	return &irCache{funcs: make(map[*ast.FuncDecl]*ir.Func)}
}

func (c *irCache) get(info *types.Info, fd *ast.FuncDecl) *ir.Func {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.funcs[fd]; ok {
		return f
	}
	f := ir.Build(info, fd)
	c.funcs[fd] = f
	return f
}

// Reportf reports a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact records a fact about obj, visible to this analyzer when
// any dependent package is analyzed later in the same run (or, on the
// `go vet -vettool` path, in a later compilation unit via vetx files).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	p.facts.set(factKey{analyzer: p.Analyzer.Name, pkg: obj.Pkg().Path(), obj: objectKey(obj)}, fact)
}

// ImportObjectFact copies the fact this analyzer previously exported about
// obj into fact (a pointer of the matching concrete type) and reports
// whether one was found. obj may belong to any package — typically a
// dependency resolved through export data.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.get(factKey{analyzer: p.Analyzer.Name, pkg: obj.Pkg().Path(), obj: objectKey(obj)}, fact)
}

// Diagnostic is one finding, mirroring analysis.Diagnostic.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled in by the driver.
	Analyzer string
}

// errorType is the predeclared error interface, shared by analyzers that
// need to ask whether a type implements error.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// enclosingFuncName returns the name of the innermost FuncDecl in stack
// (an ancestor chain as maintained by inspectWithStack), or "" when the
// node is not inside a function declaration (e.g. a var initializer).
// Function literals are attributed to the declaration they appear in.
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// inspectWithStack walks every file of the pass in source order, calling
// visit with each node and the stack of its ancestors (outermost first,
// not including the node itself).
func inspectWithStack(pass *Pass, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			visit(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
