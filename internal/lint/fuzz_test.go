package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/ir"
)

// FuzzCollectDirectives hammers the //lint: directive parser with
// arbitrary directive bodies and checks its invariants: it never panics,
// every rejected directive surfaces as a lintdirective finding, and —
// the property the suppression audit rests on — no unknown analyzer name
// ever makes it into the suppression tables.
func FuzzCollectDirectives(f *testing.F) {
	seeds := []string{
		"ignore floatcompare reason text",
		"file-ignore all whole file is exempt",
		"ignore floatcompare,detflow two checks one reason",
		"ignore floatcmp typoed name",
		"ignore",
		"ignore floatcompare",
		"frobnicate floatcompare nope",
		"",
		"  ",
		"ignore all",
		"file-ignore nopanic \t tabs and   runs of spaces",
		"ignore floatcompare,,errflow empty element",
		"ignore ,floatcompare leading comma",
		"ignore ALL case matters",
		"ignore floatcompare nbsp reason",
		"hotpath warm MPC solve",
		"coldpath amortized buffer growth",
		"hotpath",
		"coldpath",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	known := knownCheckNames(nil)
	f.Fuzz(func(t *testing.T, body string) {
		// Keep the comment a single line so the fuzz input stays inside
		// the //lint: comment instead of becoming arbitrary source.
		body = strings.NewReplacer("\n", " ", "\r", " ").Replace(body)
		src := fmt.Sprintf("package p\n\n//lint:%s\nfunc F() {}\n", body)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // e.g. the body smuggled in a BOM or control char the scanner rejects
		}
		sup, bad := collectDirectives(fset, []*ast.File{file}, known)

		for _, f := range bad {
			if f.Analyzer != "lintdirective" {
				t.Errorf("directive finding attributed to %q, want lintdirective: %s", f.Analyzer, f)
			}
			if f.Pos.Filename != "fuzz.go" {
				t.Errorf("directive finding positioned in %q", f.Pos.Filename)
			}
		}
		for _, set := range sup.file {
			for name := range set {
				if !known[name] {
					t.Errorf("unknown name %q registered as file suppression", name)
				}
			}
		}
		for _, byLine := range sup.line {
			for _, set := range byLine {
				for name := range set {
					if !known[name] {
						t.Errorf("unknown name %q registered as line suppression", name)
					}
				}
			}
		}
		// A directive either registers suppressions or is reported —
		// well-formed ignores must not vanish silently.
		fields := strings.Fields(body)
		if len(fields) >= 3 && (fields[0] == "ignore" || fields[0] == "file-ignore") {
			allKnown := true
			for _, n := range strings.Split(fields[1], ",") {
				if !known[n] {
					allKnown = false
				}
			}
			if allKnown && len(bad) != 0 {
				t.Errorf("well-formed directive %q reported: %v", body, bad)
			}
			if allKnown && len(sup.file) == 0 && len(sup.line) == 0 {
				t.Errorf("well-formed directive %q registered no suppression", body)
			}
			if !allKnown && len(bad) == 0 {
				t.Errorf("directive %q with unknown names produced no finding", body)
			}
		}
		// hotpath/coldpath annotations never suppress; a missing reason
		// is the only thing reported about them.
		if len(fields) >= 1 && (fields[0] == "hotpath" || fields[0] == "coldpath") {
			if len(sup.file) != 0 || len(sup.line) != 0 {
				t.Errorf("annotation %q registered a suppression", body)
			}
			if len(fields) >= 2 && len(bad) != 0 {
				t.Errorf("well-formed annotation %q reported: %v", body, bad)
			}
			if len(fields) < 2 && len(bad) == 0 {
				t.Errorf("reasonless annotation %q produced no finding", body)
			}
		}
	})
}

// FuzzCallGraph hammers the call-graph builder and its SCC condensation
// with arbitrary single-package programs and checks the structural
// invariants every client leans on: it never panics, each node is
// exactly one of declaration or literal, every edge resolves to a local
// callee, an external function or a declared-dynamic residue, and the
// SCC order is bottom-up (a static callee never lands in a later
// component than its caller).
func FuzzCallGraph(f *testing.F) {
	seeds := []string{
		`func a() { b() }
func b() {}`,
		`func a() { a() }`,
		`func a() { b() }
func b() { a() }`,
		`type T int
func (t T) m() int { return int(t) }
func use(t T) int { return t.m() }`,
		`func pick(fast bool) func() int {
	f := one
	if fast {
		f = two
	}
	return f
}
func one() int { return 1 }
func two() int { return 2 }`,
		`func run() int {
	f := func() int { return inner() }
	return f()
}
func inner() int { return 3 }`,
		`func iife() int {
	return func(x int) int { return x + 1 }(41)
}`,
		`type i interface{ m() }
type a struct{}
func (a) m() {}
func call(v i) { v.m() }`,
		`func convs(x int) float64 { return float64(x) }`,
		`func builtins(xs []int) int { return len(xs) + cap(xs) }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\n\n" + body
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		// No importer: programs that import anything skip, keeping the
		// corpus on call shapes rather than dependency resolution.
		conf := &types.Config{Error: func(error) {}}
		if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
			t.Skip()
		}
		irs := make(map[*ast.FuncDecl]*ir.Func)
		irFor := func(fd *ast.FuncDecl) *ir.Func {
			if fn, ok := irs[fd]; ok {
				return fn
			}
			fn := ir.Build(info, fd)
			irs[fd] = fn
			return fn
		}
		g := callgraph.Build(info, []*ast.File{file}, irFor)

		index := make(map[*callgraph.Node]int)
		count := 0
		for i, scc := range g.SCCs() {
			if len(scc) == 0 {
				t.Fatalf("empty SCC at position %d", i)
			}
			for _, n := range scc {
				if _, dup := index[n]; dup {
					t.Fatalf("node %s appears in two SCCs", n.Name())
				}
				index[n] = i
				count++
			}
		}
		if count != len(g.Nodes) {
			t.Fatalf("SCCs cover %d nodes, graph has %d", count, len(g.Nodes))
		}
		for _, n := range g.Nodes {
			if (n.Decl == nil) == (n.Lit == nil) {
				t.Fatalf("node %s: want exactly one of Decl/Lit", n.Name())
			}
			if n.Decl != nil && g.NodeOf(n.Fn) != n {
				t.Fatalf("NodeOf does not round-trip %s", n.Name())
			}
			for _, e := range n.Out {
				if e.Callee == nil && e.External == nil && !e.Dynamic {
					t.Fatalf("%s: edge with no callee, no external and not dynamic", n.Name())
				}
				if e.Callee != nil && index[e.Callee] > index[n] {
					t.Fatalf("%s: callee %s in a later SCC — order is not bottom-up", n.Name(), e.Callee.Name())
				}
			}
		}
	})
}
