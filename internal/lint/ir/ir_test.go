package ir

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildSrc type-checks one file and returns the IR of every declared
// function by name.
func buildSrc(t *testing.T, src string) (map[string]*Func, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	out := make(map[string]*Func)
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			f := Build(info, fd)
			if f == nil {
				t.Fatalf("Build(%s) = nil", fd.Name.Name)
			}
			if err := Sanity(f); err != nil {
				t.Fatalf("Sanity(%s): %v", fd.Name.Name, err)
			}
			out[fd.Name.Name] = f
		}
	}
	return out, info, fset
}

// useValue finds the value at the nth use of identifier name (0-based).
func useValue(t *testing.T, f *Func, name string, nth int) Value {
	t.Helper()
	var found []Value
	ast.Inspect(f.Decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if v := f.ValueAt(id); v != nil {
				found = append(found, v)
			}
		}
		return true
	})
	if nth >= len(found) {
		t.Fatalf("only %d tracked uses of %q, want index %d", len(found), name, nth)
	}
	return found[nth]
}

func TestCFGIfDiamond(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}
`)
	f := fs["f"]
	// entry, if.then, if.done, if.else = 4 blocks, all reachable.
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d (%v), want 4", len(f.Blocks), f.Blocks)
	}
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			t.Errorf("%s unreachable", b)
		}
	}
	// The merge block holds exactly one phi for x, with two edges.
	var merge *Block
	for _, b := range f.Blocks {
		if len(b.Phis) > 0 {
			merge = b
		}
	}
	if merge == nil || len(merge.Phis) != 1 {
		t.Fatalf("no single-phi merge block found")
	}
	phi := merge.Phis[0]
	if phi.V.Name() != "x" || len(phi.Edges) != 2 {
		t.Fatalf("phi = %s with %d edges", phi, len(phi.Edges))
	}
	for _, e := range phi.Edges {
		d, ok := e.(*Def)
		if !ok {
			t.Fatalf("phi edge %v is not a Def", e)
		}
		if lit, ok := d.Rhs.(*ast.BasicLit); !ok || (lit.Value != "2" && lit.Value != "3") {
			t.Errorf("phi edge def rhs = %v, want literal 2 or 3", d.Rhs)
		}
	}
	// The use of x in `return x` resolves to the phi.
	if v := useValue(t, f, "x", 0); v != phi {
		t.Errorf("return x resolves to %v, want %v", v, phi)
	}
	// The initial x := 1 is never observed (overwritten on both arms).
	var first *Def
	for _, d := range f.Defs() {
		if lit, ok := d.Rhs.(*ast.BasicLit); ok && lit.Value == "1" {
			first = d
		}
	}
	if first == nil {
		t.Fatal("def x := 1 not found")
	}
	if f.Observed(first) {
		t.Error("x := 1 reported observed; both branches overwrite it")
	}
}

func TestCFGLoopPhi(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func sum(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`)
	f := fs["sum"]
	// The loop head merges i and s from entry and the back edge.
	var loop *Block
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Comment, "for.loop") {
			loop = b
		}
	}
	if loop == nil {
		t.Fatal("no for.loop block")
	}
	if len(loop.Phis) != 2 {
		t.Fatalf("loop phis = %d, want 2 (i and s)", len(loop.Phis))
	}
	// Branch convention: loop has two successors, last node is the cond.
	if len(loop.Succs) != 2 {
		t.Fatalf("loop succs = %d, want 2", len(loop.Succs))
	}
	if _, ok := loop.Nodes[len(loop.Nodes)-1].(ast.Expr); !ok {
		t.Error("loop block does not end in its condition expression")
	}
	// Every def is observed (s feeds the return through phis, i the cond).
	for _, d := range f.Defs() {
		if !f.Observed(d) {
			t.Errorf("%s not observed", d)
		}
	}
}

func TestUntrackedAddressTakenAndCaptured(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func f() (int, int, int) {
	a := 1
	p := &a
	_ = p
	b := 2
	g := func() int { return b }
	c := 3
	c = c + 1
	return a, g(), c
}
`)
	f := fs["f"]
	// a: address taken; b: captured. Both untracked.
	if v := useValue(t, f, "c", 0); v == nil {
		t.Fatal("c should be tracked")
	}
	for _, d := range f.Defs() {
		if d.V.Name() == "a" || d.V.Name() == "b" {
			t.Errorf("untracked variable %s has a Def", d.V.Name())
		}
	}
}

func TestRangeSwitchGotoBuild(t *testing.T) {
	// A grab bag of control flow that must build and pass Sanity (the
	// buildSrc helper checks it for every function).
	fs, _, _ := buildSrc(t, `package p
func f(xs []int, m map[string]int) int {
	total := 0
	for i, x := range xs {
		if x < 0 {
			continue
		}
		total += i * x
	}
L:
	for k, v := range m {
		switch {
		case v > 10:
			break L
		case v > 5:
			total += v
			fallthrough
		default:
			total += len(k)
		}
	}
	i := 0
loop:
	if i < 3 {
		i++
		goto loop
	}
	select {
	default:
		total += i
	}
	return total
}
`)
	f := fs["f"]
	reach := 0
	for _, b := range f.Blocks {
		if f.Reachable(b) {
			reach++
		}
	}
	if reach < 10 {
		t.Errorf("only %d reachable blocks; the control flow looks collapsed", reach)
	}
}

func TestNamedResultsObservedAtReturn(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func f() (err error) {
	err = nil
	return
}
func g() (n int) {
	n = 3
	return 5
}
`)
	for _, name := range []string{"f", "g"} {
		f := fs[name]
		for _, d := range f.Defs() {
			if !f.Observed(d) {
				t.Errorf("%s: named-result def %s not observed at return", name, d)
			}
		}
	}
}

func TestBranchConventionTrueFalse(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func f(p *int) int {
	if p == nil {
		return 0
	}
	return *p
}
`)
	f := fs["f"]
	entry := f.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(entry.Succs))
	}
	cond, ok := entry.Nodes[len(entry.Nodes)-1].(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		t.Fatalf("entry does not end in the == condition")
	}
	// Succs[0] (true) holds `return 0`; Succs[1] (false) holds `return *p`.
	hasReturnValue := func(b *Block, want string) bool {
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 {
				if l, ok := r.Results[0].(*ast.BasicLit); ok {
					return l.Value == want
				}
				if _, ok := r.Results[0].(*ast.StarExpr); ok {
					return want == "*"
				}
			}
		}
		return false
	}
	if !hasReturnValue(entry.Succs[0], "0") {
		t.Errorf("Succs[0] (true edge) does not return 0: %v", entry.Succs[0].Nodes)
	}
	if !hasReturnValue(entry.Succs[1], "*") {
		t.Errorf("Succs[1] (false edge) does not return *p: %v", entry.Succs[1].Nodes)
	}
}

func TestDeadStoreAfterUse(t *testing.T) {
	fs, _, _ := buildSrc(t, `package p
func f() int {
	x := 1
	y := x + 1
	x = 99
	return y
}
`)
	f := fs["f"]
	var dead []*Def
	for _, d := range f.Defs() {
		if !f.Observed(d) {
			dead = append(dead, d)
		}
	}
	if len(dead) != 1 || dead[0].V.Name() != "x" {
		t.Fatalf("dead defs = %v, want exactly x = 99", dead)
	}
	if lit, ok := dead[0].Rhs.(*ast.BasicLit); !ok || lit.Value != "99" {
		t.Errorf("dead def rhs = %v, want 99", dead[0].Rhs)
	}
}

func TestBuildNilForBodylessDecl(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", "package p\n\nfunc external()\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	if Build(&types.Info{}, fd) != nil {
		t.Error("Build on a bodyless declaration should return nil")
	}
}

func ExampleBuild() {
	src := `package p
func abs(x int) int {
	if x < 0 {
		x = -x
	}
	return x
}
`
	fset := token.NewFileSet()
	file, _ := parser.ParseFile(fset, "p.go", src, 0)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
		fmt.Println("typecheck:", err)
		return
	}
	f := Build(info, file.Decls[0].(*ast.FuncDecl))
	fmt.Println("blocks:", len(f.Blocks), "phis:", len(f.Phis()))
	// Output: blocks: 3 phis: 1
}
