package lint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
)

// The analysistest-style fixture suites: each analyzer must fire on every
// want-annotated line of its fixture and stay silent everywhere else
// (clean files and exempted packages are part of the same fixtures).
// DetFlow runs over two fixtures: detrand holds the direct uses of the
// global math/rand source and time.Now, detflow the transitive ones.

func TestFloatCompareFixture(t *testing.T)   { RunFixture(t, FloatCompare, "floatcompare") }
func TestNakedGoroutineFixture(t *testing.T) { RunFixture(t, NakedGoroutine, "nakedgoroutine") }
func TestErrWrapCheckFixture(t *testing.T)   { RunFixture(t, ErrWrapCheck, "errwrapcheck") }
func TestNoPanicFixture(t *testing.T)        { RunFixture(t, NoPanic, "nopanic") }
func TestDetRandFixture(t *testing.T)        { RunFixture(t, DetFlow, "detrand") }
func TestDetFlowFixture(t *testing.T)        { RunFixture(t, DetFlow, "detflow") }
func TestErrFlowFixture(t *testing.T)        { RunFixture(t, ErrFlow, "errflow") }
func TestUnitMixFixture(t *testing.T)        { RunFixture(t, UnitMix, "unitmix") }
func TestUnusedWriteFixture(t *testing.T)    { RunFixture(t, UnusedWrite, "unusedwrite") }
func TestAllocFlowFixture(t *testing.T)      { RunFixture(t, AllocFlow, "allocflow") }

// TestDirectives drives the suppression machinery (line, trailing, file
// and wildcard forms) plus the lintdirective findings for malformed
// directives, using floatcompare as the probe analyzer.
func TestDirectives(t *testing.T) { RunFixture(t, FloatCompare, "directives") }

var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

// repoModule loads the whole module once per test binary and shares it:
// loading shells out to `go list` and dominates a whole-module test, and a
// loaded Module may be run any number of times.
func repoModule(tb testing.TB) *Module {
	tb.Helper()
	repoOnce.Do(func() {
		repoMod, repoErr = LoadContext(context.Background(), nil, "../..", "./...")
	})
	if repoErr != nil {
		tb.Fatalf("loading module: %v", repoErr)
	}
	return repoMod
}

// TestRepoClean is the gate in test form: the full module must produce
// zero findings, the same bar `make lint` enforces in CI.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	mod := repoModule(t)
	if len(mod.Packages) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(mod.Packages))
	}
	for _, f := range mod.Run(All()) {
		t.Errorf("%s", f)
	}
}

// TestNoOrphanPackages holds the module free of dead packages: every
// repro/internal package must be imported by the non-test code of some
// other package in the module, or nothing outside its own tests runs it.
func TestNoOrphanPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	mod := repoModule(t)
	imported := make(map[string]bool)
	for _, p := range mod.Packages {
		for _, imp := range p.Imports {
			if imp != p.Path {
				imported[imp] = true
			}
		}
	}
	for _, p := range mod.Packages {
		if strings.HasPrefix(p.Path, "repro/internal/") && !imported[p.Path] {
			t.Errorf("%s has no non-test importer in the module", p.Path)
		}
	}
}

// testHooks are the non-test functions that only other packages' tests
// call. Each stays for the reason given; keep the list short.
var testHooks = map[string]string{
	"repro/internal/vmath.UsePortable":                 "core's, hees's and fleet's tests force the portable path to pin it against the vector kernels",
	"(*repro/internal/lint/callgraph.Graph).NodeOf":    "fuzz_test.go maps a fuzzed function declaration to its call-graph node",
	"(*repro/internal/lint/callgraph.Graph).NodeOfLit": "fuzz_test.go maps a fuzzed function literal to its call-graph node",
}

// stdIfaceMethods are the method names of standard-library interfaces
// that reach a method through an `any` parameter or a type assertion the
// loaded code never spells out (fmt, encoding/json, errors, flag, sort,
// container/heap, net/http, io).
var stdIfaceMethods = []string{
	"Error", "Unwrap", "Is", "As", "String", "GoString", "Format",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Set", "Get", "ServeHTTP", "Len", "Less", "Swap", "Push", "Pop",
	"Write", "Read",
}

// TestNoTestOnlyFuncs holds the module free of dead functions: every
// function and method declared in a non-test file under repro/internal
// must be referenced by some non-test file of the module or of the
// bench/ module, or nothing outside tests runs it. Imports are
// type-checked from export data, so objects are matched across packages
// by their full name. A method that shares its name with an interface
// method is exempt, since it may be called only through the interface.
func TestNoTestOnlyFuncs(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	mod := repoModule(t)
	bench, err := LoadContext(context.Background(), nil, "../../bench", "./...")
	if err != nil {
		t.Fatalf("loading bench module: %v", err)
	}
	pkgs := append(append([]*Package(nil), mod.Packages...), bench.Packages...)

	used := make(map[string]bool)
	ifaceMethods := make(map[string]bool)
	for _, name := range stdIfaceMethods {
		ifaceMethods[name] = true
	}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin().FullName()] = true
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}

	declared := make(map[string]bool)
	var dead []string
	for _, p := range mod.Packages {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() == "init" || fn.Name() == "_" {
				continue
			}
			if fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
				continue
			}
			name := fn.FullName()
			declared[name] = true
			if used[name] {
				continue
			}
			if _, hook := testHooks[name]; hook {
				continue
			}
			dead = append(dead, fmt.Sprintf("%s: %s has no caller outside tests", mod.Fset.Position(id.Pos()), name))
		}
	}
	for name := range testHooks {
		if used[name] || !declared[name] {
			t.Errorf("testHooks lists %s, which non-test code now calls or which no longer exists", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// TestParallelMatchesSequential is the scheduler-equivalence gate: the
// parallel DAG driver must produce byte-identical findings to the
// sequential reference driver over the whole module, at several worker
// counts, facts included.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	mod := repoModule(t)
	render := func(fs []Finding) string {
		var sb strings.Builder
		for _, f := range fs {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	want := render(mod.Run(All()))
	for _, workers := range []int{1, 2, 8} {
		got, err := mod.RunParallel(context.Background(), runner.New(runner.Workers(workers)), All())
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if g := render(got); g != want {
			t.Errorf("RunParallel(workers=%d) diverged from sequential Run:\nsequential:\n%sparallel:\n%s", workers, want, g)
		}
	}
}

// typecheckSrc builds a one-file package for driver unit tests.
func typecheckSrc(t *testing.T, path, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
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
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, []*ast.File{f}, pkg, info
}

// TestPartialFindingsDropped pins the crash-containment contract: when an
// analyzer's Run returns an error after emitting diagnostics, the partial
// diagnostics are dropped and replaced by a single failure finding that
// records the drop, so a crashing analyzer can neither masquerade as a
// clean pass nor as a complete one.
func TestPartialFindingsDropped(t *testing.T) {
	fset, files, pkg, info := typecheckSrc(t, "crash", "package crash\n\nfunc F() {}\n")
	crashing := &Analyzer{
		Name: "crashy",
		Doc:  "crashy\n\nreports then fails",
		Run: func(p *Pass) error {
			p.Reportf(files[0].Pos(), "partial finding that must be dropped")
			p.Reportf(files[0].Pos(), "second partial finding")
			return errors.New("boom")
		},
	}
	p := &Package{Path: pkg.Path(), Name: pkg.Name(), Files: files, Types: pkg, Info: info}
	got := analyzePackage(fset, p, []*Analyzer{crashing}, newFactStore())
	if len(got) != 1 {
		t.Fatalf("got %d findings, want exactly 1 failure marker: %v", len(got), got)
	}
	f := got[0]
	if f.Analyzer != "crashy" {
		t.Errorf("failure finding attributed to %q, want crashy", f.Analyzer)
	}
	if !strings.Contains(f.Message, "analyzer failed: boom") || !strings.Contains(f.Message, "dropped 2 partial finding(s)") {
		t.Errorf("failure message %q does not record the failure and the drop count", f.Message)
	}

	// An error with no prior diagnostics keeps the plain failure message.
	failing := &Analyzer{
		Name: "faily",
		Doc:  "faily\n\nfails without reporting",
		Run:  func(p *Pass) error { return errors.New("bang") },
	}
	got = analyzePackage(fset, p, []*Analyzer{failing}, newFactStore())
	if len(got) != 1 || strings.Contains(got[0].Message, "dropped") {
		t.Fatalf("failure without partials = %v, want a single marker without a drop note", got)
	}
}

// TestTrailingDirectiveMultiline drives suppressions.suppressed directly:
// a trailing //lint:ignore on the last line of a multi-line statement must
// cover the statement's first line, where the finding is positioned.
func TestTrailingDirectiveMultiline(t *testing.T) {
	src := `package p

func eq(a, b, c float64) bool {
	return a+c ==
		b //lint:ignore floatcompare reason: trailing on a multi-line statement
}

func other(a, b float64) bool {
	return a == b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sup, bad := collectDirectives(fset, []*ast.File{f}, knownCheckNames(nil))
	if len(bad) != 0 {
		t.Fatalf("unexpected directive findings: %v", bad)
	}
	// The == sits on line 4; the directive trails on line 5.
	if !sup.suppressed("floatcompare", token.Position{Filename: "p.go", Line: 4, Column: 13}) {
		t.Error("finding on the first line of the multi-line statement not suppressed by the trailing directive")
	}
	if sup.suppressed("floatcompare", token.Position{Filename: "p.go", Line: 9}) {
		t.Error("directive leaked onto an unrelated statement")
	}
}

// TestUnknownDirectiveNames pins satellite behavior: a typoed analyzer
// name in a directive is reported and the directive suppresses nothing.
func TestUnknownDirectiveNames(t *testing.T) {
	src := `package p

//lint:file-ignore floatcmp reason: typo must not silently disable the file
func eq(a, b float64) bool {
	return a == b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sup, bad := collectDirectives(fset, []*ast.File{f}, knownCheckNames(nil))
	if len(bad) != 1 || bad[0].Analyzer != "lintdirective" || !strings.Contains(bad[0].Message, `unknown analyzer "floatcmp"`) {
		t.Fatalf("bad = %v, want one lintdirective finding naming floatcmp", bad)
	}
	if sup.suppressed("floatcompare", token.Position{Filename: "p.go", Line: 5}) {
		t.Error("typoed file-ignore still suppressed floatcompare")
	}
}

// TestFactStoreRoundTrip pins the store lookups cross-package facts rely
// on: a stored fact reads back into a fresh struct of its type, and a
// lookup with a mismatched fact type misses instead of corrupting.
func TestFactStoreRoundTrip(t *testing.T) {
	store := newFactStore()
	key := factKey{analyzer: "detflow", pkg: "repro/internal/x", obj: "Jitter"}
	store.set(key, &NondetFact{Reason: "calls time.Now"})
	var nd NondetFact
	if !store.get(key, &nd) || nd.Reason != "calls time.Now" {
		t.Errorf("NondetFact did not read back: %+v", nd)
	}
	var uf UnitFact
	if store.get(key, &uf) {
		t.Error("get with mismatched fact type succeeded")
	}
}

// TestSARIFRoundTrip checks the -format=sarif output parses back as valid
// SARIF 2.1.0 with the findings intact.
func TestSARIFRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "floatcompare", Pos: token.Position{Filename: "internal/sim/sim.go", Line: 12, Column: 7}, Message: "floating-point comparison with =="},
		{Analyzer: "detflow", Pos: token.Position{Filename: "internal/core/otem.go", Line: 3, Column: 1}, Message: "call to nondeterministic Jitter"},
		{Analyzer: "crashy", Pos: token.Position{Filename: "repro/internal/x"}, Message: "analyzer failed: boom"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, All()); err != nil {
		t.Fatal(err)
	}

	// Round trip through the typed model.
	var log SARIFLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("$schema = %q does not pin 2.1.0", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "otem-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(findings))
	}
	for i, r := range run.Results {
		if r.RuleID != findings[i].Analyzer {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, findings[i].Analyzer)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) || run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %d ruleIndex %d does not resolve to rule %q", i, r.RuleIndex, r.RuleID)
		}
		if r.Message.Text != findings[i].Message {
			t.Errorf("result %d message = %q", i, r.Message.Text)
		}
	}
	// Positioned findings carry a region; the package-level failure marker
	// must not emit a zero startLine (SARIF regions are 1-based).
	if reg := run.Results[0].Locations[0].PhysicalLocation.Region; reg == nil || reg.StartLine != 12 || reg.StartColumn != 7 {
		t.Errorf("result 0 region = %+v, want 12:7", reg)
	}
	if reg := run.Results[2].Locations[0].PhysicalLocation.Region; reg != nil {
		t.Errorf("package-scoped finding emitted a region: %+v", reg)
	}
	// Every registered analyzer appears in the rules table.
	ids := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, a := range All() {
		if !ids[a.Name] {
			t.Errorf("rules table missing analyzer %s", a.Name)
		}
	}

	// And a second decode through a generic map to prove required SARIF
	// properties are spelled exactly as the schema wants.
	var generic map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"$schema", "version", "runs"} {
		if _, ok := generic[key]; !ok {
			t.Errorf("top-level SARIF property %q missing", key)
		}
	}
}

// TestLoadContextParallel loads a multi-package fixture tree on a wide
// worker pool and checks the result matches a one-worker load:
// package set, order and import edges (the race detector rides along in
// `make race`).
func TestLoadContextParallel(t *testing.T) {
	patterns := []string{
		"./testdata/src/detflow/helpers", "./testdata/src/detflow/internal/sim",
		"./testdata/src/errflow", "./testdata/src/errflow/dep",
		"./testdata/src/unitmix", "./testdata/src/unitmix/uts",
	}
	seqMod, err := LoadContext(context.Background(), runner.New(runner.Workers(1)), "", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	parMod, err := LoadContext(context.Background(), runner.New(runner.Workers(8)), "", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	paths := func(m *Module) []string {
		var out []string
		for _, p := range m.Packages {
			out = append(out, p.Path)
		}
		return out
	}
	if !reflect.DeepEqual(paths(seqMod), paths(parMod)) {
		t.Errorf("package order diverged: %v vs %v", paths(seqMod), paths(parMod))
	}
	for i, p := range parMod.Packages {
		if !reflect.DeepEqual(p.Imports, seqMod.Packages[i].Imports) {
			t.Errorf("%s imports diverged: %v vs %v", p.Path, p.Imports, seqMod.Packages[i].Imports)
		}
	}
	// Dependencies must precede dependents.
	seen := make(map[string]bool)
	for _, p := range parMod.Packages {
		for _, dep := range p.Imports {
			if !seen[dep] {
				t.Errorf("package %s appears before its dependency %s", p.Path, dep)
			}
		}
		seen[p.Path] = true
	}
}

// TestModuleWaves checks the DAG partitioning the parallel driver
// schedules over packages in dependency order, as LoadContext returns
// them: dependencies always land in strictly earlier waves.
func TestModuleWaves(t *testing.T) {
	mk := func(path string, deps ...string) *Package { return &Package{Path: path, Imports: deps} }
	pkgs := []*Package{
		mk("m/a"),
		mk("m/b", "m/a"),
		mk("m/c", "m/a", "m/b"),
		mk("m/d"),
		mk("m/e", "m/c", "m/d"),
	}
	mod := &Module{Packages: pkgs}
	waves := mod.waves()
	level := make(map[string]int)
	for i, wave := range waves {
		for _, p := range wave {
			level[p.Path] = i
		}
	}
	wantLevels := map[string]int{"m/a": 0, "m/d": 0, "m/b": 1, "m/c": 2, "m/e": 3}
	if !reflect.DeepEqual(level, wantLevels) {
		t.Errorf("waves = %v, want %v", level, wantLevels)
	}
	for _, p := range pkgs {
		for _, dep := range p.Imports {
			if level[dep] >= level[p.Path] {
				t.Errorf("%s (wave %d) does not precede dependent %s (wave %d)", dep, level[dep], p.Path, level[p.Path])
			}
		}
	}
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   []verbUse
	}{
		{"plain", nil},
		{"%d", []verbUse{{'d', 0}}},
		{"%v %w", []verbUse{{'v', 0}, {'w', 1}}},
		{"100%% done: %s", []verbUse{{'s', 0}}},
		{"%+v", []verbUse{{'v', 0}}},
		{"%.3f", []verbUse{{'f', 0}}},
		{"%*d %v", []verbUse{{'d', 1}, {'v', 2}}},
		{"%[2]s %[1]v", []verbUse{{'s', 1}, {'v', 0}}},
		{"%", nil},
		{"%[", nil},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}
