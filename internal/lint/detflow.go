package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// NondetFact marks a function as (transitively) nondeterministic: its body
// reaches the global math/rand source or time.Now through some chain of
// static calls, tainted function values, or draws from tainted
// generators. The fact is exported on the function object, so dependent
// packages learn about nondeterminism buried arbitrarily deep in their
// dependencies without re-analyzing them.
type NondetFact struct {
	// Reason is the human-readable call chain, e.g.
	// "calls helpers.Jitter (which calls time.Now)".
	Reason string
}

// AFact marks NondetFact as a Fact.
func (*NondetFact) AFact() {}

func (f *NondetFact) String() string { return f.Reason }

// DetFlow forbids nondeterminism sources in the deterministic packages.
//
// Replaying a route must be bit-identical regardless of worker count or
// wall clock: the golden-file experiments, the fleet's parallel-identity
// test and the plan cache depend on it. Inside the deterministic scope
// (detScopes) the global math/rand source and time.Now are banned;
// randomness must arrive as a seeded *rand.Rand and time as plant/step
// state. A direct use is reported where it is written. But determinism
// is a whole-program property of *values*, not call sites, so DetFlow
// also tracks it two ways, both over the shared SSA IR
// (internal/lint/ir):
//
//   - Call-graph closure: every package exports a NondetFact
//     for each function that reaches the global math/rand source or
//     time.Now, and the deterministic packages report calls to marked
//     functions.
//   - Value flow: nondeterminism is a property carried by values. A
//     *rand.Rand seeded from a constant or a SplitMix64-mixed vehicle
//     index is clean wherever it flows — through locals, struct fields
//     and branch joins. A handle on the global source or the wall clock
//     is tainted even when laundered through a struct field, a closure,
//     or a function-typed variable; stores export TaintFacts so the
//     laundering may cross package boundaries. Calls through tainted
//     function values and draws from tainted generators are reported.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: `forbid global math/rand and time.Now, direct or transitive, in deterministic packages

A function in a deterministic package (internal/sim, internal/mpc,
internal/policy, internal/fleet, internal/hmpc, internal/hees,
internal/battery, internal/core, internal/optimize and internal/vmath)
must be replayable: identical seeds and inputs give identical traces
whether the batch runs on 1 worker or 8. It must not use — directly, at
any depth, across packages, or laundered through struct fields, closures
and function values — the global math/rand source (shared mutable state
across goroutines) or time.Now (the wall clock leaking into physics).
detflow reports the direct uses, propagates "reaches nondeterminism"
facts along the package DAG and tracks tainted values through the
SSA-based value-flow IR, flagging the call sites that import them. A
*rand.Rand seeded from a constant or a per-vehicle SplitMix64 hash is
deterministic and passes wherever it flows. Thread a seeded *rand.Rand
(or simulated time) down the call chain instead.`,
	Run:       runDetFlow,
	FactTypes: []Fact{(*NondetFact)(nil), (*TaintFact)(nil)},
}

func runDetFlow(pass *Pass) error {
	// Function-level state: reason a declared function is nondeterministic
	// to call, "" while (still) believed clean.
	type funcInfo struct {
		reason string
	}
	infos := make(map[*types.Func]*funcInfo)
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[obj] = &funcInfo{}
			decls[obj] = fd
			order = append(order, obj)
		}
	}

	funcReason := func(fn *types.Func) string {
		if fi, ok := infos[fn]; ok {
			return fi.reason
		}
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			var fact NondetFact
			if pass.ImportObjectFact(fn, &fact) {
				return fact.Reason
			}
		}
		return ""
	}
	eng := newTaintEngine(pass, funcReason)

	// summarize decides whether one function's body performs
	// nondeterminism, updating its funcInfo; reports whether the reason
	// was newly set.
	summarize := func(obj *types.Func) bool {
		fi := infos[obj]
		if fi == nil || fi.reason != "" {
			return false
		}
		fd := decls[obj]
		irf := pass.FuncIR(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fi.reason != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if r := eng.callEffect(irf, call); r != "" {
					fi.reason = r
					return false
				}
			}
			return true
		})
		return fi.reason != ""
	}

	// Function summaries are computed bottom-up over the call graph's SCC
	// condensation: when a function is summarized, its (acyclic) callees
	// already are, so most functions settle in a single visit. Members of
	// one component can reach each other, so each component iterates to
	// its own fixpoint. The outer loop re-runs only when stored-value
	// taint grows (a summarized constructor stores a wall-clock handle
	// into a field, making the field's readers nondeterministic — which
	// the summaries must observe). Reasons only transition empty->set and
	// objTaint only grows, so the whole loop terminates without a round
	// bound; memos are dropped whenever either set changed, because a
	// cached "clean" may be stale.
	sccs := pass.CallGraph().SCCs()
	for {
		changed := false
		eng.resetMemos()
		for _, scc := range sccs {
			for again := true; again; {
				again = false
				for _, node := range scc {
					if node.Decl == nil {
						continue // literals are summarized at their use sites
					}
					if summarize(node.Fn) {
						again, changed = true, true
						eng.resetMemos()
					}
				}
				if again && len(scc) == 1 {
					break // a singleton's reason cannot improve further
				}
			}
		}
		// Stores into fields and package-level vars, in function bodies
		// and in package-level initializers.
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fd.Body == nil {
						continue
					}
					if eng.scanStores(pass.FuncIR(fd), fd.Body) {
						changed = true
					}
					continue
				}
				if eng.scanStores(nil, decl) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Export facts so dependents see through this package.
	for _, obj := range order {
		if fi := infos[obj]; fi.reason != "" {
			pass.ExportObjectFact(obj, &NondetFact{Reason: fi.reason})
		}
	}
	for obj, reason := range eng.objTaint {
		pass.ExportObjectFact(obj, &TaintFact{Reason: reason})
	}

	// Inside the deterministic scope, report every direct use of a banned
	// function and every call that launders nondeterminism.
	if !inDetScope(pass.Pkg.Path()) {
		return nil
	}
	eng.resetMemos()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			var irf *ir.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				irf = pass.FuncIR(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					reportDirectNondet(pass, n)
				case *ast.CallExpr:
					reportNondetCall(pass, eng, irf, n, funcReason)
				}
				return true
			})
		}
	}
	return nil
}

// reportDirectNondet files the finding for a direct use of the global
// math/rand source or time.Now, called or taken as a value. Methods on
// *rand.Rand are the sanctioned replacement and pass.
func reportDirectNondet(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || directNondetReason(fn) == "" {
		return
	}
	if fn.Pkg().Path() == "time" {
		pass.Reportf(sel.Pos(), "time.Now in deterministic package %s; derive time from simulated step state instead", pass.Pkg.Path())
		return
	}
	pass.Reportf(sel.Pos(), "global math/rand source (%s.%s) in deterministic package %s; thread a seeded *rand.Rand instead", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
}

// reportNondetCall files the detflow finding for one call site in a
// deterministic package, if any. Three shapes:
//
//   - a static call to a function known (locally or by fact) to reach
//     nondeterminism;
//   - a method call on a receiver whose value derives from the global
//     source or the wall clock (a smuggled generator handle);
//   - a call through a nondeterministic function value (a laundered
//     rand.Float64, a wall-clock closure, a tainted field of function
//     type).
func reportNondetCall(pass *Pass, eng *taintEngine, fn *ir.Func, call *ast.CallExpr, funcReason func(*types.Func) string) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	callee := staticCallee(pass.TypesInfo, call)
	if callee != nil {
		if directNondetReason(callee) != "" {
			return // reportDirectNondet reports direct uses
		}
		if r := funcReason(callee); r != "" {
			pass.Reportf(call.Pos(), "call to nondeterministic %s in deterministic package %s: %s %s; thread a seeded *rand.Rand or simulated time instead", callee.Name(), pass.Pkg.Path(), callee.Name(), r)
			return
		}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if r := eng.expr(fn, sel.X); r != "" {
					pass.Reportf(call.Pos(), "call to %s on a nondeterministically derived receiver in deterministic package %s: receiver %s; thread a seeded *rand.Rand or simulated time instead", callee.Name(), pass.Pkg.Path(), r)
				}
			}
		}
		return
	}
	if r := eng.expr(fn, call.Fun); r != "" {
		pass.Reportf(call.Pos(), "call through nondeterministic function value in deterministic package %s: value %s; thread a seeded *rand.Rand or simulated time instead", pass.Pkg.Path(), r)
	}
}

// staticCallee resolves a call expression to the *types.Func it invokes
// statically (plain call or method call on a concrete receiver), or nil
// for builtins, conversions, function values and interface dispatch.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// directNondetReason reports why calling fn is nondeterministic by itself:
// it is one of the banned package-level math/rand functions or time.Now.
func directNondetReason(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "" // methods on *rand.Rand are the sanctioned replacement
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return fmt.Sprintf("calls %s.%s", fn.Pkg().Path(), fn.Name())
		}
	case "time":
		if fn.Name() == "Now" {
			return "calls time.Now"
		}
	}
	return ""
}

// detScopes are the package-path suffixes where determinism is a tested
// invariant: the 1-vs-8-worker sweep-determinism test requires the
// physics (sim), the controller (mpc) and the policy layer to be pure
// functions of their seeds and inputs, the fleet simulator promises
// bit-identical sketches at any worker count, and the hierarchical
// planner's outer plans are cache keys (POST /v1/plan) — the same spec
// must solve to the same plan forever. The storage kernels (hees,
// battery) carry the batched rollout's bit-identity contract: the
// lockstep bus solver and the prepared battery step must reproduce the
// scalar path exactly, which no wall-clock or global-source draw may
// perturb. The controller and its solver (core, optimize) and the vector
// math kernels (vmath) carry the speculative line search's contract: the
// lockstep rollout lanes and the batched trials must give the same plan,
// bit for bit, as one trial at a time.
var detScopes = []string{
	"internal/sim", "internal/mpc", "internal/policy", "internal/fleet",
	"internal/hmpc", "internal/hees", "internal/battery",
	"internal/core", "internal/optimize", "internal/vmath",
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. rand.New / rand.NewSource construct seeded,
// injectable generators and stay legal.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 additions, same hazard.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true,
}

func inDetScope(path string) bool {
	for _, s := range detScopes {
		if path == "repro/"+s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}
