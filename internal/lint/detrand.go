package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// detrandScopes are the package-path suffixes where determinism is a
// tested invariant: the 1-vs-8-worker sweep-determinism test requires the
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
var detrandScopes = []string{
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

// DetRand forbids nondeterminism sources in the deterministic core.
//
// Replaying a route must be bit-identical regardless of worker count or
// wall clock: the golden-file experiments and the sweep-determinism test
// depend on it. Inside internal/sim, internal/mpc and internal/policy the
// global math/rand source and time.Now are therefore banned; randomness
// must arrive as a seeded *rand.Rand and time as plant/step state.
// internal/fleet joins the scope: its parallel-identity test promises
// bit-identical sketches at any worker count, so every draw must come
// from the per-vehicle seeded generator. internal/hmpc joins too: its
// outer plans are golden-pinned and served from a canonical-spec-keyed
// cache, which is only sound if planning is a pure function of the spec.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: `forbid global math/rand and time.Now in deterministic packages

internal/sim, internal/mpc, internal/policy, internal/fleet,
internal/hmpc, internal/hees, internal/battery, internal/core,
internal/optimize and internal/vmath must be replayable:
identical seeds and inputs give identical traces whether the batch runs
on 1 worker or 8. The global math/rand source is shared mutable state
across goroutines, and time.Now leaks the wall clock into physics. Use a
seeded *rand.Rand threaded through the call (rand.New(rand.NewSource(s)))
and simulated time from the plant state.`,
	Run: runDetRand,
}

func runDetRand(pass *Pass) error {
	if !inDetrandScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods on *rand.Rand have
			// a receiver and are the sanctioned replacement.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "global math/rand source (%s.%s) in deterministic package %s; thread a seeded *rand.Rand instead", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
				}
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(sel.Pos(), "time.Now in deterministic package %s; derive time from simulated step state instead", pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

func inDetrandScope(path string) bool {
	for _, s := range detrandScopes {
		if path == "repro/"+s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}
