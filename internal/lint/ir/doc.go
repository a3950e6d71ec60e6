// Package ir is the value-flow intermediate representation behind the
// SSA-based otem-lint analyzers (detflow, errflow, unusedwrite) and the
// call graph allocflow, detflow and errflow walk.
//
// It is deliberately small and stdlib-only, like the rest of
// repro/internal/lint: the module builds offline with zero third-party
// dependencies, so golang.org/x/tools/go/ssa and go/cfg are off the
// table. What the analyzers actually need is much less than full
// instruction-level SSA — they need to know, for every *use* of a local
// variable, which *definitions* can reach it. Package ir answers exactly
// that question:
//
//   - Build constructs a per-function control-flow graph over the
//     unmodified go/ast statements (if/for/range/switch/select, labels,
//     goto, break/continue, fallthrough), with the convention that a
//     block ending in a condition expression has Succs[0] as its true
//     edge and Succs[1] as its false edge.
//   - Dominators are computed with the Cooper–Harvey–Kennedy iterative
//     algorithm over a reverse postorder, and dominance frontiers follow
//     in the standard way.
//   - SSA form is built at variable granularity: every assignment to a
//     trackable local (parameter, named result, := / = / op= target,
//     range variable) becomes a Def value, phi values are inserted at
//     the iterated dominance frontier of the definition sites, and a
//     renaming walk over the dominator tree maps every use identifier
//     to the Value reaching it. Variables whose address is taken, that
//     are captured by a closure, or that receive an implicit &x through
//     a pointer-receiver method call are excluded from tracking — every
//     use of such a variable resolves to an Unknown value, which keeps
//     the analyses sound at the cost of precision.
//
// The representation is per-function and immutable once built; the lint
// driver builds it lazily through Pass.FuncIR and shares one copy across
// every analyzer of a package.
package ir
