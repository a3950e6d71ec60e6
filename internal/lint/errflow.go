package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/ir"
)

// NilErrorFact marks a function whose error result is provably always nil:
// every return statement supplies a value the SSA value flow proves nil —
// a literal nil, a variable that only ever held nil (through branches and
// zero-valued declarations), or the result of another always-nil function.
// Call sites in dependent packages may then discard the error without a
// finding — the fact carries the proof across the package boundary.
type NilErrorFact struct{}

// AFact marks NilErrorFact as a Fact.
func (*NilErrorFact) AFact() {}

func (*NilErrorFact) String() string { return "always returns a nil error" }

// ErrFlow is the errcheck of this module: an error returned by an
// otem/internal API and dropped on the floor is a silent failure — exactly
// the class of bug the facade's sentinel errors and the runner's
// first-error propagation exist to prevent.
//
// Two finding shapes, both over the shared SSA IR:
//
//   - A call whose result set includes an error may not appear as a bare
//     expression statement (or a bare defer/go call).
//   - An error assigned to a local variable — directly or through tuple
//     assignment — must be observed before it dies or is overwritten;
//     a never-read error definition is the same silent drop with an
//     extra step.
//
// Assigning the error to a struct field counts as handling it: the
// field's consumers own it from there. Explicit discards (`_ =`, blank
// tuple positions) are reviewed decisions and stay legal. Calls to
// functions carrying a NilErrorFact are exempt, so plumbing helpers that
// structurally cannot fail do not force busywork at every call site.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: `forbid discarding errors returned by module APIs

A bare call statement f(x) whose callee returns an error silently drops
failures the caller was meant to see (otem sentinel errors, solver
failures, I/O); so does err := f(x) when no path ever reads err again.
Assign and handle the error, discard it explicitly with "_ =" if the
context justifies it, or suppress with //lint:ignore errflow <reason>.
Functions proven always-nil through the value flow (every return's error
position only ever holds nil) are exported as facts and exempt.`,
	Run: runErrFlow,
}

func runErrFlow(pass *Pass) error {
	// Pass 1: prove always-nil error returns for this package's functions
	// (fixpoint over same-package calls, facts for dependencies). The
	// proof follows values: `var err error` stays nil until something
	// can assign non-nil to it, across branches and joins.
	type retInfo struct {
		fd        *ast.FuncDecl
		errPos    []int // indices of error results
		returns   []*ast.ReturnStmt
		alwaysNil bool
	}
	infos := make(map[*types.Func]*retInfo)
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
			sig := obj.Type().(*types.Signature)
			ri := &retInfo{fd: fd}
			for i := 0; i < sig.Results().Len(); i++ {
				if implementsError(sig.Results().At(i).Type()) {
					ri.errPos = append(ri.errPos, i)
				}
			}
			if len(ri.errPos) == 0 {
				continue
			}
			collectReturns(fd.Body, &ri.returns)
			infos[obj] = ri
			order = append(order, obj)
		}
	}

	isAlwaysNil := func(fn *types.Func) bool {
		if ri, ok := infos[fn]; ok {
			return ri.alwaysNil
		}
		var fact NilErrorFact
		return fn.Pkg() != pass.Pkg && pass.ImportObjectFact(fn, &fact)
	}
	prover := &nilProver{
		pass:        pass,
		isAlwaysNil: isAlwaysNil,
		busy:        make(map[ir.Value]bool),
		busyCell:    make(map[*ir.Cell]bool),
	}

	// provablyNil reports whether every error-position expression of every
	// return statement is provably nil given the current fixpoint state.
	provablyNil := func(ri *retInfo) bool {
		if len(ri.returns) == 0 {
			return false // e.g. ends in panic or infinite loop: stay conservative
		}
		irf := pass.FuncIR(ri.fd)
		for _, r := range ri.returns {
			if len(r.Results) == 0 {
				// Naked return: the named error results must be provably
				// nil at this point; their reaching values are recorded by
				// the IR as observed-at-return, but position-precise
				// resolution needs the result objects.
				if !prover.namedResultsNil(irf, ri.fd, r) {
					return false
				}
				continue
			}
			if len(r.Results) == 1 && len(ri.errPos) >= 1 && ri.errPos[0] != 0 {
				// return f() forwarding a tuple: the single expression
				// stands for all results; require an always-nil callee.
				if !prover.expr(irf, r.Results[0]) {
					return false
				}
				continue
			}
			for _, i := range ri.errPos {
				if i >= len(r.Results) || !prover.expr(irf, r.Results[i]) {
					return false
				}
			}
		}
		return true
	}
	// Proofs run bottom-up over the call graph's SCC condensation: a
	// function's proof consults only its static callees (return f(),
	// tuple assignments), and those live in earlier components — already
	// settled — or in this one, which iterates to its own fixpoint. The
	// result is the same least fixpoint the old whole-package rounds
	// converged to, reached in one sweep.
	for _, scc := range pass.CallGraph().SCCs() {
		for again := true; again; {
			again = false
			for _, node := range scc {
				if node.Decl == nil {
					continue
				}
				ri := infos[node.Fn]
				if ri == nil || ri.alwaysNil {
					continue
				}
				if provablyNil(ri) {
					ri.alwaysNil = true
					again = true
				}
			}
		}
	}
	for _, fn := range order {
		if infos[fn].alwaysNil {
			pass.ExportObjectFact(fn, &NilErrorFact{})
		}
	}

	// Pass 2: flag bare call statements discarding a module-API error.
	report := func(call *ast.CallExpr, how string) {
		callee := staticCallee(pass.TypesInfo, call)
		if callee == nil || !moduleAPI(callee.Pkg()) {
			return
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok || !returnsError(tv.Type) {
			return
		}
		if isAlwaysNil(callee) {
			return
		}
		pass.Reportf(call.Pos(), "error returned by %s.%s is discarded%s; assign and handle it (or discard explicitly with _ =)", callee.Pkg().Path(), callee.Name(), how)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(call, "")
				}
			case *ast.DeferStmt:
				report(n.Call, " by defer")
			case *ast.GoStmt:
				report(n.Call, " by go")
			}
			return true
		})
	}

	// Pass 3: flag error definitions no path ever observes — the value
	// dies or is overwritten unread. The observed set already closes over
	// phi chains and treats named results as read at every return, so
	// `if err != nil`, `return err`, `_ = err` and naked returns all count
	// as handling.
	for _, fn := range order {
		reportDeadErrorStores(pass, infos[fn].fd, isAlwaysNil)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				if _, done := infos[obj]; done {
					continue // already scanned above
				}
			}
			reportDeadErrorStores(pass, fd, isAlwaysNil)
		}
	}
	return nil
}

// reportDeadErrorStores files a finding for every unobserved definition of
// an error-typed local whose value came from a fallible module-API call.
func reportDeadErrorStores(pass *Pass, fd *ast.FuncDecl, isAlwaysNil func(*types.Func) bool) {
	irf := pass.FuncIR(fd)
	if irf == nil {
		return
	}
	for _, d := range irf.Defs() {
		if irf.Observed(d) || !implementsError(d.V.Type()) {
			continue
		}
		var call *ast.CallExpr
		if d.Rhs != nil {
			call, _ = ast.Unparen(d.Rhs).(*ast.CallExpr)
		} else if as, ok := d.Stmt.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			// Tuple assignment v, err := f().
			call, _ = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		}
		if call == nil {
			continue
		}
		callee := staticCallee(pass.TypesInfo, call)
		if callee == nil || !moduleAPI(callee.Pkg()) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok || !returnsError(tv.Type) || isAlwaysNil(callee) {
			continue
		}
		pass.Reportf(d.Ident.Pos(), "error assigned to %s from %s.%s is never checked; handle it or discard explicitly with _ =", d.Ident.Name, callee.Pkg().Path(), callee.Name())
	}
}

// nilProver decides "this expression is provably nil here" over the SSA
// value flow, falling back to cell summaries for address-taken locals.
type nilProver struct {
	pass        *Pass
	isAlwaysNil func(*types.Func) bool
	busy        map[ir.Value]bool
	busyCell    map[*ir.Cell]bool
}

func (p *nilProver) expr(fn *ir.Func, e ast.Expr) bool {
	e = ast.Unparen(e)
	if isNilExpr(p.pass.TypesInfo, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		if fn != nil {
			if v, ok := p.pass.TypesInfo.Uses[id].(*types.Var); ok {
				if fn.Tracked(v) {
					if val := fn.ValueAt(id); val != nil {
						return p.value(fn, val)
					}
					return false
				}
				if c := fn.Cell(v); c != nil {
					return p.cellNil(fn, c)
				}
			}
		}
		return false
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if callee := staticCallee(p.pass.TypesInfo, call); callee != nil {
			return p.isAlwaysNil(callee)
		}
	}
	return false
}

// value reports whether SSA value v can only ever be nil.
func (p *nilProver) value(fn *ir.Func, v ir.Value) bool {
	if p.busy[v] {
		// Phi cycle: if every entry into the cycle proves nil, the values
		// circulating inside it can only be nil too, so the back edge does
		// not break the proof (greatest-fixpoint reading).
		return true
	}
	p.busy[v] = true
	defer delete(p.busy, v)
	switch v := v.(type) {
	case *ir.Param:
		// A named result starts at its zero value; a parameter is
		// whatever the caller passed.
		return v.Result && nilZero(v.V.Type())
	case *ir.Phi:
		for _, e := range v.Edges {
			if e == nil {
				continue // unreachable predecessor
			}
			if !p.value(fn, e) {
				return false
			}
		}
		return true
	case *ir.Def:
		switch v.Kind {
		case ir.DefDecl:
			if v.Rhs == nil {
				return nilZero(v.V.Type()) // var err error
			}
			return p.expr(fn, v.Rhs)
		case ir.DefAssign:
			if v.Tok != token.ASSIGN && v.Tok != token.DEFINE {
				return false // op-assign cannot produce nil interfaces
			}
			if v.Rhs != nil {
				return p.expr(fn, v.Rhs)
			}
			// Tuple assignment: nil iff the callee's error results are.
			if as, ok := v.Stmt.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					if callee := staticCallee(p.pass.TypesInfo, call); callee != nil {
						return implementsError(v.V.Type()) && p.isAlwaysNil(callee)
					}
				}
			}
		}
		return false
	}
	return false // Unknown
}

// cellNil proves an address-taken local always-nil: this is a must-claim,
// so the cell may not have escaped (unseen code could store anything
// through the leaked address) and every recorded store — direct or
// through a may-aliasing pointer — must itself prove nil. Stores the
// summary does not model (tuple positions, op-assigns, range variables)
// defeat the proof. Cycles through self-referential stores read
// optimistically nil, the same greatest-fixpoint treatment phi cycles
// get: if every acyclic store proves nil, the circulating value is nil.
func (p *nilProver) cellNil(fn *ir.Func, c *ir.Cell) bool {
	if c.Escaped {
		return false
	}
	if p.busyCell[c] {
		return true
	}
	p.busyCell[c] = true
	defer delete(p.busyCell, c)
	for _, s := range c.Stores {
		switch {
		case s.Zero:
			if !nilZero(c.V.Type()) {
				return false
			}
		case s.Tuple, s.Rhs == nil:
			return false
		default:
			if !p.expr(fn, s.Rhs) {
				return false
			}
		}
	}
	return len(c.Stores) > 0
}

// namedResultsNil reports whether, at a naked return, every error-typed
// named result provably holds nil.
func (p *nilProver) namedResultsNil(fn *ir.Func, fd *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	if fn == nil {
		return false
	}
	obj, ok := p.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		rv := sig.Results().At(i)
		if !implementsError(rv.Type()) {
			continue
		}
		if rv.Name() == "" || !fn.Tracked(rv) {
			return false
		}
		val, ok := fn.ReachingAt(ret, rv)
		if !ok || !p.value(fn, val) {
			return false
		}
	}
	return true
}

// collectReturns gathers the return statements of a function body without
// descending into nested function literals (whose returns belong to the
// literal, not the declaration).
func collectReturns(body *ast.BlockStmt, out *[]*ast.ReturnStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			*out = append(*out, n)
		}
		return true
	})
}

// returnsError reports whether a call-expression type (single value or
// tuple) includes an error.
func returnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if implementsError(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return implementsError(t)
}

// nilZero reports whether t's zero value is nil.
func nilZero(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// moduleAPI reports whether pkg is part of this module (the otem facade,
// the internal packages, the commands) as opposed to the standard library:
// the errflow contract covers the module's own APIs, where dropped errors
// are silent simulation failures.
func moduleAPI(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "repro" || strings.HasPrefix(path, "repro/")
}
