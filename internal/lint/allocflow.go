package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/callgraph"
)

// AllocFact marks a function that may allocate on some non-failing path:
// its body contains an allocating construct (make, new, append, map
// write, closure creation, interface boxing, go/defer, string
// concatenation) or it calls — transitively, through static edges — a
// function that does. The fact is exported on the function object so the
// hot-path gate in dependent packages sees allocation buried arbitrarily
// deep in module dependencies without re-analyzing them. Absence of the
// fact on a module function means "proven allocation-free" (under the
// analysis' documented exemptions), which is what lets cross-package hot
// paths stay enforceable.
type AllocFact struct {
	// Reason is the human-readable chain, e.g.
	// "calls optimize.Workspace.ensure (which makes a slice)".
	Reason string
}

// AFact marks AllocFact as a Fact.
func (*AllocFact) AFact() {}

func (f *AllocFact) String() string { return f.Reason }

// AllocFlow is the compile-time version of the allocs/step budget that
// internal/core's TestDriveCycleAllocBudget counts at run time: functions reachable from a `//lint:hotpath <reason>` root must
// be provably allocation-free, transitively.
//
// The analysis computes a per-function allocation summary bottom-up over
// the package call graph's SCC condensation, exports AllocFacts for
// may-allocating functions, and then walks the hot region — every
// function reachable from a hotpath-annotated declaration through static
// local edges — reporting each allocation site and each call whose callee
// carries an (imported or local) AllocFact.
//
// Exemptions, all deliberate policy:
//
//   - Failing returns: allocations inside a return statement that also
//     returns a non-nil error (return nil, fmt.Errorf(...)) are error-path
//     work, cold by definition.
//   - panic arguments: the program is already dying.
//   - `//lint:coldpath <reason>` on a declaration: a reviewed amortized
//     or setup path (buffer growth, first-call initialization); the walk
//     stops there and no fact is exported for it.
//   - Dynamic dispatch: calls through unresolved function values and
//     interface methods are not followed (implementations outside the
//     package are invisible; local CHA candidates may be cold
//     implementations). The indirection itself does not allocate; callees
//     that should be allocation-free need their own hotpath roots.
//   - Stdlib: calls into a small allowlist (math, math/bits, errors.Is,
//     sort.Search) are trusted allocation-free; any other stdlib call on
//     a hot path is reported as may-allocate at the call site.
var AllocFlow = &Analyzer{
	Name: "allocflow",
	Doc: `forbid allocation in functions reachable from //lint:hotpath roots

A function annotated //lint:hotpath <reason> runs at embedded rates (the
warm MPC solve, the fleet vehicle-step loop); it and everything it
reaches through static calls must be allocation-free: no make, new,
append, map writes, closure creation, interface boxing of non-pointer
values, go/defer, or string concatenation, and no calls to functions
whose exported AllocFact says they may allocate. Allocations on failing
returns and in panic arguments are exempt (error paths are cold), and
//lint:coldpath <reason> marks a reviewed amortized path the gate stops
at. Hoist buffers into warm workspaces instead of allocating per step.`,
	Run: runAllocFlow,
}

// allocSite is one may-allocating construct (or suspect external call)
// in a function body, already filtered through the exemptions.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocInfo is the per-function local analysis: its allocation sites and
// the call expressions the exemptions silence (so summary propagation
// and the hot-region walk skip the same edges).
type allocInfo struct {
	sites  []allocSite
	exempt map[*ast.CallExpr]bool
}

func runAllocFlow(pass *Pass) error {
	g := pass.CallGraph()

	infos := make(map[*callgraph.Node]*allocInfo, len(g.Nodes))
	cold := make(map[*callgraph.Node]bool)
	for _, n := range g.Nodes {
		if n.Decl != nil {
			if _, ok := lintAnnotation(n.Decl, "coldpath"); ok {
				cold[n] = true
			}
		}
		infos[n] = collectAllocInfo(pass, n)
	}

	// Bottom-up summaries: a function may allocate if it has a local site
	// or reaches one through a static edge. Reasons only transition
	// empty->set, so the per-component loop terminates.
	reason := make(map[*callgraph.Node]string)
	summarize := func(n *callgraph.Node) string {
		info := infos[n]
		if len(info.sites) > 0 {
			return info.sites[0].what
		}
		for _, e := range n.Out {
			callee := e.Callee
			if callee == nil || e.CHA {
				continue
			}
			if e.Site != nil && info.exempt[e.Site] {
				continue
			}
			if cold[callee] {
				continue
			}
			if r := reason[callee]; r != "" {
				return fmt.Sprintf("calls %s (which %s)", callee.Name(), r)
			}
		}
		return ""
	}
	for _, scc := range g.SCCs() {
		for again := true; again; {
			again = false
			for _, n := range scc {
				if reason[n] != "" || cold[n] {
					continue
				}
				if r := summarize(n); r != "" {
					reason[n] = r
					again = len(scc) > 1
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Fn != nil && !cold[n] && reason[n] != "" {
			pass.ExportObjectFact(n.Fn, &AllocFact{Reason: reason[n]})
		}
	}

	// Hot-region enforcement: walk the static local closure of every
	// hotpath root, reporting each node's own sites exactly once even
	// when several roots share callees.
	reported := make(map[string]bool)
	report := func(pos token.Pos, msg string) {
		key := fmt.Sprintf("%d|%s", pos, msg)
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, "%s", msg)
	}
	for _, root := range g.Nodes {
		if root.Decl == nil {
			continue
		}
		if _, ok := lintAnnotation(root.Decl, "hotpath"); !ok {
			continue
		}
		rootName := root.Name()
		visited := make(map[*callgraph.Node]bool)
		stack := []*callgraph.Node{root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[n] {
				continue
			}
			visited[n] = true
			info := infos[n]
			for _, s := range info.sites {
				report(s.pos, fmt.Sprintf("allocation on the hot path rooted at %s: %s; hot-path code must be allocation-free — hoist it into a warm buffer or mark a reviewed cold branch //lint:coldpath <reason>", rootName, s.what))
			}
			for _, e := range n.Out {
				if e.Callee == nil || e.CHA {
					continue
				}
				if e.Site != nil && info.exempt[e.Site] {
					continue
				}
				if cold[e.Callee] || visited[e.Callee] {
					continue
				}
				stack = append(stack, e.Callee)
			}
		}
	}
	return nil
}

// lintAnnotation scans a declaration's doc comment for a
// `//lint:<verb> <reason>` annotation and returns the reason.
func lintAnnotation(fd *ast.FuncDecl, verb string) (string, bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//lint:"+verb)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // a longer verb, e.g. //lint:hotpathology
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// allocWalker collects one node's allocation sites and exempt call set.
type allocWalker struct {
	pass *Pass
	node *callgraph.Node
	info *allocInfo
	// exemptRanges are source spans inside which allocation is forgiven:
	// failing returns and panic arguments.
	exemptRanges [][2]token.Pos
}

// collectAllocInfo analyzes one function body: allocation constructs,
// suspect external calls, and the exemption spans.
func collectAllocInfo(pass *Pass, n *callgraph.Node) *allocInfo {
	w := &allocWalker{
		pass: pass,
		node: n,
		info: &allocInfo{exempt: make(map[*ast.CallExpr]bool)},
	}
	var body *ast.BlockStmt
	if n.Decl != nil {
		body = n.Decl.Body
	} else {
		body = n.Lit.Body
	}
	w.findExemptRanges(body)
	w.walk(body)
	return w.info
}

// sig returns the node's own signature (for return-boxing checks).
func (w *allocWalker) sig() *types.Signature {
	if w.node.Fn != nil {
		return w.node.Fn.Type().(*types.Signature)
	}
	if tv, ok := w.pass.TypesInfo.Types[w.node.Lit]; ok {
		if s, ok := tv.Type.(*types.Signature); ok {
			return s
		}
	}
	return nil
}

// findExemptRanges records the spans of failing returns (a return whose
// error-position expression is not the nil literal — that path is
// already the cold, failing one) and panic arguments.
func (w *allocWalker) findExemptRanges(body *ast.BlockStmt) {
	sig := w.sig()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == w.node.Lit
		case *ast.ReturnStmt:
			if sig != nil && w.failingReturn(sig, n) {
				w.exemptRanges = append(w.exemptRanges, [2]token.Pos{n.Pos(), n.End()})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					w.exemptRanges = append(w.exemptRanges, [2]token.Pos{n.Lparen, n.Rparen})
				}
			}
		}
		return true
	})
}

// failingReturn reports whether ret returns a non-nil value in some
// error-typed result position (including `return f()` tuple forwarding,
// where nil-ness is the callee's business).
func (w *allocWalker) failingReturn(sig *types.Signature, ret *ast.ReturnStmt) bool {
	res := sig.Results()
	hasErr := false
	for i := 0; i < res.Len(); i++ {
		if implementsError(res.At(i).Type()) {
			hasErr = true
			break
		}
	}
	if !hasErr || len(ret.Results) == 0 {
		return false
	}
	if len(ret.Results) != res.Len() {
		return true // tuple forwarding: conservative toward exemption
	}
	for i := 0; i < res.Len(); i++ {
		if implementsError(res.At(i).Type()) && !isNilExpr(w.pass.TypesInfo, ret.Results[i]) {
			return true
		}
	}
	return false
}

func (w *allocWalker) exempt(pos token.Pos) bool {
	for _, r := range w.exemptRanges {
		if r[0] <= pos && pos <= r[1] {
			return true
		}
	}
	return false
}

func (w *allocWalker) site(pos token.Pos, what string) {
	if w.exempt(pos) {
		return
	}
	w.info.sites = append(w.info.sites, allocSite{pos: pos, what: what})
}

// walk scans the body for allocating constructs, stopping at nested
// function literals (their sites belong to their own node; creating one
// is this node's allocation).
func (w *allocWalker) walk(root ast.Node) {
	info := w.pass.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == w.node.Lit {
				return true
			}
			w.site(n.Pos(), "creates a func literal (closure)")
			return false
		case *ast.GoStmt:
			w.site(n.Pos(), "starts a goroutine")
		case *ast.DeferStmt:
			w.site(n.Pos(), "defers a call")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				w.site(n.Pos(), "concatenates strings")
			}
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.ValueSpec:
			w.valueSpec(n)
		case *ast.ReturnStmt:
			w.returnBoxing(n)
		case *ast.CallExpr:
			if w.exempt(n.Pos()) {
				// Calls on failing returns and in panic arguments are cold;
				// recording them silences the matching call-graph edges too.
				w.info.exempt[n] = true
			}
			w.call(n)
			if _, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				for _, arg := range n.Args {
					w.walk(arg)
				}
				return false // the literal's body belongs to its node
			}
		}
		return true
	})
}

// assign flags map writes, string op-concat and interface boxing on
// assignment.
func (w *allocWalker) assign(as *ast.AssignStmt) {
	info := w.pass.TypesInfo
	for _, l := range as.Lhs {
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			if t := info.TypeOf(ix.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					w.site(l.Pos(), "writes to a map (may grow it)")
				}
			}
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringType(info.TypeOf(as.Lhs[0])) {
		w.site(as.Pos(), "concatenates strings")
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if boxesInterface(info, info.TypeOf(as.Lhs[i]), as.Rhs[i]) {
				w.site(as.Rhs[i].Pos(), boxWhat(info, as.Rhs[i]))
			}
		}
	}
}

// valueSpec flags interface boxing in declarations.
func (w *allocWalker) valueSpec(vs *ast.ValueSpec) {
	info := w.pass.TypesInfo
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		if obj, ok := info.Defs[name].(*types.Var); ok {
			if boxesInterface(info, obj.Type(), vs.Values[i]) {
				w.site(vs.Values[i].Pos(), boxWhat(info, vs.Values[i]))
			}
		}
	}
}

// returnBoxing flags interface boxing in (non-exempt) returns.
func (w *allocWalker) returnBoxing(ret *ast.ReturnStmt) {
	sig := w.sig()
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, r := range ret.Results {
		if boxesInterface(w.pass.TypesInfo, sig.Results().At(i).Type(), r) {
			w.site(r.Pos(), boxWhat(w.pass.TypesInfo, r))
		}
	}
}

// call flags allocating builtins, allocating conversions, boxing call
// arguments, and suspect external callees.
func (w *allocWalker) call(call *ast.CallExpr) {
	info := w.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string <-> []byte/[]rune copies.
		if len(call.Args) == 1 {
			to, from := tv.Type, info.TypeOf(call.Args[0])
			if allocatingConversion(to, from) {
				w.site(call.Pos(), "converts between string and byte/rune slice (copies)")
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.site(call.Pos(), "calls make")
			case "new":
				w.site(call.Pos(), "calls new")
			case "append":
				w.site(call.Pos(), "appends to a slice (may grow it)")
			}
			return
		}
	}

	// Boxing at the call boundary: concrete non-pointer values passed to
	// interface-typed parameters.
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			params := sig.Params()
			for i, arg := range call.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && call.Ellipsis.IsValid() && i == len(call.Args)-1:
					pt = params.At(params.Len() - 1).Type() // xs... passes the slice
				case sig.Variadic() && i >= params.Len()-1:
					if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
						pt = sl.Elem()
						if boxesInterface(info, pt, arg) {
							w.site(arg.Pos(), boxWhat(info, arg))
							continue
						}
						// Every spread variadic call materializes an
						// argument slice.
						if i == params.Len()-1 {
							w.site(arg.Pos(), "passes variadic arguments (allocates the argument slice)")
						}
						continue
					}
				case i < params.Len():
					pt = params.At(i).Type()
				}
				if boxesInterface(info, pt, arg) {
					w.site(arg.Pos(), boxWhat(info, arg))
				}
			}
		}
	}

	// External callees: module functions answer through AllocFacts
	// (absence = proven clean); stdlib answers through the allowlist.
	callee := staticCallee(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == w.pass.Pkg {
		return // local edges are the summary fixpoint's business
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
			return // dynamic dispatch is policy-exempt, wherever the interface lives
		}
	}
	if moduleAPI(callee.Pkg()) {
		var fact AllocFact
		if w.pass.ImportObjectFact(callee, &fact) {
			w.site(call.Pos(), fmt.Sprintf("calls %s.%s (which %s)", callee.Pkg().Path(), callee.Name(), fact.Reason))
		}
		return
	}
	if stdlibAllocFree(callee) {
		return
	}
	w.site(call.Pos(), fmt.Sprintf("calls %s.%s, which is outside the allocation-free allowlist and may allocate", callee.Pkg().Path(), callee.Name()))
}

// stdlibAllocFree is the trusted allocation-free allowlist: whole
// packages whose exported functions never allocate, plus specific
// functions from mixed packages.
func stdlibAllocFree(fn *types.Func) bool {
	pkg := fn.Pkg().Path()
	switch pkg {
	case "math", "math/bits":
		return true
	}
	switch pkg + "." + fn.Name() {
	case "errors.Is", "errors.As", "sort.Search":
		return true
	}
	return false
}

// boxesInterface reports whether assigning e to a target of type `to`
// boxes a concrete value into an interface in a way that allocates:
// the target is an interface, the value is concrete (not nil, not
// already an interface), and its representation is not pointer-shaped
// (pointers, channels, maps and funcs fit the interface word directly).
func boxesInterface(info *types.Info, to types.Type, e ast.Expr) bool {
	if to == nil || e == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	from := tv.Type
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false // interface-to-interface carries the same word
	}
	return !pointerShaped(from)
}

// pointerShaped reports whether t's values occupy a single pointer word
// (so interface conversion stores them directly, without allocating).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func boxWhat(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	return fmt.Sprintf("boxes a %s into an interface", types.TypeString(t, types.RelativeTo(nil)))
}

// allocatingConversion reports string <-> []byte/[]rune conversions,
// which copy their operand.
func allocatingConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
