package ir

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Value is one SSA version of a tracked variable: the definition (or
// merge of definitions) that reaches a particular program point.
type Value interface {
	// Var is the source variable the value versions.
	Var() *types.Var
	// String renders the value for diagnostics and tests.
	String() string
}

// Param is the value a parameter, receiver or named result holds on entry
// to the function (named results start at their zero value).
type Param struct {
	V *types.Var
	// Result marks a named result, whose entry value is the zero value
	// rather than a caller-supplied argument.
	Result bool
}

func (p *Param) Var() *types.Var { return p.V }
func (p *Param) String() string {
	if p.Result {
		return "zero(" + p.V.Name() + ")"
	}
	return "param(" + p.V.Name() + ")"
}

// Def is one assignment to a tracked variable.
type Def struct {
	V *types.Var
	// Ident is the left-hand-side identifier being defined.
	Ident *ast.Ident
	// Rhs is the expression assigned, when the assignment pairs one
	// left-hand side with one right-hand side. It is nil for tuple
	// assignments (x, err := f()), range variables, inc/dec statements and
	// zero-valued declarations — Kind tells them apart.
	Rhs ast.Expr
	// Stmt is the statement containing the definition.
	Stmt ast.Node
	// Block is the basic block the definition executes in.
	Block *Block
	// Kind classifies the definition site.
	Kind DefKind
	// Tok is the assignment operator for DefAssign (token.ASSIGN,
	// token.DEFINE, or an op= token).
	Tok token.Token
}

// DefKind classifies a Def site.
type DefKind uint8

const (
	// DefAssign is a plain or op= assignment with a paired Rhs expression
	// (nil Rhs means the value comes from a tuple-returning call).
	DefAssign DefKind = iota
	// DefDecl is a var declaration; Rhs is nil for the zero value.
	DefDecl
	// DefRange is a range key/value variable (fresh each iteration).
	DefRange
	// DefIncDec is an x++ / x-- statement.
	DefIncDec
)

func (d *Def) Var() *types.Var { return d.V }
func (d *Def) String() string  { return fmt.Sprintf("def(%s@b%d)", d.V.Name(), d.Block.Index) }

// Phi merges the values reaching a join block, one edge per predecessor
// (Edges is parallel to Block.Preds).
type Phi struct {
	V     *types.Var
	Block *Block
	Edges []Value
}

func (p *Phi) Var() *types.Var { return p.V }
func (p *Phi) String() string  { return fmt.Sprintf("phi(%s@b%d)", p.V.Name(), p.Block.Index) }

// Unknown is the value of a variable the builder does not track (address
// taken, captured by a closure, implicit pointer-receiver &x) or a use the
// renaming could not reach (unreachable code).
type Unknown struct {
	V      *types.Var
	Reason string
}

func (u *Unknown) Var() *types.Var { return u.V }
func (u *Unknown) String() string  { return "unknown(" + u.V.Name() + ")" }

// ValueAt returns the SSA value reaching the given use identifier, or nil
// when the identifier is not a tracked-variable use.
func (f *Func) ValueAt(id *ast.Ident) Value { return f.uses[id] }

// Defs returns every definition in the function, in deterministic
// (block, program) order.
func (f *Func) Defs() []*Def { return f.allDefs }

// Tracked reports whether v participates in SSA construction. Untracked
// variables (address taken, captured) resolve every use to Unknown.
func (f *Func) Tracked(v *types.Var) bool { return f.tracked[v] }

// ReachingAt returns the value of tracked named result v reaching the
// given return statement (recorded during renaming for naked-return
// reasoning), and whether one was recorded.
func (f *Func) ReachingAt(ret *ast.ReturnStmt, v *types.Var) (Value, bool) {
	val, ok := f.atReturn[ret][v]
	return val, ok
}

// Observed reports whether the value can be read after its definition:
// some identifier use resolves to it, directly or through a chain of phis,
// or it is live at a return statement (named results). A definition whose
// value is never observed is a dead store.
func (f *Func) Observed(v Value) bool { return f.observed[v] }

// buildSSA runs variable discovery, phi placement, renaming and the
// observed-set fixpoint over the already built CFG.
func (f *Func) buildSSA() {
	f.tracked = make(map[*types.Var]bool)
	f.params = make(map[*types.Var]*Param)
	f.uses = make(map[*ast.Ident]Value)
	f.observed = make(map[Value]bool)
	f.atReturn = make(map[*ast.ReturnStmt]map[*types.Var]Value)

	f.collectVars()
	defBlocks := f.collectDefSites()
	f.placePhis(defBlocks)
	r := &renamer{f: f, stacks: make(map[*types.Var][]Value), directUse: make(map[Value]bool)}
	r.rename(f.Entry())
	f.computeObserved(r.directUse)
}

// collectVars finds the trackable variables: those declared inside the
// function (parameters, receiver, named results, locals) whose address is
// never taken, that no closure captures, and that never receive an
// implicit &x through a pointer-receiver method call on an addressable
// value.
func (f *Func) collectVars() {
	lo, hi := f.Decl.Pos(), f.Decl.End()
	local := func(obj types.Object) *types.Var {
		v, ok := obj.(*types.Var)
		if !ok || v == nil || v.IsField() || v.Name() == "_" {
			return nil
		}
		if v.Pos() < lo || v.Pos() > hi {
			return nil
		}
		return v
	}

	// Candidates: every variable defined by an identifier inside the
	// declaration (params and results included — their names live in
	// Decl.Type / Decl.Recv).
	ast.Inspect(f.Decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := local(f.Info.Defs[id]); v != nil {
				f.tracked[v] = true
				f.vars = append(f.vars, v)
			}
		}
		return true
	})

	// Disqualifiers.
	drop := func(v *types.Var) {
		if v != nil && f.tracked[v] {
			f.hasUntracked = true
			delete(f.tracked, v)
		}
	}
	ast.Inspect(f.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					drop(local(f.Info.Uses[id]))
					drop(local(f.Info.Defs[id]))
				}
			}
		case *ast.FuncLit:
			// Anything referenced inside a closure escapes SSA tracking:
			// the closure may run at any time (defer included) and read or
			// write the variable. Variables *declared* inside the literal
			// are dropped too — their defs and uses belong to the
			// literal's own CFG, which this Func does not model.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					drop(local(f.Info.Uses[id]))
					drop(local(f.Info.Defs[id]))
				}
				return true
			})
			return false
		case *ast.SelectorExpr:
			// v.M() where M has a pointer receiver and v is an addressable
			// non-pointer: the call takes &v implicitly.
			if sel, ok := f.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if m, ok := sel.Obj().(*types.Func); ok {
					if recv := m.Type().(*types.Signature).Recv(); recv != nil {
						_, recvPtr := recv.Type().Underlying().(*types.Pointer)
						_, exprPtr := sel.Recv().Underlying().(*types.Pointer)
						if recvPtr && !exprPtr {
							if id, ok := unparen(n.X).(*ast.Ident); ok {
								drop(local(f.Info.Uses[id]))
							}
						}
					}
				}
			}
		}
		return true
	})

	// Deterministic variable order for phi placement, tracked only.
	sort.Slice(f.vars, func(i, j int) bool { return f.vars[i].Pos() < f.vars[j].Pos() })
	vars := f.vars[:0]
	seen := make(map[*types.Var]bool)
	for _, v := range f.vars {
		if f.tracked[v] && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	f.vars = vars

	// Entry values for parameters, the receiver and named results.
	sig, ok := f.Info.Defs[f.Decl.Name].(*types.Func)
	if ok {
		s := sig.Type().(*types.Signature)
		if r := s.Recv(); r != nil && f.tracked[r] {
			f.params[r] = &Param{V: r}
		}
		for i := 0; i < s.Params().Len(); i++ {
			if v := s.Params().At(i); f.tracked[v] {
				f.params[v] = &Param{V: v}
			}
		}
		for i := 0; i < s.Results().Len(); i++ {
			if v := s.Results().At(i); f.tracked[v] {
				f.params[v] = &Param{V: v, Result: true}
			}
		}
	}
}

// collectDefSites returns, per tracked variable, the set of blocks that
// define it (phi placement input).
func (f *Func) collectDefSites() map[*types.Var]map[*Block]bool {
	sites := make(map[*types.Var]map[*Block]bool)
	record := func(v *types.Var, b *Block) {
		if v == nil || !f.tracked[v] {
			return
		}
		s := sites[v]
		if s == nil {
			s = make(map[*Block]bool)
			sites[v] = s
		}
		s[b] = true
	}
	entry := f.Entry()
	for v := range f.params {
		record(v, entry)
	}
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			f.eachDef(n, func(id *ast.Ident, _ ast.Expr, _ DefKind, _ token.Token) {
				if v, ok := f.defObj(id); ok {
					record(v, b)
				}
			})
		}
	}
	return sites
}

// defObj resolves a defining identifier to its variable: Defs for :=,
// Uses for plain assignment to an existing variable.
func (f *Func) defObj(id *ast.Ident) (*types.Var, bool) {
	if v, ok := f.Info.Defs[id].(*types.Var); ok && v != nil {
		return v, true
	}
	if v, ok := f.Info.Uses[id].(*types.Var); ok && v != nil {
		return v, true
	}
	return nil, false
}

// eachDef calls fn for every variable-defining identifier directly in node
// n (no recursion into control-flow substructure: block nodes only hold
// straight-line statements, condition expressions and RangeStmt markers).
func (f *Func) eachDef(n ast.Node, fn func(id *ast.Ident, rhs ast.Expr, kind DefKind, tok token.Token)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		paired := len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var rhs ast.Expr
			if paired {
				rhs = n.Rhs[i]
			}
			fn(id, rhs, DefAssign, n.Tok)
		}
	case *ast.IncDecStmt:
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			fn(id, nil, DefIncDec, n.Tok)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			paired := len(vs.Names) == len(vs.Values)
			for i, id := range vs.Names {
				if id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if paired {
					rhs = vs.Values[i]
				}
				fn(id, rhs, DefDecl, token.DEFINE)
			}
		}
	case *ast.RangeStmt:
		for _, e := range [2]ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				fn(id, nil, DefRange, n.Tok)
			}
		}
	}
}

// placePhis inserts phi values at the iterated dominance frontier of each
// variable's definition blocks (standard minimal SSA placement).
func (f *Func) placePhis(sites map[*types.Var]map[*Block]bool) {
	for _, v := range f.vars {
		blocks := sites[v]
		if len(blocks) == 0 {
			continue
		}
		work := make([]*Block, 0, len(blocks))
		for b := range blocks {
			work = append(work, b)
		}
		sort.Slice(work, func(i, j int) bool { return work[i].Index < work[j].Index })
		placed := make(map[*Block]bool)
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for _, d := range b.df {
				if placed[d] {
					continue
				}
				placed[d] = true
				phi := &Phi{V: v, Block: d, Edges: make([]Value, len(d.Preds))}
				d.Phis = append(d.Phis, phi)
				f.allPhis = append(f.allPhis, phi)
				if !blocks[d] {
					blocks[d] = true
					work = append(work, d)
				}
			}
		}
	}
}

// renamer performs the classic dominator-tree renaming walk.
type renamer struct {
	f      *Func
	stacks map[*types.Var][]Value
	// directUse marks values some use identifier resolves to (the seed of
	// the observed fixpoint).
	directUse map[Value]bool
}

func (r *renamer) top(v *types.Var) Value {
	if s := r.stacks[v]; len(s) > 0 {
		return s[len(s)-1]
	}
	return &Unknown{V: v, Reason: "no reaching definition"}
}

func (r *renamer) push(v *types.Var, val Value) int {
	r.stacks[v] = append(r.stacks[v], val)
	return 1
}

// rename processes block b and recurses over its dominator children.
func (r *renamer) rename(b *Block) {
	f := r.f
	pushed := make(map[*types.Var]int)

	if b == f.Entry() {
		for _, v := range f.vars {
			if p, ok := f.params[v]; ok {
				pushed[v] += r.push(v, p)
			}
		}
	}
	for _, phi := range b.Phis {
		pushed[phi.V] += r.push(phi.V, phi)
	}

	for _, n := range b.Nodes {
		r.node(n, b, pushed)
	}

	// Fill phi edges of successors: the value flowing along the b->succ
	// edge is whatever is on top of the stack here.
	for _, s := range b.Succs {
		for _, phi := range s.Phis {
			for i, p := range s.Preds {
				if p == b {
					phi.Edges[i] = r.top(phi.V)
				}
			}
		}
	}

	for _, c := range b.children {
		r.rename(c)
	}

	for v, n := range pushed {
		r.stacks[v] = r.stacks[v][:len(r.stacks[v])-n]
	}
}

// node processes one block node: record uses against the current stacks,
// then push definitions.
func (r *renamer) node(n ast.Node, b *Block, pushed map[*types.Var]int) {
	f := r.f
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			r.uses(rhs)
		}
		opAssign := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if opAssign {
					r.useIdent(id) // x += 1 reads x first
				}
				continue
			}
			r.uses(lhs) // x.f = v, x[i] = v: the base is read
		}
		r.defs(n, b, pushed)
	case *ast.IncDecStmt:
		r.uses(n.X)
		r.defs(n, b, pushed)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						r.uses(val)
					}
				}
			}
		}
		r.defs(n, b, pushed)
	case *ast.RangeStmt:
		// Only the per-iteration key/value defs live here; X was evaluated
		// in a predecessor block and Body has its own blocks.
		r.defs(n, b, pushed)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			r.uses(res)
		}
		// Named results are observed at every return: explicitly via a
		// naked return, implicitly because deferred code may read them.
		sig, ok := f.Info.Defs[f.Decl.Name].(*types.Func)
		if ok {
			s := sig.Type().(*types.Signature)
			for i := 0; i < s.Results().Len(); i++ {
				if v := s.Results().At(i); v.Name() != "" && f.tracked[v] {
					val := r.top(v)
					r.directUse[val] = true
					at := f.atReturn[n]
					if at == nil {
						at = make(map[*types.Var]Value)
						f.atReturn[n] = at
					}
					at[v] = val
				}
			}
		}
	default:
		r.uses(n)
	}
}

// defs pushes the definitions node n makes in block b.
func (r *renamer) defs(n ast.Node, b *Block, pushed map[*types.Var]int) {
	f := r.f
	f.eachDef(n, func(id *ast.Ident, rhs ast.Expr, kind DefKind, tok token.Token) {
		v, ok := f.defObj(id)
		if !ok || !f.tracked[v] {
			return
		}
		d := &Def{V: v, Ident: id, Rhs: rhs, Stmt: n, Block: b, Kind: kind, Tok: tok}
		f.allDefs = append(f.allDefs, d)
		pushed[v] += r.push(v, d)
	})
}

// uses records every tracked-variable use identifier inside n against the
// current renaming stacks, skipping nested function literals (whose
// variables are untracked by construction).
func (r *renamer) uses(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			r.useIdent(id)
		}
		return true
	})
}

func (r *renamer) useIdent(id *ast.Ident) {
	if v, ok := r.f.Info.Uses[id].(*types.Var); ok && r.f.tracked[v] {
		val := r.top(v)
		r.f.uses[id] = val
		r.directUse[val] = true
	}
}

// computeObserved closes the direct-use set over phi edges: a definition
// is observed if a use resolves to it or if it flows into an observed phi.
func (f *Func) computeObserved(direct map[Value]bool) {
	for v := range direct {
		f.observed[v] = true
	}
	// Propagate: an edge value of an observed phi is observed. The
	// iteration count is bounded by the number of phis.
	for changed := true; changed; {
		changed = false
		for _, phi := range f.allPhis {
			if !f.observed[phi] {
				continue
			}
			for _, e := range phi.Edges {
				if e != nil && !f.observed[e] {
					f.observed[e] = true
					changed = true
				}
			}
		}
	}
}

func unparen(e ast.Expr) ast.Expr { return ast.Unparen(e) }
