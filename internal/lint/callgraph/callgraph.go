// Package callgraph builds a conservative, stdlib-only call graph for one
// package and condenses it into strongly connected components, so
// analyzers can compute per-function summaries bottom-up (callees before
// callers) and propagate them across packages through exported facts.
//
// That is its whole contract: the per-package, bottom-up SCC order that
// detflow, errflow and allocflow summarize in. It resolves no call
// across packages; a callee in another package is an edge whose summary
// the analyzer reads from that package's facts.
//
// Resolution is layered, cheapest first:
//
//  1. Static calls — f(x) and recv.M(x) where the type checker resolves
//     the callee identifier to a concrete *types.Func. These are must
//     edges.
//  2. Function values — g() where g is an SSA-tracked local: the reaching
//     definitions are chased through ir values (defs and phis) to the
//     function literals or declared functions they bind. These are may
//     edges (a phi contributes every incoming binding).
//  3. Interface dispatch — i.M() where the static callee is an interface
//     method: class-hierarchy analysis over the package's own named types
//     adds a may edge to every package-local concrete method that
//     implements it. Implementations outside the package are invisible;
//     callers that need soundness across packages must treat interface
//     dispatch as unresolved (the Dynamic flag stays set on the edge).
//
// Anything else — calls through struct fields, map lookups, channel
// receives, reflection — yields an edge with no callee and Dynamic set,
// which summary computations must widen to their analysis' top value.
//
// The graph is deterministic: nodes appear in source order (declarations
// first, then function literals by position), edges in traversal order,
// and SCCs in Tarjan's emission order, which for the condensation is a
// reverse topological sort — exactly the bottom-up order summary
// computations want.
package callgraph

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/ir"
)

// A Node is one function in the graph: either a declared function or
// method (Decl, Fn set) or a function literal (Lit set, Fn nil).
type Node struct {
	// Decl is the declaration for named functions and methods; nil for
	// function literals.
	Decl *ast.FuncDecl
	// Lit is the literal for anonymous functions; nil for declarations.
	Lit *ast.FuncLit
	// Fn is the declared object; nil for function literals.
	Fn *types.Func
	// Out is the node's call edges in source order.
	Out []Edge

	index, lowlink int
	onStack        bool
}

// Name renders the node for diagnostics: the declared name, or
// "funcN literal" for anonymous functions.
func (n *Node) Name() string {
	if n.Fn != nil {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			return recvTypeName(recv.Type()) + "." + n.Fn.Name()
		}
		return n.Fn.Name()
	}
	return "function literal"
}

// recvTypeName names a receiver type without its package qualifier.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// An Edge is one call site (or potential call site) in a function.
type Edge struct {
	// Site is the call expression; nil for the implicit edge from a
	// function to the literals it creates without immediately invoking
	// (the literal may run later, so its effects are the creator's).
	Site *ast.CallExpr
	// Callee is the package-local target, when resolved.
	Callee *Node
	// External is the resolved callee when it lives outside the package
	// (summaries consult imported facts for it). Nil when Callee is set
	// or the call is dynamic.
	External *types.Func
	// Dynamic marks a call the graph could not resolve to a fixed callee
	// set: function values that escape the SSA chase, interface dispatch
	// (even when CHA found local candidates — external implementations
	// remain invisible), go/defer through non-static expressions.
	Dynamic bool
	// CHA marks a may edge contributed by class-hierarchy analysis.
	CHA bool
}

// A Graph is the call graph of one package.
type Graph struct {
	// Nodes in deterministic source order: declarations (file order,
	// then position), then function literals by position.
	Nodes []*Node

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	sccs  [][]*Node
}

// NodeOf returns the node of a declared function or method, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFn[fn] }

// NodeOfLit returns the node of a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// SCCs returns the strongly connected components in bottom-up order:
// every edge leaving a component points to an earlier component, so a
// summary computed in slice order sees its callees' summaries first
// (modulo cycles, which share a component and need a local fixpoint).
func (g *Graph) SCCs() [][]*Node {
	if g.sccs == nil {
		g.sccs = tarjan(g.Nodes)
	}
	return g.sccs
}

// Build constructs the call graph of one package from its type-checked
// files. irFor supplies the per-function SSA used to chase function
// values; it may be nil (or return nil) to skip that layer.
func Build(info *types.Info, files []*ast.File, irFor func(*ast.FuncDecl) *ir.Func) *Graph {
	g := &Graph{
		byFn:  make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}
	b := &gbuilder{g: g, info: info, irFor: irFor}

	// Pass 1: create nodes for every declaration with a body and every
	// function literal, and collect the concrete methods CHA matches
	// against.
	for _, file := range files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Decl: fd, Fn: fn}
			g.Nodes = append(g.Nodes, n)
			g.byFn[fn] = n
			if fd.Recv != nil {
				b.methods = append(b.methods, n)
			}
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				ln := &Node{Lit: lit}
				g.Nodes = append(g.Nodes, ln)
				g.byLit[lit] = ln
			}
			return true
		})
	}

	// Pass 2: edges. Each node owns the calls in its own body, stopping
	// at nested literal boundaries (the literal's calls are its own; the
	// creator gets one implicit edge unless it invokes the literal
	// immediately).
	for _, n := range g.Nodes {
		b.edges(n)
	}
	return g
}

// gbuilder holds the state of one Build run.
type gbuilder struct {
	g       *Graph
	info    *types.Info
	irFor   func(*ast.FuncDecl) *ir.Func
	methods []*Node // concrete methods, for CHA
	cur     *Node   // node whose edges are being collected
	curIR   *ir.Func
}

// body returns the AST subtree holding n's code.
func body(n *Node) *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// edges collects n's outgoing edges.
func (b *gbuilder) edges(n *Node) {
	b.cur = n
	b.curIR = nil
	if b.irFor != nil && n.Decl != nil {
		b.curIR = b.irFor(n.Decl)
	}
	b.walk(body(n))
}

// walk traverses one function body, descending into everything except
// nested function literals (which own their calls) — those contribute a
// creation edge instead, unless immediately invoked.
func (b *gbuilder) walk(root ast.Node) {
	ast.Inspect(root, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			b.addEdge(Edge{Callee: b.g.byLit[node]})
			return false
		case *ast.CallExpr:
			b.call(node)
			if _, ok := ast.Unparen(node.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal: the call edge above covers
				// it, and the literal node owns its body — skip the Fun
				// subtree so the creation-edge case does not fire, but
				// still walk the arguments.
				for _, arg := range node.Args {
					b.walk(arg)
				}
				return false
			}
		}
		return true
	})
}

// call classifies one call expression into an edge.
func (b *gbuilder) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Immediately-invoked function literal: a direct edge to the literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		b.addEdge(Edge{Site: call, Callee: b.g.byLit[lit]})
		return
	}

	// Conversions and builtins are not calls.
	if tv, ok := b.info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := b.info.Uses[id].(*types.Builtin); ok {
			return
		}
	}

	// Static resolution through the type checker.
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id != nil {
		if fn, ok := b.info.Uses[id].(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil {
				if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
					b.interfaceCall(call, fn)
					return
				}
			}
			b.staticEdge(call, fn)
			return
		}
		// A plain identifier bound to a function value: chase its SSA
		// reaching definitions.
		if _, isSel := fun.(*ast.SelectorExpr); !isSel {
			if v, ok := b.info.Uses[id].(*types.Var); ok {
				if b.funcValueCall(call, id, v) {
					return
				}
			}
		}
	}
	b.addEdge(Edge{Site: call, Dynamic: true})
}

// staticEdge records a resolved concrete call: package-local when the
// callee has a node, external otherwise.
func (b *gbuilder) staticEdge(call *ast.CallExpr, fn *types.Func) {
	if n := b.g.byFn[fn]; n != nil {
		b.addEdge(Edge{Site: call, Callee: n})
		return
	}
	b.addEdge(Edge{Site: call, External: fn})
}

// interfaceCall handles i.M(): CHA over the package's concrete methods
// adds a may edge per local implementation, and the call additionally
// stays Dynamic because implementations in other packages are invisible.
func (b *gbuilder) interfaceCall(call *ast.CallExpr, ifaceMethod *types.Func) {
	name := ifaceMethod.Name()
	recv := ifaceMethod.Type().(*types.Signature).Recv()
	iface, _ := recv.Type().Underlying().(*types.Interface)
	for _, m := range b.methods {
		if m.Fn.Name() != name || iface == nil {
			continue
		}
		mrecv := m.Fn.Type().(*types.Signature).Recv().Type()
		if types.Implements(mrecv, iface) {
			b.addEdge(Edge{Site: call, Callee: m, CHA: true})
		}
	}
	b.addEdge(Edge{Site: call, Dynamic: true})
}

// funcValueCall chases a call through a local function-typed variable by
// following its SSA value (defs through phis, bounded by a visited set).
// Returns false when any reaching binding is unresolvable, in which case
// the caller records a dynamic edge instead.
func (b *gbuilder) funcValueCall(call *ast.CallExpr, id *ast.Ident, v *types.Var) bool {
	if b.curIR == nil || !b.curIR.Tracked(v) {
		return false
	}
	val := b.curIR.ValueAt(id)
	if val == nil {
		return false
	}
	var edges []Edge
	seen := make(map[ir.Value]bool)
	var chase func(val ir.Value) bool
	chase = func(val ir.Value) bool {
		if seen[val] {
			return true
		}
		seen[val] = true
		switch val := val.(type) {
		case *ir.Def:
			if val.Rhs == nil {
				return false
			}
			switch rhs := ast.Unparen(val.Rhs).(type) {
			case *ast.FuncLit:
				edges = append(edges, Edge{Site: call, Callee: b.g.byLit[rhs]})
				return true
			case *ast.Ident:
				if fn, ok := b.info.Uses[rhs].(*types.Func); ok {
					if n := b.g.byFn[fn]; n != nil {
						edges = append(edges, Edge{Site: call, Callee: n})
					} else {
						edges = append(edges, Edge{Site: call, External: fn})
					}
					return true
				}
			case *ast.SelectorExpr:
				if fn, ok := b.info.Uses[rhs.Sel].(*types.Func); ok {
					if sig := fn.Type().(*types.Signature); sig.Recv() == nil {
						edges = append(edges, Edge{Site: call, External: fn})
						return true
					}
				}
			}
			return false
		case *ir.Phi:
			for _, e := range val.Edges {
				if !chase(e) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	if !chase(val) {
		return false
	}
	for _, e := range edges {
		b.addEdge(e)
	}
	return len(edges) > 0
}

func (b *gbuilder) addEdge(e Edge) { b.cur.Out = append(b.cur.Out, e) }

// tarjan computes SCCs; the emission order (component finished when its
// root pops) is a reverse topological sort of the condensation, i.e.
// callees before callers.
func tarjan(nodes []*Node) [][]*Node {
	for _, n := range nodes {
		n.index = 0
	}
	var (
		sccs  [][]*Node
		stack []*Node
		next  = 1
	)
	var strong func(n *Node)
	strong = func(n *Node) {
		n.index = next
		n.lowlink = next
		next++
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.Out {
			w := e.Callee
			if w == nil {
				continue
			}
			if w.index == 0 {
				strong(w)
				if w.lowlink < n.lowlink {
					n.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < n.lowlink {
				n.lowlink = w.index
			}
		}
		if n.lowlink == n.index {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if n.index == 0 {
			strong(n)
		}
	}
	return sccs
}
