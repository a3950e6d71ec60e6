package ir

import (
	"fmt"
	"go/ast"
)

// DefAt returns the Def created at the given defining identifier, or nil.
func (f *Func) DefAt(id *ast.Ident) *Def {
	for _, d := range f.allDefs {
		if d.Ident == id {
			return d
		}
	}
	return nil
}

// Phis returns every phi value, in deterministic order.
func (f *Func) Phis() []*Phi { return f.allPhis }

// Sanity checks the structural invariants of a built Func; the fuzzer and
// the builder tests rely on it. It verifies that every reachable block is
// sealed: predecessor/successor edges are symmetric, the dominator tree
// covers every reachable block, and each phi has exactly one edge per
// predecessor with a value on every reachable incoming edge.
func Sanity(f *Func) error {
	if f == nil {
		return nil
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function %s has no blocks", f.Decl.Name.Name)
	}
	if !f.Reachable(f.Entry()) {
		return fmt.Errorf("entry block unreachable")
	}
	index := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		index[b] = true
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				return fmt.Errorf("%s has foreign successor %s", b, s)
			}
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("edge %s->%s missing from Preds", b, s)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("edge %s->%s missing from Succs", p, b)
			}
		}
		if !f.Reachable(b) {
			continue
		}
		if b != f.Entry() {
			if b.idom == nil {
				return fmt.Errorf("reachable block %s has no idom", b)
			}
			if !f.Reachable(b.idom) {
				return fmt.Errorf("idom of %s is unreachable", b)
			}
		}
		for _, phi := range b.Phis {
			if len(phi.Edges) != len(b.Preds) {
				return fmt.Errorf("%s: phi(%s) has %d edges for %d preds", b, phi.V.Name(), len(phi.Edges), len(b.Preds))
			}
			for i, p := range b.Preds {
				if f.Reachable(p) && phi.Edges[i] == nil {
					return fmt.Errorf("%s: phi(%s) missing edge value from reachable pred %s", b, phi.V.Name(), p)
				}
			}
		}
	}
	// Every use and def the renaming recorded must reference a tracked var.
	for id, v := range f.uses {
		if v == nil {
			return fmt.Errorf("use of %s resolved to nil value", id.Name)
		}
	}
	for _, d := range f.allDefs {
		if d.Block == nil {
			return fmt.Errorf("def of %s has no block", d.Ident.Name)
		}
	}
	return nil
}
