package ir

// Edge carries the dataflow fact arriving along one CFG edge, tagged with
// the predecessor it came from — the join hook needs the predecessor
// identity to evaluate phi values (phi edge i belongs to Preds[i]).
type Edge[T any] struct {
	Pred *Block
	Out  T
}

// Forward runs a forward dataflow fixpoint over the reachable blocks of f
// and returns the stable fact at the *entry* of every reachable block.
//
//   - entry is the boundary fact for the entry block.
//   - join merges the facts arriving over the incoming edges of a block
//     (it also evaluates the block's phis, which is why it sees Edges and
//     not a pre-merged value). It is never called for the entry block.
//   - flow transfers a block's entry fact through its Nodes and returns
//     one fact per successor, in Succs order — branch refinement (the
//     nilness analyzer's x == nil splits) is expressed by returning
//     different facts on the true and false edges. Returning fewer facts
//     than successors replicates the last fact (or the input when empty).
//   - equal bounds the iteration: the driver stops when every block's
//     entry fact is stable under it. The lattice must have finite height
//     for the fixpoint to terminate.
//
// Blocks are visited in reverse postorder, which converges in one pass for
// acyclic graphs and quickly for loops. Only predecessors that have been
// visited contribute to a join (the optimistic initial state), so loop
// back edges refine rather than destroy information.
func Forward[T any](f *Func, entry T, join func(b *Block, in []Edge[T]) T, flow func(b *Block, in T) []T, equal func(a, b T) bool) map[*Block]T {
	// Reachable blocks in reverse postorder.
	var order []*Block
	for _, b := range f.Blocks {
		if f.Reachable(b) {
			order = append(order, b)
		}
	}
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if order[j].rpo < order[i].rpo {
				order[i], order[j] = order[j], order[i]
			}
		}
	}

	ins := make(map[*Block]T, len(order))
	outs := make(map[*Block][]T, len(order))
	visited := make(map[*Block]bool, len(order))

	succOut := func(p *Block, succIdx int) T {
		o := outs[p]
		switch {
		case succIdx < len(o):
			return o[succIdx]
		case len(o) > 0:
			return o[len(o)-1]
		default:
			return ins[p]
		}
	}

	for round := 0; ; round++ {
		changed := false
		for _, b := range order {
			var in T
			if b == f.Entry() {
				in = entry
			} else {
				var edges []Edge[T]
				for _, p := range b.Preds {
					if !visited[p] {
						continue
					}
					// A predecessor may reach b through several edges
					// (rare, but e.g. degenerate switches); deliver one
					// Edge per matching successor slot.
					for si, s := range p.Succs {
						if s == b {
							edges = append(edges, Edge[T]{Pred: p, Out: succOut(p, si)})
						}
					}
				}
				if len(edges) == 0 {
					continue // no processed predecessor yet
				}
				in = join(b, edges)
			}
			if visited[b] && equal(ins[b], in) {
				continue
			}
			ins[b] = in
			outs[b] = flow(b, in)
			visited[b] = true
			changed = true
		}
		if !changed {
			break
		}
		if round > len(order)*4+100 {
			// Defensive bound: a non-converging lattice is a bug in the
			// caller, not a reason to spin the driver forever.
			break
		}
	}
	return ins
}
