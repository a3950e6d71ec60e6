package ir

// Dominator computation: the Cooper–Harvey–Kennedy iterative algorithm
// over a reverse postorder, followed by the standard dominance-frontier
// pass. Only blocks reachable from the entry participate; unreachable
// blocks keep rpo == -1 and a nil idom, and the SSA renaming skips them.

func (f *Func) computeDom() {
	entry := f.Entry()

	// Depth-first postorder over successor edges.
	var post []*Block
	seen := make([]bool, len(f.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)

	// Reverse-postorder numbering; rpo stays -1 on unreachable blocks.
	rpo := make([]*Block, len(post))
	for i := range post {
		b := post[len(post)-1-i]
		b.rpo = i
		rpo[i] = b
	}

	// Iterative idom fixpoint. The entry is its own idom (the sentinel the
	// intersection walk terminates on).
	entry.idom = entry
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var idom *Block
			for _, p := range b.Preds {
				if p.idom == nil {
					continue // unreachable or not yet processed
				}
				if idom == nil {
					idom = p
				} else {
					idom = intersect(idom, p)
				}
			}
			if idom != nil && b.idom != idom {
				b.idom = idom
				changed = true
			}
		}
	}

	// Dominator-tree children, in deterministic block order.
	for _, b := range rpo {
		if b != entry && b.idom != nil {
			b.idom.children = append(b.idom.children, b)
		}
	}

	// Dominance frontiers (Cytron et al.): a join block b belongs to the
	// frontier of every block on the idom chain from each predecessor up
	// to (exclusive) b's idom.
	for _, b := range rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if p.idom == nil {
				continue
			}
			for r := p; r != b.idom; r = r.idom {
				if !containsBlock(r.df, b) {
					r.df = append(r.df, b)
				}
				if r == r.idom { // entry: cannot walk further up
					break
				}
			}
		}
	}
}

// intersect walks two blocks up the (partially built) dominator tree to
// their common ancestor, comparing reverse-postorder numbers.
func intersect(a, b *Block) *Block {
	for a != b {
		for a.rpo > b.rpo {
			a = a.idom
		}
		for b.rpo > a.rpo {
			b = b.idom
		}
	}
	return a
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}
