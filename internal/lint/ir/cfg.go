package ir

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Block is one basic block of a function's control-flow graph. Nodes holds
// the straight-line statements (and branch condition expressions) in
// execution order; control only transfers at the end of the block, along
// Succs.
//
// Convention: a block whose last node is an ast.Expr (an if/for condition)
// and that has exactly two successors branches on that condition, with
// Succs[0] the true edge and Succs[1] the false edge.
type Block struct {
	// Index is the block's position in Func.Blocks (a stable, deterministic
	// identity used for ordering).
	Index int
	// Comment names the construct that created the block ("if.then",
	// "range.head", ...), for tests and debugging.
	Comment string
	// Nodes are the statements and condition expressions of the block, in
	// execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
	// Phis are the SSA phi values placed at the head of this block, one per
	// variable that needs merging here.
	Phis []*Phi

	// dominator data, filled by computeDom for reachable blocks.
	idom     *Block
	children []*Block
	df       []*Block
	rpo      int // reverse-postorder number; -1 when unreachable
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Comment) }

// Func is the IR of one function declaration: its CFG, dominator tree and
// SSA values.
type Func struct {
	// Decl is the declaration the IR was built from.
	Decl *ast.FuncDecl
	// Info is the type-checker output the builder resolved identifiers
	// against.
	Info *types.Info
	// Blocks is every basic block, entry first. Unreachable blocks (code
	// after return, empty select arms) are kept but excluded from
	// domination and renaming.
	Blocks []*Block

	// SSA results, filled by buildSSA.
	tracked  map[*types.Var]bool
	params   map[*types.Var]*Param
	uses     map[*ast.Ident]Value
	allDefs  []*Def
	allPhis  []*Phi
	observed map[Value]bool
	vars     []*types.Var // tracked vars in declaration-position order
	// cells summarizes the untracked (address-taken, captured) locals;
	// hasUntracked records whether any candidate variable lost tracking,
	// so cell construction can be skipped for the common all-SSA case.
	cells        map[*types.Var]*Cell
	hasUntracked bool
	// atReturn records, per return statement, the value of each tracked
	// named result reaching it (analyzers prove always-nil naked returns
	// with it).
	atReturn map[*ast.ReturnStmt]map[*types.Var]Value
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Reachable reports whether b is reachable from the entry block.
func (f *Func) Reachable(b *Block) bool { return b.rpo >= 0 }

// builder holds the state of one CFG construction.
type builder struct {
	f      *Func
	cur    *Block // nil once control has transferred (return/branch)
	labels map[string]*labelInfo
	// targets is the innermost break/continue environment.
	targets *targets
	// fallTarget is the next case-clause body, valid while building a
	// switch clause (the destination of a fallthrough statement).
	fallTarget *Block
}

// labelInfo tracks one label: the block the labeled statement starts in
// (created eagerly so forward gotos can reference it) and, when the
// labeled statement is a loop/switch/select, its break and continue
// destinations.
type labelInfo struct {
	start             *Block
	breakB, continueB *Block
}

// targets is one frame of the break/continue environment stack.
type targets struct {
	prev      *targets
	breakB    *Block // valid break destination (loop, switch, select)
	continueB *Block // non-nil only for loops
}

func (b *builder) block(comment string) *Block {
	blk := &Block{Index: len(b.f.Blocks), Comment: comment, rpo: -1}
	b.f.Blocks = append(b.f.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block statements are flowing into, starting a fresh
// (unreachable) one if control has already transferred.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.block("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.current()
	blk.Nodes = append(blk.Nodes, n)
}

// jump ends the current block with an edge to dst (if control can reach the
// end) and marks control as transferred.
func (b *builder) jump(dst *Block) {
	if b.cur != nil && dst != nil {
		edge(b.cur, dst)
	}
	b.cur = nil
}

func (b *builder) labelInfo(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{start: b.block("label." + name)}
		b.labels[name] = li
	}
	return li
}

// breakTarget resolves an unlabeled break: the innermost enclosing loop,
// switch or select.
func (b *builder) breakTarget() *Block {
	if b.targets != nil {
		return b.targets.breakB
	}
	return nil
}

// continueTarget resolves an unlabeled continue: the innermost enclosing
// loop (switch/select frames are skipped).
func (b *builder) continueTarget() *Block {
	for t := b.targets; t != nil; t = t.prev {
		if t.continueB != nil {
			return t.continueB
		}
	}
	return nil
}

// stmt builds the CFG for one statement. label is the label attached to
// the statement (from an enclosing LabeledStmt), "" otherwise; loops and
// switches register their break/continue blocks on it.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st, "")
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.block("if.then")
		done := b.block("if.done")
		els := done
		if s.Else != nil {
			els = b.block("if.else")
		}
		edge(cond, then)
		edge(cond, els)
		b.cur = then
		b.stmt(s.Body, "")
		b.jump(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, "")
			b.jump(done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		loop := b.block("for.loop")
		b.jump(loop)
		body := b.block("for.body")
		done := b.block("for.done")
		cont := loop
		var post *Block
		if s.Post != nil {
			post = b.block("for.post")
			cont = post
		}
		if s.Cond != nil {
			loop.Nodes = append(loop.Nodes, s.Cond)
			edge(loop, body)
			edge(loop, done)
		} else {
			edge(loop, body)
		}
		if label != "" {
			li := b.labelInfo(label)
			li.breakB, li.continueB = done, cont
		}
		b.targets = &targets{prev: b.targets, breakB: done, continueB: cont}
		b.cur = body
		b.stmt(s.Body, "")
		b.targets = b.targets.prev
		b.jump(cont)
		if post != nil {
			post.Nodes = append(post.Nodes, s.Post)
			edge(post, loop)
		}
		b.cur = done

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.block("range.head")
		b.jump(head)
		// The RangeStmt node itself sits in the head block, standing for
		// the per-iteration key/value definitions.
		head.Nodes = append(head.Nodes, s)
		body := b.block("range.body")
		done := b.block("range.done")
		edge(head, body)
		edge(head, done)
		if label != "" {
			li := b.labelInfo(label)
			li.breakB, li.continueB = done, head
		}
		b.targets = &targets{prev: b.targets, breakB: done, continueB: head}
		b.cur = body
		b.stmt(s.Body, "")
		b.targets = b.targets.prev
		b.jump(head)
		b.cur = done

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, nil, s.Body, label)

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Assign, s.Body, label)

	case *ast.SelectStmt:
		head := b.current()
		done := b.block("select.done")
		if label != "" {
			li := b.labelInfo(label)
			li.breakB = done
		}
		b.targets = &targets{prev: b.targets, breakB: done}
		for _, cc := range s.Body.List {
			clause, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			cb := b.block("select.comm")
			edge(head, cb)
			b.cur = cb
			if clause.Comm != nil {
				b.stmt(clause.Comm, "")
			}
			for _, st := range clause.Body {
				b.stmt(st, "")
			}
			b.jump(done)
		}
		b.targets = b.targets.prev
		// A select with no cases blocks forever: done stays unreachable.
		b.cur = done

	case *ast.LabeledStmt:
		li := b.labelInfo(s.Label.Name)
		if b.cur != nil {
			edge(b.cur, li.start)
		}
		b.cur = li.start
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.breakTarget()
			if s.Label != nil {
				t = b.labelInfo(s.Label.Name).breakB
			}
			b.jump(t)
		case token.CONTINUE:
			t := b.continueTarget()
			if s.Label != nil {
				t = b.labelInfo(s.Label.Name).continueB
			}
			b.jump(t)
		case token.GOTO:
			if s.Label != nil {
				b.jump(b.labelInfo(s.Label.Name).start)
			} else {
				b.cur = nil
			}
		case token.FALLTHROUGH:
			b.jump(b.fallTarget)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.EmptyStmt, *ast.BadStmt:
		// no effect on the graph

	default:
		// Straight-line statements: assignments, declarations, expression
		// statements, sends, go/defer, inc/dec.
		b.add(s)
	}
}

// buildSwitch is the shared expression/type switch construction: the init
// statement, tag expression (or type-switch assign) and every case guard
// expression evaluate in the head block; each clause body is a successor
// of the head, with fallthrough edges between consecutive bodies; a switch
// without a default keeps a direct head->done edge.
func (b *builder) buildSwitch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) {
	if init != nil {
		b.stmt(init, "")
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.current()
	done := b.block("switch.done")
	if label != "" {
		li := b.labelInfo(label)
		li.breakB = done
	}

	var clauses []*ast.CaseClause
	for _, cc := range body.List {
		if clause, ok := cc.(*ast.CaseClause); ok {
			clauses = append(clauses, clause)
		}
	}
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, clause := range clauses {
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			head.Nodes = append(head.Nodes, e)
		}
		bodies[i] = b.block("switch.case")
		edge(head, bodies[i])
	}
	if !hasDefault {
		edge(head, done)
	}

	b.targets = &targets{prev: b.targets, breakB: done}
	savedFall := b.fallTarget
	for i, clause := range clauses {
		if i+1 < len(bodies) {
			b.fallTarget = bodies[i+1]
		} else {
			b.fallTarget = nil
		}
		b.cur = bodies[i]
		for _, st := range clause.Body {
			b.stmt(st, "")
		}
		b.jump(done)
	}
	b.fallTarget = savedFall
	b.targets = b.targets.prev
	b.cur = done
}

// Build constructs the CFG, dominator tree and SSA form for one function
// declaration. It returns nil for declarations without a body (external
// linkage stubs). The result is immutable; callers share it freely.
func Build(info *types.Info, fd *ast.FuncDecl) *Func {
	if fd == nil || fd.Body == nil || info == nil {
		return nil
	}
	f := &Func{Decl: fd, Info: info}
	b := &builder{f: f, labels: make(map[string]*labelInfo)}
	entry := b.block("entry")
	b.cur = entry
	b.stmt(fd.Body, "")
	f.computeDom()
	f.buildSSA()
	f.buildCells()
	return f
}
