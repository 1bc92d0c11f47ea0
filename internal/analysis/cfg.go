package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// This file is the flow-sensitive half of the dataflow engine: an
// intraprocedural control-flow graph over go/ast (basic blocks with
// branch, loop, switch, select, goto, and defer edges), reverse-
// postorder iteration, dominators, and a reaching-definitions fixpoint
// that tells funcFlow's origin queries (dataflow.go) which assignments
// actually reach each program point. seedtaint, units, purity,
// clockstep, and skipsafe consume the same Origin leaf sets; origins
// merge only where control flow does.
//
// Goto edges are ordinary CFG edges, so the fixpoint stays sound over
// them. The one degradation is a fixpoint that exceeds its iteration
// budget: every query in that function answers [OriginUnknown]. The
// depth and fan caps of dataflow.go apply when the reaching
// definitions are traced to leaves.

// A cfgBlock is one basic block: nodes execute in order, then control
// transfers along succs. When cond is non-nil the block ends in a
// two-way branch: succs[0] is the true edge and succs[1] the false
// edge. The nodes slice holds simple statements and branch conditions;
// compound statements (if/for/switch bodies) live in their own blocks.
type cfgBlock struct {
	index int
	kind  string
	nodes []ast.Node
	cond  ast.Expr
	succs []*cfgBlock
	preds []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
	// rpo is the reverse-postorder over blocks reachable from entry —
	// the iteration order that makes forward-dataflow fixpoints cheap.
	rpo []*cfgBlock
	// idom maps each reachable block (except entry) to its immediate
	// dominator.
	idom map[*cfgBlock]*cfgBlock
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock // nil for switch/select
}

// cfgBuilder threads the under-construction graph through the
// statement walk.
type cfgBuilder struct {
	c       *funcCFG
	cur     *cfgBlock
	targets []branchTarget
	labels  map[string]*cfgBlock // goto targets, created on demand
	defers  *cfgBlock            // synthetic defer block, nil until a defer is seen
}

// buildCFG constructs the control-flow graph of body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	c := &funcCFG{}
	b := &cfgBuilder{c: c, labels: map[string]*cfgBlock{}}
	c.entry = b.newBlock("entry")
	c.exit = b.newBlock("exit")
	b.cur = c.entry
	b.stmts(body.List)
	if b.cur != nil {
		b.link(b.cur, b.exitTarget())
	}
	if b.defers != nil {
		b.link(b.defers, c.exit)
	}
	c.computeRPO()
	c.computeDominators()
	return c
}

func (b *cfgBuilder) newBlock(kind string) *cfgBlock {
	blk := &cfgBlock{index: len(b.c.blocks), kind: kind}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// exitTarget is where returns and the falling-off end land: the defer
// block when the function defers anything, the exit block otherwise.
func (b *cfgBuilder) exitTarget() *cfgBlock {
	if b.defers != nil {
		return b.defers
	}
	return b.c.exit
}

// ensure gives dead code after a terminator its own (unreachable)
// block, so every statement still has a site in the graph.
func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
}

func (b *cfgBuilder) record(n ast.Node) {
	b.ensure()
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label, when non-empty, names the
// enclosing LabeledStmt so labeled break/continue resolve.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	b.ensure()
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.record(s.Init)
		}
		if s.Tag != nil {
			b.record(s.Tag)
		}
		b.switchClauses(s.Body, label)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.record(s.Init)
		}
		b.record(s.Assign)
		b.switchClauses(s.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.LabeledStmt:
		// Enter the label's block so gotos have a target, then build the
		// labeled statement with the label in scope for break/continue.
		lb := b.labelBlock(s.Label.Name)
		b.link(b.cur, lb)
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.ReturnStmt:
		b.record(s)
		b.link(b.cur, b.exitTarget())
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		if b.defers == nil {
			b.defers = b.newBlock("defers")
		}
		b.record(s)
	case *ast.EmptyStmt:
		// no node
	default:
		// Assign, IncDec, Decl, Expr, Go, Send: straight-line nodes.
		b.record(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.record(s.Init)
	}
	b.record(s.Cond)
	cond := b.cur
	cond.cond = s.Cond
	join := b.newBlock("join")
	then := b.newBlock("then")
	b.link(cond, then)
	var elseB *cfgBlock
	if s.Else != nil {
		elseB = b.newBlock("else")
		b.link(cond, elseB)
	} else {
		b.link(cond, join)
	}
	b.cur = then
	b.stmt(s.Body, "")
	if b.cur != nil {
		b.link(b.cur, join)
	}
	if s.Else != nil {
		b.cur = elseB
		b.stmt(s.Else, "")
		if b.cur != nil {
			b.link(b.cur, join)
		}
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.record(s.Init)
	}
	head := b.newBlock("loop")
	b.link(b.cur, head)
	join := b.newBlock("join")
	body := b.newBlock("body")
	var post *cfgBlock
	if s.Post != nil {
		post = b.newBlock("post")
		post.nodes = append(post.nodes, s.Post)
		b.link(post, head)
	}
	b.cur = head
	if s.Cond != nil {
		b.record(s.Cond)
		head.cond = s.Cond
		b.link(head, body)
		b.link(head, join)
	} else {
		b.link(head, body)
	}
	cont := head
	if post != nil {
		cont = post
	}
	b.targets = append(b.targets, branchTarget{label: label, brk: join, cont: cont})
	b.cur = body
	b.stmt(s.Body, "")
	b.targets = b.targets[:len(b.targets)-1]
	if b.cur != nil {
		b.link(b.cur, cont)
	}
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range")
	b.link(b.cur, head)
	// The RangeStmt node stands for the per-iteration key/value binding;
	// the collection expression and both edges live on the head.
	head.nodes = append(head.nodes, s)
	join := b.newBlock("join")
	body := b.newBlock("body")
	b.link(head, body)
	b.link(head, join)
	b.targets = append(b.targets, branchTarget{label: label, brk: join, cont: head})
	b.cur = body
	b.stmt(s.Body, "")
	b.targets = b.targets[:len(b.targets)-1]
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.cur = join
}

// switchClauses builds the clause blocks shared by switch and type
// switch: the dispatching block fans out to every case (and to the
// join when there is no default); each case falls to the join unless
// it ends in fallthrough.
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, label string) {
	sw := b.cur
	join := b.newBlock("join")
	b.targets = append(b.targets, branchTarget{label: label, brk: join})
	var caseBlocks []*cfgBlock
	hasDefault := false
	for range body.List {
		caseBlocks = append(caseBlocks, b.newBlock("case"))
	}
	for i, cs := range body.List {
		clause, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		cb := caseBlocks[i]
		b.link(sw, cb)
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			cb.nodes = append(cb.nodes, e)
		}
		b.cur = cb
		fell := false
		for _, st := range clause.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				b.record(br)
				if i+1 < len(caseBlocks) {
					b.link(b.cur, caseBlocks[i+1])
				}
				b.cur, fell = nil, true
				break
			}
			b.stmt(st, "")
		}
		if !fell && b.cur != nil {
			b.link(b.cur, join)
		}
	}
	if !hasDefault {
		b.link(sw, join)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	sel := b.cur
	join := b.newBlock("join")
	b.targets = append(b.targets, branchTarget{label: label, brk: join})
	for _, cs := range s.Body.List {
		clause, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock("comm")
		b.link(sel, cb)
		if clause.Comm != nil {
			cb.nodes = append(cb.nodes, clause.Comm)
		}
		b.cur = cb
		b.stmts(clause.Body)
		if b.cur != nil {
			b.link(b.cur, join)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.record(s)
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if name == "" || t.label == name {
				b.link(b.cur, t.brk)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.cont != nil && (name == "" || t.label == name) {
				b.link(b.cur, t.cont)
				break
			}
		}
	case token.GOTO:
		if name != "" {
			b.link(b.cur, b.labelBlock(name))
		}
	case token.FALLTHROUGH:
		// Handled inside switchClauses; a stray one terminates the block.
	default:
		// BranchStmt.Tok is only ever one of the four above.
	}
	b.cur = nil
}

func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	lb, ok := b.labels[name]
	if !ok {
		lb = b.newBlock("label " + name)
		b.labels[name] = lb
	}
	return lb
}

// computeRPO fills rpo with the blocks reachable from entry in
// reverse postorder.
func (c *funcCFG) computeRPO() {
	seen := make([]bool, len(c.blocks))
	var post []*cfgBlock
	var dfs func(b *cfgBlock)
	dfs = func(b *cfgBlock) {
		seen[b.index] = true
		for _, s := range b.succs {
			if !seen[s.index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(c.entry)
	c.rpo = make([]*cfgBlock, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		c.rpo = append(c.rpo, post[i])
	}
}

// computeDominators runs the classic iterative RPO algorithm
// (Cooper/Harvey/Kennedy) over the reachable blocks.
func (c *funcCFG) computeDominators() {
	c.idom = map[*cfgBlock]*cfgBlock{c.entry: c.entry}
	rpoIndex := map[*cfgBlock]int{}
	for i, b := range c.rpo {
		rpoIndex[b] = i
	}
	intersect := func(a, b *cfgBlock) *cfgBlock {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = c.idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = c.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.rpo {
			if b == c.entry {
				continue
			}
			var newIdom *cfgBlock
			for _, p := range b.preds {
				if c.idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// dominates reports whether a dominates b (reflexively).
func (c *funcCFG) dominates(a, b *cfgBlock) bool {
	for {
		if a == b {
			return true
		}
		next := c.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// branchFact is one condition known to hold (when=true) or fail
// (when=false) on every path reaching a block.
type branchFact struct {
	cond ast.Expr
	when bool
}

// factsAt collects the branch facts established by the dominator chain
// of b: for each dominating two-way branch whose taken edge dominates
// b (and whose other edge does not), the condition's polarity is pinned
// on every path to b.
func (c *funcCFG) factsAt(b *cfgBlock) []branchFact {
	var facts []branchFact
	for cur := c.idom[b]; cur != nil; {
		if cur.cond != nil && len(cur.succs) == 2 && cur.succs[0] != cur.succs[1] {
			t0 := c.dominates(cur.succs[0], b)
			t1 := c.dominates(cur.succs[1], b)
			if t0 != t1 {
				facts = append(facts, branchFact{cond: cur.cond, when: t0})
			}
		}
		next := c.idom[cur]
		if next == cur {
			break
		}
		cur = next
	}
	return facts
}

// dump renders the graph deterministically for the structure goldens:
// one line per block with its statements and successor edges (T/F
// annotated on conditional branches).
func (c *funcCFG) dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range c.blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.index, b.kind)
		for _, n := range b.nodes {
			fmt.Fprintf(&sb, " {%s}", nodeText(fset, n))
		}
		if len(b.succs) > 0 {
			sb.WriteString(" ->")
			for i, s := range b.succs {
				tag := ""
				if b.cond != nil && len(b.succs) == 2 {
					tag = []string{"T:", "F:"}[i]
				}
				fmt.Fprintf(&sb, " %sb%d", tag, s.index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeText renders one CFG node as single-line source text.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	fields := strings.Fields(buf.String())
	return strings.Join(fields, " ")
}

// --- reaching definitions ----------------------------------------------
//
// originEnv maps each local variable to the definition expressions that
// reach a program point. Tracing an identifier under an env follows
// only these reaching definitions (dataflow.go's trace). A variable's
// own declaration identifier is the marker for "declared without
// initializer": its value is the type's zero value, which traces as an
// anonymous literal.
type originEnv map[*types.Var][]ast.Expr

// cfgSite locates one recorded node inside the graph.
type cfgSite struct {
	block *cfgBlock
	index int
}

// envBudgetPerBlock bounds fixpoint iterations; an exhausted budget
// leaves the function unsolved (every origin query answers
// [OriginUnknown]).
const envBudgetPerBlock = 40

// solve builds the CFG and solves the reaching-definition fixpoint once
// per funcFlow. cfg stays nil without a body or when the budget runs
// out.
func (f *funcFlow) solve() {
	if f.solved {
		return
	}
	f.solved = true
	if f.body == nil {
		return
	}
	f.cfg = buildCFG(f.body)
	if !f.solveEnvs() {
		f.cfg = nil
	}
}

// solveEnvs runs the worklist fixpoint: in-environments per block,
// joined over predecessors, transferred through the block's nodes.
// Reaching-definition sets only grow (union joins over a finite
// universe of assignment expressions), so the fixpoint terminates; the
// budget is a belt-and-braces bound for pathological graphs.
func (f *funcFlow) solveEnvs() bool {
	n := len(f.cfg.blocks)
	f.envIn = make([]originEnv, n)
	for i := range f.envIn {
		f.envIn[i] = originEnv{}
	}
	budget := envBudgetPerBlock*n + 256
	queued := make([]bool, n)
	var queue []*cfgBlock
	push := func(b *cfgBlock) {
		if !queued[b.index] {
			queued[b.index] = true
			queue = append(queue, b)
		}
	}
	for _, b := range f.cfg.rpo {
		push(b)
	}
	for len(queue) > 0 {
		if budget--; budget < 0 {
			return false
		}
		b := queue[0]
		queue = queue[1:]
		queued[b.index] = false
		out := cloneEnv(f.envIn[b.index])
		for _, node := range b.nodes {
			f.transferNode(node, out)
		}
		for _, s := range b.succs {
			if joinEnv(f.envIn[s.index], out) {
				push(s)
			}
		}
	}
	return true
}

// cloneEnv copies the map; the definition slices are copy-on-write
// (transferNode always builds fresh slices when it modifies an entry).
func cloneEnv(env originEnv) originEnv {
	out := make(originEnv, len(env))
	for v, defs := range env {
		out[v] = defs
	}
	return out
}

// joinEnv unions src into dst (pointer-identity dedup), reporting
// whether dst changed.
func joinEnv(dst, src originEnv) bool {
	changed := false
	for v, defs := range src {
		have := dst[v]
		for _, d := range defs {
			found := false
			for _, h := range have {
				if h == d {
					found = true
					break
				}
			}
			if !found {
				// Copy before growing: the backing array may be shared with
				// a predecessor's out-environment.
				have = append(have[:len(have):len(have)], d)
				changed = true
			}
		}
		dst[v] = have
	}
	return changed
}

// transferNode applies one CFG node's effect on the environment.
func (f *funcFlow) transferNode(n ast.Node, env originEnv) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		f.transferAssign(n, env)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					f.transferValueSpec(vs, env)
				}
			}
		}
	case *ast.RangeStmt:
		for _, lhs := range []ast.Expr{n.Key, n.Value} {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := f.lhsVar(id); v != nil {
					env[v] = []ast.Expr{n.X}
				}
			}
		}
	}
}

func (f *funcFlow) transferAssign(as *ast.AssignStmt, env originEnv) {
	set := func(id *ast.Ident, def ast.Expr) {
		if id.Name == "_" {
			return
		}
		v := f.lhsVar(id)
		if v == nil {
			return
		}
		if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			env[v] = []ast.Expr{def}
			return
		}
		// Compound assignment (x += y): the old value still reaches.
		old := env[v]
		env[v] = append(old[:len(old):len(old)], def)
	}
	switch {
	case len(as.Lhs) == len(as.Rhs):
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				set(id, as.Rhs[i])
			}
		}
	case len(as.Rhs) == 1:
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				set(id, as.Rhs[0])
			}
		}
	}
}

func (f *funcFlow) transferValueSpec(vs *ast.ValueSpec, env originEnv) {
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		v, ok := f.info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		switch {
		case len(vs.Values) == len(vs.Names):
			env[v] = []ast.Expr{vs.Values[i]}
		case len(vs.Values) == 1:
			env[v] = []ast.Expr{vs.Values[0]}
		default:
			// Declared without initializer: the zero value reaches. The
			// name identifier is the self-marker trace recognizes as an
			// anonymous literal.
			env[v] = []ast.Expr{name}
		}
	}
}

// envAt reconstructs the environment just before the innermost CFG
// node containing e: the block's in-environment plus the transfers of
// the nodes preceding that node within the block. The package-level
// pseudo-scope has the empty environment. ok is false when the
// fixpoint was abandoned or e has no site in the graph.
func (f *funcFlow) envAt(e ast.Expr) (env originEnv, ok bool) {
	f.solve()
	if f.body == nil {
		return originEnv{}, true
	}
	if f.cfg == nil {
		return nil, false
	}
	site, ok := f.siteOf(e)
	if !ok {
		return nil, false
	}
	env = cloneEnv(f.envIn[site.block.index])
	for i := 0; i < site.index; i++ {
		f.transferNode(site.block.nodes[i], env)
	}
	return env, true
}

// siteOf locates the innermost recorded node whose span contains e.
func (f *funcFlow) siteOf(e ast.Expr) (cfgSite, bool) {
	var best cfgSite
	bestSpan := token.Pos(-1)
	found := false
	for _, b := range f.cfg.blocks {
		for i, n := range b.nodes {
			if n.Pos() <= e.Pos() && e.End() <= n.End() {
				span := n.End() - n.Pos()
				if !found || span < bestSpan {
					best = cfgSite{block: b, index: i}
					bestSpan = span
					found = true
				}
			}
		}
	}
	return best, found
}

// factsFor returns the branch facts that hold at e's program point, or
// nil when the function has no solved graph.
func (f *funcFlow) factsFor(e ast.Expr) []branchFact {
	f.solve()
	if f.cfg == nil {
		return nil
	}
	site, ok := f.siteOf(e)
	if !ok {
		return nil
	}
	return f.cfg.factsAt(site.block)
}

// renderEnvs dumps every block's in-environment deterministically
// (used by the idempotence test: re-solving must reproduce this).
func (f *funcFlow) renderEnvs(fset *token.FileSet) string {
	f.solve()
	if f.cfg == nil {
		return "<unsolved>"
	}
	var sb strings.Builder
	for _, b := range f.cfg.blocks {
		env := f.envIn[b.index]
		var keys []*types.Var
		for v := range env {
			keys = append(keys, v)
		}
		// Deterministic order: by declaration position, then name.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && (keys[j-1].Pos() > keys[j].Pos() ||
				(keys[j-1].Pos() == keys[j].Pos() && keys[j-1].Name() > keys[j].Name())); j-- {
				keys[j-1], keys[j] = keys[j], keys[j-1]
			}
		}
		fmt.Fprintf(&sb, "b%d:", b.index)
		for _, v := range keys {
			var defs []string
			for _, d := range env[v] {
				defs = append(defs, nodeText(fset, d))
			}
			fmt.Fprintf(&sb, " %s=[%s]", v.Name(), strings.Join(defs, ", "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
