package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// guardFact is one branch condition known to hold (when=true) or fail
// (when=false) wherever a node executes.
type guardFact struct {
	cond ast.Expr
	when bool
}

// guardFacts collects the branch facts that hold at n, whose ancestors
// (outermost first) are stack. Two shapes establish a fact:
//
//   - an enclosing `if c`: c holds in its body and fails in its else;
//   - an earlier `if c { ...; return | continue | break | panic(...) }`
//     without else in an enclosing statement list: the statements after
//     it run only when c failed. A label between that `if` and n voids
//     the fact, since a goto may land there; a body ending in goto
//     gives no fact, since a forward goto can land later in the list.
//
// The walk stops at the enclosing function: a guard outside a function
// literal says nothing about when the literal runs. A fact describes
// the condition when it was evaluated; like the origin layer
// (dataflow.go), it does not track reassignments between guard and n.
func guardFacts(info *types.Info, stack []ast.Node, n ast.Node) []guardFact {
	var facts []guardFact
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return facts
		case *ast.IfStmt:
			switch child {
			case anc.Body:
				facts = append(facts, guardFact{anc.Cond, true})
			case anc.Else:
				facts = append(facts, guardFact{anc.Cond, false})
			}
		case *ast.BlockStmt:
			facts = append(facts, exitFacts(info, anc.List, child)...)
		case *ast.CaseClause:
			facts = append(facts, exitFacts(info, anc.Body, child)...)
		case *ast.CommClause:
			facts = append(facts, exitFacts(info, anc.Body, child)...)
		}
		child = stack[i]
	}
	return facts
}

// exitFacts returns the false facts of the early-exit ifs that precede
// child in list, counted from the last label at or before it. A
// labeled if is itself a landing point and gives no fact.
func exitFacts(info *types.Info, list []ast.Stmt, child ast.Node) []guardFact {
	var facts []guardFact
	for _, s := range list {
		if _, ok := s.(*ast.LabeledStmt); ok {
			facts = nil // a goto may land here, past every earlier guard
		}
		if ast.Node(s) == child {
			return facts
		}
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && exits(info, ifs.Body) {
			facts = append(facts, guardFact{ifs.Cond, false})
		}
	}
	return nil
}

// exits reports whether a block's last statement leaves the enclosing
// statement list for good: return, break, continue, or panic.
func exits(info *types.Info, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(info, call, "panic")
	}
	return false
}
