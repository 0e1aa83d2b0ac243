// Package chargepair enforces the staged-merge budget protocol of
// skalla/internal/core: memory charged into an hStage must always be
// resolved, and charge errors must never be dropped.
//
// Rule 1 (stage resolution): every *hStage binding — `st := mg.NewStage(k)`,
// a receive `st := <-stages` (plain or select comm), or a range binding
// `for st := range stages` — must reach, on every path from the binding, a
// resolution of st before st is rebound, the next iteration begins, or the
// function exits. Resolutions are st.Discard(), passing st to a call
// (CommitStage or any transfer), sending st on a channel, returning it, or
// storing it. Method calls on st (st.Add) and field reads are uses, not
// resolutions — a stage that is filled and then dropped on an error path
// leaks its budget charge and its pooled blocks. The check runs on the analysis/flow CFG: range bindings
// are bounded by the loop back edge, and a path that blocks forever (a
// committed retry loop) satisfies vacuously.
//
// Rule 2 (charge errors): the error results of (*memBudget).charge and
// (*hStage).Add must be used. An ignored charge error means the operation
// proceeds past its memory budget and the accounting drifts for the rest of
// the query.
package chargepair

import (
	"go/ast"
	"go/token"
	"go/types"

	"skalla/tools/skallavet/analysis"
	"skalla/tools/skallavet/analysis/flow"
)

// corePath is the package whose protocol this rule encodes; the types are
// unexported, so the rule cannot trigger anywhere else.
const corePath = "skalla/internal/core"

// Analyzer is the chargepair rule.
var Analyzer = &analysis.Analyzer{
	Name: "chargepair",
	Doc:  "every hStage must reach Discard or a commit/transfer on all paths; charge/Add errors must be checked",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkBody(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkBody(lit.Body)
				}
				return true
			})
		}
		c.checkChargeErrors(file)
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// binding is one point that takes ownership of a fresh *hStage.
type binding struct {
	obj  types.Object
	node ast.Node       // CFG node of the binding
	rng  *ast.RangeStmt // non-nil for range bindings
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	g := flow.New(body)
	var binds []binding
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				binds = append(binds, c.assignBindings(n)...)
			case *ast.RangeStmt:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
					if obj := c.pass.Info.Defs[id]; obj != nil && c.isStage(obj.Type()) {
						binds = append(binds, binding{obj: obj, node: n, rng: n})
					}
				}
			}
		}
	}
	for _, bind := range binds {
		c.checkBinding(g, bind)
	}
}

// assignBindings extracts *hStage bindings from an assignment: a NewStage
// call or a channel receive on the right-hand side.
func (c *checker) assignBindings(as *ast.AssignStmt) []binding {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	var out []binding
	for i, rhs := range as.Rhs {
		fresh := false
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			fresh = c.isNewStageCall(rhs)
		case *ast.UnaryExpr:
			if rhs.Op == token.ARROW {
				if tv, ok := c.pass.Info.Types[rhs]; ok {
					fresh = c.isStage(tv.Type)
				}
			}
		}
		if !fresh {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if obj != nil {
			out = append(out, binding{obj: obj, node: as})
		}
	}
	return out
}

func (c *checker) checkBinding(g *flow.Graph, bind binding) {
	resolve := func(n ast.Node) bool { return n != bind.node && c.resolves(n, bind.obj) }
	var ok bool
	if bind.rng != nil {
		// Per-iteration obligation: from the loop body, resolve before the
		// back edge rebinds (boundary = the RangeStmt header node).
		ok = g.MustReachBlock(g.RangeBody(bind.rng), resolve,
			func(n ast.Node) bool { return n == ast.Node(bind.rng) })
	} else {
		// From the binding: resolve before st is rebound or the function
		// exits.
		ok = g.MustReach(bind.node, resolve,
			func(n ast.Node) bool { return c.rebinds(n, bind.obj) })
	}
	if !ok {
		c.pass.Reportf(bind.node.Pos(),
			"hStage %s can be dropped without Discard or commit on some path: its budget charge and pooled blocks leak; Discard on every non-commit path",
			bind.obj.Name())
	}
}

// resolves reports whether CFG node n resolves the stage: Discard on it,
// passing it to a call, sending it, returning it, or storing it. Mentions
// that are only the base of a selector (st.Add(...), st.bytes) do not
// resolve.
func (c *checker) resolves(n ast.Node, st types.Object) bool {
	// go/defer statements are opaque to flow.Shallow, but their call
	// arguments are evaluated when the statement executes: `go commit(st)`
	// transfers the stage and `defer st.Discard()` resolves it at exit.
	// Scan the call instead (Shallow still keeps nested literal bodies
	// out, so a closure's shadowing parameter is not mistaken for st).
	switch stmt := n.(type) {
	case *ast.GoStmt:
		n = stmt.Call
	case *ast.DeferStmt:
		n = stmt.Call
	}
	selBase := map[*ast.Ident]bool{}
	discard := false
	flow.Shallow(n, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && c.pass.Info.Uses[id] == st {
			if sel.Sel.Name == "Discard" {
				discard = true
			} else {
				selBase[id] = true
			}
		}
		return true
	})
	if discard {
		return true
	}
	found := false
	flow.Shallow(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && c.pass.Info.Uses[id] == st && !selBase[id] {
			found = true
			return false
		}
		return true
	})
	return found
}

// rebinds reports whether node n assigns a new value to st.
func (c *checker) rebinds(n ast.Node, st types.Object) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if c.pass.Info.Uses[id] == st || c.pass.Info.Defs[id] == st {
				return true
			}
		}
	}
	return false
}

// isStage matches *hStage (or hStage) from skalla/internal/core.
func (c *checker) isStage(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "hStage" && obj.Pkg() != nil && obj.Pkg().Path() == corePath
}

// isNewStageCall matches (*merger).NewStage.
func (c *checker) isNewStageCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewStage" {
		return false
	}
	fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == corePath
}

// checkChargeErrors flags charge/Add calls whose error result is dropped:
// expression statements, go/defer statements, and assignments to blank.
func (c *checker) checkChargeErrors(file *ast.File) {
	if c.pass.IsTestFile(file.Pos()) {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			call = n.Call
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					call, _ = n.Rhs[0].(*ast.CallExpr)
				}
			}
		}
		if call == nil {
			return true
		}
		if name, ok := c.chargeLike(call); ok {
			c.pass.Reportf(call.Pos(),
				"error from %s ignored: a failed charge must abort the operation, or the memory budget accounting drifts for the rest of the query",
				name)
		}
		return true
	})
}

// chargeLike matches (*memBudget).charge and (*hStage).Add.
func (c *checker) chargeLike(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != corePath {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	switch {
	case named.Obj().Name() == "memBudget" && fn.Name() == "charge":
		return "memBudget.charge", true
	case named.Obj().Name() == "hStage" && fn.Name() == "Add":
		return "hStage.Add", true
	}
	return "", false
}
