// Package errclass enforces retry-safe error classification: every error
// that can reach the coordinator's withRetry driver must be *classified* —
// either wrapped as a permanentError (retrying cannot fix it, and repeating
// the attempt could re-apply a non-idempotent failure) or derived from a
// whitelisted retryable source. An unclassified error silently lands in the
// "retryable" bucket, which is exactly how a data-corruption error becomes
// a retried data-corruption error.
//
// Retry-scoped code is found syntactically and through facts:
//
//   - a function literal passed to (*Coordinator).withRetry;
//   - a literal or named function passed in a func-typed argument to a
//     *retry forwarder* — a function (like fanOut) that invokes one of
//     its func parameters inside retry-scoped code; forwarder-ness crosses
//     package boundaries via the exported fact;
//   - any literal defined inside retry-scoped code (stream callbacks whose
//     errors propagate to the attempt result).
//
// Within retry-scoped code, every returned error expression must resolve to
// an OK source: nil, ctx.Err() / the context sentinel errors, a
// &permanentError{...} wrap, a call on a skalla/internal/transport type
// (site RPCs are the retryable class by design), a call to a function whose
// own returns are all classified (computed here, exported as a fact), a
// call through a func-typed value (classified at whatever site supplied
// it), or fmt.Errorf with %w wrapping an OK error. Fresh errors
// (errors.New, fmt.Errorf without %w) and calls to unclassified functions
// are flagged at the return site.
package errclass

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"skalla/tools/skallavet/analysis"
)

const (
	corePath      = "skalla/internal/core"
	transportPath = "skalla/internal/transport"
)

// errClassFact is the exported classification of a function.
type errClassFact struct {
	// Classified: every error return resolves to an OK source.
	Classified bool `json:"classified,omitempty"`
	// ForwardParams lists indices of func-typed parameters the function
	// invokes inside retry-scoped code.
	ForwardParams []int `json:"forwardParams,omitempty"`
}

func (*errClassFact) AFact() {}

// Analyzer is the errclass rule.
var Analyzer = &analysis.Analyzer{
	Name:      "errclass",
	Doc:       "errors reaching withRetry must be classified permanent or derived from a whitelisted retryable source",
	Run:       run,
	FactTypes: []analysis.Fact{(*errClassFact)(nil)},
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		classified: map[types.Object]bool{},
		forwards:   map[types.Object][]int{},
		decls:      map[types.Object]*ast.FuncDecl{},
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					c.decls[obj] = fd
				}
			}
		}
	}

	// Fixpoint 1: classified functions (a function calling a classified
	// same-package helper classifies once the helper does).
	for changed := true; changed; {
		changed = false
		for obj, fd := range c.decls {
			if c.classified[obj] {
				continue
			}
			if c.fnClassified(fd) {
				c.classified[obj] = true
				changed = true
			}
		}
	}
	// Fixpoint 2: retry forwarders (forwarding can chain through local
	// helpers before reaching withRetry).
	for changed := true; changed; {
		changed = false
		for obj, fd := range c.decls {
			idxs := c.forwardParams(fd)
			if len(idxs) > len(c.forwards[obj]) {
				c.forwards[obj] = idxs
				changed = true
			}
		}
	}
	for obj := range c.decls {
		fact := &errClassFact{Classified: c.classified[obj], ForwardParams: c.forwards[obj]}
		if fact.Classified || len(fact.ForwardParams) > 0 {
			pass.ExportObjectFact(obj, fact)
		}
	}

	// Report inside every retry-scoped literal, and on named functions
	// handed into retry positions.
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, idx := range c.retryFnArgs(call) {
				if idx >= len(call.Args) {
					continue
				}
				c.checkRetryArg(call.Args[idx])
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass       *analysis.Pass
	classified map[types.Object]bool
	forwards   map[types.Object][]int
	decls      map[types.Object]*ast.FuncDecl
}

// retryFnArgs returns the argument indices of call that enter the retry
// path: the final fn of withRetry itself, or the forwarded func params of a
// forwarder (local map or imported fact).
func (c *checker) retryFnArgs(call *ast.CallExpr) []int {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := c.pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if fn.Name() == "withRetry" && fn.Pkg().Path() == corePath {
		return []int{len(call.Args) - 1}
	}
	if fn.Pkg().Path() == c.pass.Pkg.Path() {
		if obj, ok := c.lookupLocal(fn); ok {
			return c.forwards[obj]
		}
		return nil
	}
	var fact errClassFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.ForwardParams
	}
	return nil
}

// lookupLocal maps a used *types.Func back to the Defs object keying the
// local maps.
func (c *checker) lookupLocal(fn *types.Func) (types.Object, bool) {
	if _, ok := c.decls[fn]; ok {
		return fn, true
	}
	return nil, false
}

// checkRetryArg validates one expression flowing into a retry fn position.
func (c *checker) checkRetryArg(arg ast.Expr) {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		c.checkScopedLit(arg)
	case *ast.Ident, *ast.SelectorExpr:
		var id *ast.Ident
		if sel, ok := arg.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else {
			id = arg.(*ast.Ident)
		}
		fn, ok := c.pass.Info.Uses[id].(*types.Func)
		if !ok {
			return // a func-typed variable: classified where it was built
		}
		if c.fnIsClassified(fn) {
			return
		}
		c.pass.Reportf(arg.Pos(),
			"%s enters the retry path but returns unclassified errors; wrap permanent failures in &permanentError{...} or derive errors from a whitelisted retryable source",
			fn.Name())
	}
}

// fnIsClassified resolves a named function's classification locally or via
// fact.
func (c *checker) fnIsClassified(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == c.pass.Pkg.Path() {
		return c.classified[fn]
	}
	var fact errClassFact
	return c.pass.ImportObjectFact(fn, &fact) && fact.Classified
}

// checkScopedLit reports every unclassified error return in a retry-scoped
// literal, including literals nested inside it.
func (c *checker) checkScopedLit(lit *ast.FuncLit) {
	c.checkReturns(lit.Type, lit.Body, true)
}

// checkReturns validates the error returns of one function body. When
// nested is true, literals defined inside are retry-scoped too and are
// checked with their own signatures.
func (c *checker) checkReturns(ftyp *ast.FuncType, body *ast.BlockStmt, nested bool) bool {
	ok := true
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if nested {
				if !c.checkReturns(n.Type, n.Body, true) {
					ok = false
				}
			}
			return false
		case *ast.ReturnStmt:
			if !c.checkReturnStmt(ftyp, n, nested) {
				ok = false
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return ok
}

// checkReturnStmt classifies the error result of one return. Reports (and
// returns false) only when report is true; the classification fixpoint
// calls it silently.
func (c *checker) checkReturnStmt(ftyp *ast.FuncType, ret *ast.ReturnStmt, report bool) bool {
	errIdx, errObj := errorResult(c.pass, ftyp)
	if errIdx < 0 {
		return true
	}
	var expr ast.Expr
	switch {
	case len(ret.Results) == 0:
		// Naked return: classify the named result variable.
		if errObj == nil {
			return true
		}
		if c.okVar(errObj, map[types.Object]bool{}) {
			return true
		}
		if report {
			c.reportReturn(ret.Pos())
		}
		return false
	case len(ret.Results) == 1 && errIdx > 0:
		// Tuple forward: `return f(...)`.
		expr = ret.Results[0]
	case errIdx < len(ret.Results):
		expr = ret.Results[errIdx]
	default:
		return true
	}
	if c.okErr(expr, map[types.Object]bool{}) {
		return true
	}
	if report {
		c.reportReturn(expr.Pos())
	}
	return false
}

func (c *checker) reportReturn(pos token.Pos) {
	c.pass.Reportf(pos,
		"unclassified error on a retry path: retrying may repeat a non-idempotent failure; wrap it in &permanentError{...} or derive it from a whitelisted retryable source")
}

// fnClassified decides whether a declared function's own error returns are
// all classified (no reporting — feeds the fixpoint and the fact).
func (c *checker) fnClassified(fd *ast.FuncDecl) bool {
	if idx, _ := errorResult(c.pass, fd.Type); idx < 0 {
		return false // no error result: never meaningful in error position
	}
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literal returns are not this function's
		case *ast.ReturnStmt:
			if !c.checkReturnStmt(fd.Type, n, false) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// forwardParams finds func-typed parameters of fd that are invoked inside
// fd's retry-scoped literals (arguments to withRetry or to other
// forwarders, plus their nested literals).
func (c *checker) forwardParams(fd *ast.FuncDecl) []int {
	params := map[types.Object]int{}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := c.pass.Info.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Signature); ok {
						params[obj] = i
					}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	if len(params) == 0 {
		return nil
	}
	found := map[int]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, idx := range c.retryFnArgs(call) {
			if idx < 0 || idx >= len(call.Args) {
				continue
			}
			lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit, func(m ast.Node) bool {
				inner, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok {
					if idx, ok := params[c.pass.Info.Uses[id]]; ok {
						found[idx] = true
					}
				}
				return true
			})
		}
		return true
	})
	if len(found) == 0 {
		return nil
	}
	out := make([]int, 0, len(found))
	for idx := range found {
		out = append(out, idx)
	}
	// insertion sort — keep facts deterministic
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// errorResult locates the error result in a signature: its index, and the
// named result object when present.
func errorResult(pass *analysis.Pass, ftyp *ast.FuncType) (int, types.Object) {
	if ftyp.Results == nil {
		return -1, nil
	}
	idx := 0
	lastIdx, lastObjIdx := -1, -1
	var obj types.Object
	for _, field := range ftyp.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if tv, ok := pass.Info.Types[field.Type]; ok && isErrorType(tv.Type) {
			lastIdx = idx + n - 1
			if len(field.Names) > 0 {
				lastObjIdx = len(field.Names) - 1
				obj = pass.Info.Defs[field.Names[lastObjIdx]]
			} else {
				obj = nil
			}
		}
		idx += n
	}
	return lastIdx, obj
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// okErr classifies one error expression.
func (c *checker) okErr(e ast.Expr, seen map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := c.pass.Info.Uses[e]
		if obj == nil {
			return false
		}
		return c.okVar(obj, seen)
	case *ast.CallExpr:
		return c.okErrCall(e, seen)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if lit, ok := e.X.(*ast.CompositeLit); ok {
				return c.isPermanent(lit)
			}
		}
	case *ast.CompositeLit:
		return c.isPermanent(e)
	case *ast.SelectorExpr:
		// context.Canceled / context.DeadlineExceeded sentinels.
		if v, ok := c.pass.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Pkg().Path() == "context" &&
			(v.Name() == "Canceled" || v.Name() == "DeadlineExceeded") {
			return true
		}
	}
	return false
}

// okVar classifies a variable: every assignment to it must be an OK source.
func (c *checker) okVar(obj types.Object, seen map[types.Object]bool) bool {
	if seen[obj] {
		return true // cycle: optimistic, the other assignments decide
	}
	seen[obj] = true
	assigns := c.assignmentsTo(obj)
	if len(assigns) == 0 {
		return false
	}
	for _, e := range assigns {
		if !c.okErr(e, seen) {
			return false
		}
	}
	return true
}

// assignmentsTo finds every expression assigned to obj anywhere in the
// package (obj is local, so this resolves within its declaring file).
func (c *checker) assignmentsTo(obj types.Object) []ast.Expr {
	var out []ast.Expr
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || (c.pass.Info.Defs[id] != obj && c.pass.Info.Uses[id] != obj) {
					continue
				}
				if len(as.Rhs) == len(as.Lhs) {
					out = append(out, as.Rhs[i])
				} else if len(as.Rhs) == 1 {
					out = append(out, as.Rhs[0]) // tuple: classify the call
				}
			}
			return true
		})
	}
	return out
}

// okErrCall classifies a call in error position.
func (c *checker) okErrCall(call *ast.CallExpr, seen map[types.Object]bool) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := c.pass.Info.Uses[fun].(type) {
		case *types.Func:
			return c.namedCallOK(obj, call, seen)
		case *types.Var:
			// Calling through a func value (callback param): classified at
			// whatever site supplied the callback.
			return true
		}
	case *ast.SelectorExpr:
		if fn, ok := c.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			// ctx.Err() and friends.
			if fn.Name() == "Err" {
				if tv, ok := c.pass.Info.Types[fun.X]; ok && isContext(tv.Type) {
					return true
				}
			}
			if recvInTransport(fn) {
				return true
			}
			return c.namedCallOK(fn, call, seen)
		}
		if _, ok := c.pass.Info.Uses[fun.Sel].(*types.Var); ok {
			return true // func-valued field/closure
		}
	}
	return false
}

// namedCallOK classifies a call to a named function: the fmt/errors
// builtins get bespoke rules, everything else resolves through the
// classification fixpoint or facts.
func (c *checker) namedCallOK(fn *types.Func, call *ast.CallExpr, seen map[types.Object]bool) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "errors":
		return false // errors.New / errors.Join: fresh, unclassified
	case "fmt":
		if fn.Name() != "Errorf" || len(call.Args) == 0 {
			return false
		}
		format, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || !strings.Contains(format.Value, "%w") {
			return false
		}
		// %w-wrapping preserves classification iff the wrapped errors are
		// themselves OK.
		for _, arg := range call.Args[1:] {
			if tv, ok := c.pass.Info.Types[arg]; ok && isErrorType(tv.Type) {
				if !c.okErr(arg, seen) {
					return false
				}
			}
		}
		return true
	}
	return c.fnIsClassified(fn)
}

// isPermanent matches the permanentError composite from core.
func (c *checker) isPermanent(lit *ast.CompositeLit) bool {
	tv, ok := c.pass.Info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "permanentError" && obj.Pkg() != nil && obj.Pkg().Path() == corePath
}

func recvInTransport(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == transportPath
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
