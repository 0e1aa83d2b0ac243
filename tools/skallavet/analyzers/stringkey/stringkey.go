// Package stringkey enforces the PR-1 data-plane invariant: hot-path
// packages group and index tuples through hashed 64-bit keys
// (relation.KeyIndex, the scalar link index, and relation.KeyTable, the
// open-addressed table that keeps each key once), never through string-keyed
// maps or string-concatenated composite keys. The hashed-key refactor cut
// sync-merge allocations ~70%; a single `map[string]` reintroduced on a
// per-tuple path silently gives that back.
//
// Two patterns are flagged inside the hot-path package list:
//
//  1. any map type with a string key (declaration, field, make, literal);
//  2. indexing any string-keyed map with a synthesized key — a `+`
//     concatenation or an fmt.Sprintf result — which is the classic
//     composite-group-key smell even when the map itself is declared in a
//     colder package.
//
// Cold-path uses inside those packages (schema caches, table registries)
// carry a `//skallavet:allow stringkey -- reason` directive; the directive
// is the documentation that the map is not on a per-tuple path.
package stringkey

import (
	"go/ast"
	"go/types"

	"skalla/tools/skallavet/analysis"
)

// HotPackages lists the import paths under enforcement. Membership means
// "tuples flow through here per row"; extend it as new hot paths appear.
var HotPackages = map[string]bool{
	"skalla/internal/relation": true,
	"skalla/internal/core":     true,
	"skalla/internal/engine":   true,
	"skalla/internal/store":    true,
	"skalla/internal/gmdj":     true,
}

// Analyzer is the stringkey rule.
var Analyzer = &analysis.Analyzer{
	Name: "stringkey",
	Doc:  "forbid string-keyed maps and concatenated string group keys in hot-path packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !HotPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				if isString(pass.Info.TypeOf(n.Key)) {
					pass.Reportf(n.Pos(),
						"string-keyed map in hot-path package %s: group and index tuples with hashed keys (relation.KeyIndex/KeyTable), or annotate a cold-path use with //skallavet:allow stringkey -- <reason>",
						pass.Pkg.Path())
				}
			case *ast.IndexExpr:
				t := pass.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				m, ok := t.Underlying().(*types.Map)
				if !ok || !isString(m.Key()) {
					return true
				}
				if synthesizedKey(pass, n.Index) {
					pass.Reportf(n.Index.Pos(),
						"string-concatenated map key in hot-path package %s: this is a composite group key — use hashed keys (relation.KeyIndex/KeyTable) instead of string synthesis",
						pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// synthesizedKey reports whether expr builds a string at the use site: a +
// concatenation of strings or an fmt.Sprintf call.
func synthesizedKey(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return synthesizedKey(pass, e.X)
	case *ast.BinaryExpr:
		return e.Op.String() == "+" && isString(pass.Info.TypeOf(e))
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf"
	}
	return false
}
