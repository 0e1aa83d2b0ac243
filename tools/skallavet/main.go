// Command skallavet is Skalla's invariant checker: a multi-analyzer static
// analysis suite run as `go vet -vettool=$(command -v skallavet) ./...` (or
// simply `skallavet ./...`, which re-execs go vet). Each analyzer is an
// executable design rule — see DESIGN.md §10 for the rule → origin-PR →
// rationale table.
//
// `skallavet -audit-allows ./...` additionally fails on stale
// //skallavet:allow suppressions.
package main

import (
	"skalla/tools/skallavet/analyzers/chargepair"
	"skalla/tools/skallavet/analyzers/ctxcall"
	"skalla/tools/skallavet/analyzers/errclass"
	"skalla/tools/skallavet/analyzers/goroutinelife"
	"skalla/tools/skallavet/analyzers/lockorder"
	"skalla/tools/skallavet/analyzers/metricname"
	"skalla/tools/skallavet/analyzers/nostdlog"
	"skalla/tools/skallavet/analyzers/rulename"
	"skalla/tools/skallavet/analyzers/stringkey"
	"skalla/tools/skallavet/internal/vetdriver"
)

func main() {
	vetdriver.Main(
		stringkey.Analyzer,
		ctxcall.Analyzer,
		nostdlog.Analyzer,
		metricname.Analyzer,
		rulename.Analyzer,
		lockorder.Analyzer,
		goroutinelife.Analyzer,
		chargepair.Analyzer,
		errclass.Analyzer,
	)
}
