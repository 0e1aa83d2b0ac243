// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis core: just enough surface (Analyzer, Pass,
// diagnostics, directive-based suppression, serialized object facts) to write
// Skalla's invariant checkers against, without pulling an external module
// into the build. The API deliberately mirrors x/tools so the analyzers read
// familiarly and could be ported onto the real framework if a vendored copy
// ever becomes available.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //skallavet:allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// FactTypes lists prototypes of the facts the analyzer exports. A
	// non-empty list makes the driver run the analyzer on dependency
	// packages too (facts-only, diagnostics discarded), so importers can
	// see across the package boundary.
	FactTypes []Fact
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info is the type information for Files.
	Info *types.Info
	// Dir is the directory containing the package's source files; analyzers
	// that read side files (e.g. the lockorder hierarchy) resolve them
	// against it.
	Dir string

	report      func(Diagnostic)
	exported    map[string]json.RawMessage
	importFacts map[string]PackageFacts
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file enclosing pos is a _test.go file.
// Invariants about library code do not apply to tests, which routinely use
// context.Background, std-log output, and string-keyed fixtures.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Finding is a diagnostic resolved to a concrete position, tagged with the
// analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Package bundles a loaded, type-checked package for the runner.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Dir   string
}

// Config controls one runner invocation beyond the package itself.
type Config struct {
	// ImportFacts maps dependency package paths to their exported facts
	// (decoded from their vetx files).
	ImportFacts map[string]PackageFacts
	// FactsOnly suppresses diagnostics: the run exists to compute this
	// package's facts for its importers (the driver's VetxOnly passes).
	FactsOnly bool
	// AuditAllows reports stale //skallavet:allow directives — directives
	// none of whose named rules produced a diagnostic on their line — as
	// findings, in addition to the surviving diagnostics.
	AuditAllows bool
	// ExtraFiles are package-directory Go files excluded from this build
	// (build-tag-excluded files, and _test.go files in a non-test variant).
	// Their directives cannot suppress anything — the analyzers never see
	// those lines — but the audit scans them so a suppression rotting in an
	// excluded file is flagged instead of silently waiting to mask a hit
	// when the file rejoins the build.
	ExtraFiles []string
}

// Run applies analyzers to one package and returns the surviving findings,
// with //skallavet:allow suppressions already applied and results ordered by
// position, plus the package's exported facts for its vetx file.
//
// Analyzers run concurrently — they are independent given the shared
// read-only package — and their diagnostics and facts are merged
// deterministically afterwards.
func Run(pkg *Package, analyzers []*Analyzer, cfg Config) ([]Finding, PackageFacts, error) {
	allow := collectAllows(pkg.Fset, pkg.Files)

	type result struct {
		diags []Diagnostic
		facts map[string]json.RawMessage
		err   error
	}
	results := make([]result, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				Info:        pkg.Info,
				Dir:         pkg.Dir,
				importFacts: cfg.ImportFacts,
			}
			pass.report = func(d Diagnostic) { results[i].diags = append(results[i].diags, d) }
			results[i].err = a.Run(pass)
			results[i].facts = pass.exported
		}(i, a)
	}
	wg.Wait()

	var out []Finding
	var facts PackageFacts
	for i, a := range analyzers {
		if err := results[i].err; err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		facts = mergeFacts(facts, a.Name, results[i].facts)
		if cfg.FactsOnly {
			continue
		}
		for _, d := range results[i].diags {
			posn := pkg.Fset.Position(d.Pos)
			if allow.allows(a.Name, posn) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message})
		}
	}
	if cfg.AuditAllows && !cfg.FactsOnly {
		out = append(out, auditAllows(allow, analyzers)...)
		out = append(out, auditExcludedFiles(cfg.ExtraFiles)...)
	}
	sortFindings(out)
	return out, facts, nil
}

func sortFindings(fs []Finding) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && lessFinding(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFinding(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	return a.Pos.Column < b.Pos.Column
}
