// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary used by the simcheck
// determinism linters.
//
// The container this repository is grown in has no module proxy access,
// so the real x/tools module cannot be fetched; this package mirrors the
// subset of its API that the four simcheck analyzers and their drivers
// need (Analyzer, Pass, Diagnostic, Reportf), with the same field names
// and semantics, so the analyzers read exactly like stock go/analysis
// code and could be ported to the real framework by changing one import
// line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis pass: a name (used both for
// diagnostics and for the //simcheck:allow annotation vocabulary), a
// doc string, and a Run function applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	// It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation. The first line is used as a
	// summary by drivers; the rest explains the invariant enforced.
	Doc string

	// Run applies the analyzer to a single type-checked package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with a single package's syntax and
// type information, and collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report is called for each diagnostic. Drivers install it.
	Report func(Diagnostic)
}

// A Diagnostic is a message at a source position, tagged with the
// reporting analyzer's name as its category.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: end of the flagged region, or NoPos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Validate checks that the analyzer list is well formed (unique,
// non-empty names and Run functions) the way x/tools analysis.Validate
// does, so drivers can fail fast on a bad suite.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a == nil {
			return fmt.Errorf("nil *Analyzer in suite")
		}
		if a.Name == "" {
			return fmt.Errorf("analyzer has no name")
		}
		if a.Run == nil {
			return fmt.Errorf("analyzer %q has no Run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
