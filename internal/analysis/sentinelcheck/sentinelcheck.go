// Package sentinelcheck forbids identity comparison of sentinel errors.
//
// The runtime's sentinels (dist.ErrClosed, dist.ErrServerGone,
// dist.ErrForgotten, wire.ErrCorruptFrame, wire.ErrDigestMismatch)
// routinely cross wrap boundaries — %w wrapping, the control mux's status
// codes, the donor's transient-error envelopes — so
// `err == ErrClosed` silently stops matching the moment anyone adds
// context to the chain. Comparisons (== / != and switch cases) against a
// sentinel must go through errors.Is instead.
//
// A sentinel is any package-level exported `Err*` variable of type error
// declared in this module. Stdlib sentinels like io.EOF are left alone:
// parts of the io contract are specified as identity comparisons.
package sentinelcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the sentinelcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "sentinelcheck",
	Doc:  "sentinel errors must be matched with errors.Is, never == or switch",
	Run:  run,
}

func run(pass *framework.Pass) error {
	modulePrefix := modulePrefixOf(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if v, ok := sentinel(pass, operand, modulePrefix); ok {
						pass.Reportf(n.Pos(),
							"sentinel %s compared with %s; use errors.Is(err, %s)",
							v.Name(), n.Op, v.Name())
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[n.Tag]; !ok || !isErrorType(tv.Type) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range cc.List {
						if v, ok := sentinel(pass, expr, modulePrefix); ok {
							pass.Reportf(expr.Pos(),
								"sentinel %s matched by switch case (identity comparison); use errors.Is(err, %s)",
								v.Name(), v.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinel reports whether expr references a sentinel error variable.
func sentinel(pass *framework.Pass, expr ast.Expr, modulePrefix string) (*types.Var, bool) {
	var ident *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return nil, false
	}
	v, ok := pass.TypesInfo.Uses[ident].(*types.Var)
	if !ok || v.Pkg() == nil || !isErrorType(v.Type()) {
		return nil, false
	}
	// Package-level variables only: a local `err` never names a sentinel.
	if v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	path := v.Pkg().Path()
	if !strings.HasPrefix(v.Name(), "Err") || !v.Exported() {
		return nil, false
	}
	if path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/") {
		return v, true
	}
	return nil, false
}

// modulePrefixOf derives the module root from an import path: the
// analyzed tree's own packages all live under it, so a sentinel imported
// from a sibling package is recognised without configuration.
func modulePrefixOf(pkgPath string) string {
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
