// Package ctxcheck enforces the v2 API's context discipline:
//
//  1. A function taking a context.Context takes it as its first
//     parameter — the convention every exported dist/core entry point
//     follows, checked everywhere so internal helpers cannot drift.
//  2. Library code (any non-main package) must not mint its own root
//     context with context.Background() or context.TODO(): the caller's
//     context carries cancellation, and swallowing it severs the
//     cancellation chain PR 3 threaded through the runtime. Sites that
//     legitimately have no caller context — the root of a control
//     connection's ctx, nil-ctx normalisation in public entry points — are
//     annotated //dist:allow-background (on the enclosing function's doc
//     comment or on the call's own line).
package ctxcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the ctxcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "ctxcheck",
	Doc:  "context.Context goes first; no context.Background/TODO in library code without //dist:allow-background",
	Run:  run,
}

func run(pass *framework.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Body == nil || isMain {
				continue
			}
			checkNoBackground(pass, file, fd)
		}
	}
	return nil
}

// checkCtxFirst reports context.Context parameters in any position but
// the first.
func checkCtxFirst(pass *framework.Pass, fd *ast.FuncDecl) {
	params := fd.Type.Params
	if params == nil {
		return
	}
	index := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && index > 0 {
			pass.Reportf(field.Pos(),
				"%s takes context.Context as parameter %d; context.Context must be the first parameter",
				fd.Name.Name, index+1)
		}
		index += n
	}
}

// checkNoBackground reports context.Background/TODO calls in library code
// that lack an //dist:allow-background annotation.
func checkNoBackground(pass *framework.Pass, file *ast.File, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if framework.AllowBackground(pass, file, fd, call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() in library code severs the caller's cancellation chain; thread a ctx parameter or annotate the site //dist:allow-background",
			sel.Sel.Name)
		return true
	})
}

// isContextType reports whether the parameter type is context.Context.
func isContextType(pass *framework.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
