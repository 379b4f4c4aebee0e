// Package gobcheck fences the gob codec boundary: all gob encoding — raw
// encoding/gob encoder/decoder construction and the byte-level
// dist.Marshal/Unmarshal/MustMarshal helpers — lives in
// internal/dist/typed.go (the typed-adapter boundary, where gob is the
// payload codec) and internal/wire. Application and runtime code
// everywhere else works with typed values and lets the adapters own the
// bytes; a stray codec call outside the boundary is how payload formats
// drift apart between server and donor. (The control channel's flat
// encoding needs no fence: the only way onto a connection is the wire
// mux, whose constructors run the version exchange themselves.)
package gobcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the gobcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "gobcheck",
	Doc:  "no gob.NewEncoder/NewDecoder or dist.Marshal outside internal/dist/typed.go and internal/wire",
	Run:  run,
}

// distCodecFuncs are the byte-level codec helpers confined to the
// boundary along with raw gob.
var distCodecFuncs = map[string]bool{
	"Marshal": true, "Unmarshal": true, "MustMarshal": true,
}

func run(pass *framework.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/wire") {
		return nil // inside the boundary
	}
	inDist := strings.HasSuffix(pass.Pkg.Path(), "internal/dist")
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if inDist && base == "typed.go" {
			continue // the gob boundary file
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			report(pass, sel.Sel.Pos(), fn)
			return true
		})
		if inDist {
			// Within the dist package the codec helpers are called
			// unqualified; catch those references too.
			ast.Inspect(file, func(n ast.Node) bool {
				ident, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[ident].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
					return true
				}
				report(pass, ident.Pos(), fn)
				return true
			})
		}
	}
	return nil
}

// report flags one reference to a fenced codec function.
func report(pass *framework.Pass, pos token.Pos, fn *types.Func) {
	path := fn.Pkg().Path()
	switch {
	case path == "encoding/gob" && (fn.Name() == "NewEncoder" || fn.Name() == "NewDecoder"):
		pass.Reportf(pos,
			"gob.%s outside the codec boundary (internal/dist/typed.go, internal/wire); use the typed adapters or Encode/Decode",
			fn.Name())
	case strings.HasSuffix(path, "internal/dist") && distCodecFuncs[fn.Name()]:
		pass.Reportf(pos,
			"dist.%s outside the codec boundary (internal/dist/typed.go, internal/wire); use the typed adapters or Encode/Decode",
			fn.Name())
	}
}
