// Package gobcheck fences the two codec boundaries: all gob encoding — raw
// encoding/gob encoder/decoder construction and the byte-level
// dist.Marshal/Unmarshal/MustMarshal helpers — lives in
// internal/dist/typed.go (the typed-adapter boundary, where gob is the
// payload codec) and internal/wire; and the control channel's rpc codec
// constructors (wire.NewFlatClientCodec/NewFlatServerCodec) are called only
// from internal/dist/net.go, where Dial and serveControlConn exchange the
// protocol-version preamble before putting the codec on a connection.
// Application and runtime code everywhere else works with typed values and
// lets the adapters own the bytes; a stray codec call outside the boundary
// is how payload formats drift apart between server and donor — and a flat
// codec on a connection that skipped the version exchange is how two
// incompatible encodings end up misframing each other.
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
	Doc:  "no gob.NewEncoder/NewDecoder or dist.Marshal outside internal/dist/typed.go and internal/wire; no wire.NewFlat*Codec outside internal/dist/net.go and internal/wire",
	Run:  run,
}

// distCodecFuncs are the byte-level codec helpers confined to the
// boundary along with raw gob.
var distCodecFuncs = map[string]bool{
	"Marshal": true, "Unmarshal": true, "MustMarshal": true,
}

// flatCodecFuncs are wire's flat-codec constructors — the only way to put
// the flat encoding on a connection — confined to the connect sequence.
var flatCodecFuncs = map[string]bool{
	"NewFlatClientCodec": true, "NewFlatServerCodec": true,
}

func run(pass *framework.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/wire") {
		return nil // inside the boundary
	}
	inDist := strings.HasSuffix(pass.Pkg.Path(), "internal/dist")
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		// typed.go is the gob boundary file; net.go is where connections
		// are version-checked and handed to the flat codec.
		gobExempt := inDist && base == "typed.go"
		flatExempt := inDist && base == "net.go"
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			report(pass, sel.Sel.Pos(), fn, gobExempt, flatExempt)
			return true
		})
		if inDist && !gobExempt {
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
				report(pass, ident.Pos(), fn, gobExempt, flatExempt)
				return true
			})
		}
	}
	return nil
}

// report flags one reference to a fenced codec function.
func report(pass *framework.Pass, pos token.Pos, fn *types.Func, gobExempt, flatExempt bool) {
	path := fn.Pkg().Path()
	switch {
	case gobExempt:
	case path == "encoding/gob" && (fn.Name() == "NewEncoder" || fn.Name() == "NewDecoder"):
		pass.Reportf(pos,
			"gob.%s outside the codec boundary (internal/dist/typed.go, internal/wire); use the typed adapters or Encode/Decode",
			fn.Name())
		return
	case strings.HasSuffix(path, "internal/dist") && distCodecFuncs[fn.Name()]:
		pass.Reportf(pos,
			"dist.%s outside the codec boundary (internal/dist/typed.go, internal/wire); use the typed adapters or Encode/Decode",
			fn.Name())
		return
	}
	if !flatExempt && strings.HasSuffix(path, "internal/wire") && flatCodecFuncs[fn.Name()] {
		pass.Reportf(pos,
			"wire.%s outside the flat-codec boundary (internal/dist/net.go, internal/wire); connections are version-checked there before the codec goes on",
			fn.Name())
	}
}
