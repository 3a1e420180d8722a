// Package detrand forbids nondeterministic randomness and clock reads
// in simulation/library code.
//
// PR 1's headline guarantee is that a seeded run produces bit-identical
// label maps regardless of worker count. Three things silently break
// that guarantee without failing any type check: drawing from
// math/rand, crypto/rand or math/rand/v2 instead of repro/internal/rng;
// deriving a seed (or any simulation input) from time.Now; and folding
// map iteration — whose order Go randomizes per run — into a
// floating-point accumulator or a sample draw. detrand flags all three.
//
// Deliberately permitted: integer accumulation over a map (addition of
// integers is exact, so order cannot change the result), collecting map
// keys for an explicit sort, and clock reads in packages rsulint
// allowlists (CLI entry points that print wall-clock timings).
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand, crypto/rand and time.Now in deterministic code, " +
		"and flag map iteration feeding float accumulators or rng draws",
	Run: run,
}

var bannedImports = map[string]string{
	"math/rand":    "unseedable global state and process-varying defaults",
	"math/rand/v2": "auto-seeded generators",
	"crypto/rand":  "OS entropy",
}

const rngPath = "repro/internal/rng"

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := bannedImports[path]; bad {
				pass.Reportf(imp.Pos(),
					"nondeterministic RNG import %q (%s): every draw must flow through %s so seeded runs are bit-identical",
					path, why, rngPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if analysis.PkgFunc(pass.Info, n, "time", "Now") {
					pass.Reportf(n.Pos(),
						"wall-clock read time.Now() in deterministic code: seeds and timing inputs must come from configuration "+
							"(allowlist this package in rsulint if it is a CLI entry point)")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// checkMapRange flags order-sensitive work inside a range over a map:
// float compound-assignment to a variable declared outside the loop,
// and any draw from an rng.Source.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !isCompound(n.Tok) || len(n.Lhs) != 1 {
				return true
			}
			id := analysis.RootIdent(n.Lhs[0])
			if id == nil {
				return true
			}
			obj, ok := pass.Info.Uses[id].(*types.Var)
			if !ok || !isFloat(obj.Type()) {
				return true
			}
			if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				return true // loop-local accumulator: order visible only inside
			}
			pass.Reportf(n.Pos(),
				"order-dependent float accumulation %q inside range over map: map iteration order is randomized per run; "+
					"iterate sorted keys instead", id.Name)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if rtv, ok := pass.Info.Types[sel.X]; ok && analysis.IsNamed(rtv.Type, rngPath, "Source") {
					pass.Reportf(n.Pos(),
						"sample draw %s.%s inside range over map: draw order follows the randomized map order, "+
							"breaking seed reproducibility; iterate sorted keys instead", exprString(sel.X), sel.Sel.Name)
				}
			}
		}
		return true
	})
}

func isCompound(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "source"
}
