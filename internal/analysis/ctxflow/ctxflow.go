// Package ctxflow enforces the context-first discipline of API v2
// (DESIGN.md §11): cancellation must flow from the caller down to the
// sweep loop, never be invented in the middle of the library.
//
// Three rules:
//
//  1. Library code must not call context.Background() or context.TODO().
//     Only package main (CLI entry points, which own the signal
//     handling) may mint a root context; everything else takes one as
//     its first parameter.
//  2. Live code must not call functions or methods marked
//     "Deprecated:". A deprecated API exists so old call sites keep
//     compiling, not as a convenience for new code; a deprecated
//     function calling another deprecated function is permitted
//     (shims chain).
//  3. In the sweep packages (import path ending in /gibbs or /accel), a
//     function that takes a context.Context must consult it inside any
//     long-running loop — a loop bounded by an iteration/sweep count or
//     one that invokes a sweep — so cancellation is observed at sweep
//     boundaries rather than after the full chain. Only the outermost
//     qualifying loop is checked: per-color and per-site loops inside a
//     checked sweep loop are below checkpoint granularity by design.
//
// Deliberately permitted: context.Background in package main and in
// test files (not loaded at all), ctx threading through struct fields
// (the analyzer only polices call sites), and loops in functions that
// take no context — those are per-sweep primitives whose callers hold
// the cancellation check.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "enforce context-first flow: no context.Background/TODO outside main, " +
		"no calls to Deprecated shims from live code, ctx checked in sweep loops",
	Run: run,
}

func run(pass *analysis.Pass) {
	isMain := pass.Pkg.Name() == "main"
	sweepPkg := strings.HasSuffix(pass.Pkg.Path(), "/gibbs") || strings.HasSuffix(pass.Pkg.Path(), "/accel")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			deprecated := analysis.IsDeprecated(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isMain {
					for _, fn := range [...]string{"Background", "TODO"} {
						if analysis.PkgFunc(pass.Info, call, "context", fn) {
							pass.Reportf(call.Pos(),
								"library code calls context.%s(); thread the caller's ctx instead (only package main mints root contexts)", fn)
						}
					}
				}
				if !deprecated {
					if callee := analysis.CalleeOf(pass.Info, call); pass.Facts.IsDeprecatedFunc(callee) {
						pass.Reportf(call.Pos(),
							"call to deprecated shim %s from live code; use its context-first replacement", callee.Name())
					}
				}
				return true
			})
			if sweepPkg {
				if ctxObj := ctxParam(pass.Info, fd); ctxObj != nil {
					checkSweepLoops(pass, fd.Body, ctxObj)
				}
			}
		}
	}
}

// ctxParam returns the function's context.Context parameter object, or
// nil.
func ctxParam(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && analysis.IsNamed(obj.Type(), "context", "Context") {
				return obj
			}
		}
	}
	return nil
}

// checkSweepLoops walks the statement tree (skipping nested function
// literals, which run on their own goroutine or schedule) and verifies
// every outermost qualifying loop references ctx.
func checkSweepLoops(pass *analysis.Pass, body *ast.BlockStmt, ctxObj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if qualifies(pass, loop) {
				if !referencesObj(pass, loop.Body, ctxObj) {
					pass.Reportf(loop.Pos(),
						"sweep loop never consults %s; check it at the sweep boundary so cancellation and checkpointing stay responsive", ctxObj.Name())
				}
				return false // inner loops are below sweep granularity
			}
		}
		return true
	})
}

// qualifies reports whether the loop is long-running in the sweep
// sense: bounded by an iteration/sweep count, or sweeping directly.
func qualifies(pass *analysis.Pass, loop *ast.ForStmt) bool {
	iterName := false
	var header []ast.Node
	if loop.Init != nil {
		header = append(header, loop.Init)
	}
	if loop.Cond != nil {
		header = append(header, loop.Cond)
	}
	if loop.Post != nil {
		header = append(header, loop.Post)
	}
	for _, e := range header {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && isIterName(id.Name) {
				iterName = true
			}
			return true
		})
	}
	if iterName {
		return true
	}
	sweeps := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if strings.Contains(strings.ToLower(name), "sweep") {
			sweeps = true
		}
		return true
	})
	return sweeps
}

func isIterName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "iteration") || strings.Contains(l, "sweep")
}

// referencesObj reports whether any identifier under n resolves to obj.
func referencesObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
