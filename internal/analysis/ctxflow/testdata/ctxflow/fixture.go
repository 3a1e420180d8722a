// Package fixture seeds ctxflow violations and allowed patterns for
// rules 1 (no root contexts in library code) and 2 (no calls to
// deprecated shims from live code).
package fixture

import (
	"context"

	"repro/internal/analysis/ctxflow/testdata/shim"
)

// NewRoot mints a root context in library code.
func NewRoot() context.Context {
	return context.Background() // want "library code calls context.Background"
}

// Todo reaches for the placeholder context instead of threading one.
func Todo(msg string) (string, context.Context) {
	return msg, context.TODO() // want "library code calls context.TODO"
}

// OldRun bridges context-free callers onto Run.
//
// Deprecated: use Run and pass your context.
func OldRun() error {
	return Run(context.Background()) // want "library code calls context.Background"
}

// Run is the canonical context-first entry point.
func Run(ctx context.Context) error {
	return ctx.Err()
}

// CallsShim takes the deprecated shortcut from live code.
func CallsShim() error {
	return OldRun() // want "deprecated shim OldRun"
}

// CallsModuleShim reaches a deprecated shim declared in another module
// package; the fact base carries the mark across the import.
func CallsModuleShim(ctx context.Context) error {
	return shim.RunCtx(ctx) // want "deprecated shim RunCtx"
}

// ChainedShim is itself deprecated, so its call into OldRun is the
// permitted shim-to-shim chain.
//
// Deprecated: use Run.
func ChainedShim() error {
	return OldRun()
}
