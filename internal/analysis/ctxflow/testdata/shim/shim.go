// Package shim declares a deprecated function in a module package of
// its own, so the ctxflow fixture can call a shim across an import and
// check that the deprecation mark travels with the fact base.
package shim

import "context"

// Run is the context-first entry point.
func Run(ctx context.Context) error {
	return ctx.Err()
}

// RunCtx forwards to Run.
//
// Deprecated: call Run.
func RunCtx(ctx context.Context) error {
	return Run(ctx)
}
