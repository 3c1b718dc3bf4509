package exec

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/tuple"
)

// ContextScan injects cooperative cancellation into a demand-driven
// pipeline: it passes its input through unchanged but fails with ctx.Err()
// once the context is cancelled or times out. Because every operator pulls
// its tuples (directly or transitively) from the plan's leaves, wrapping the
// leaf scans makes the whole operator tree cancellable without changing the
// Operator interface: the error unwinds through Next like any I/O fault, and
// each operator's existing cleanup path releases its resources.
type ContextScan struct {
	ctx   context.Context
	input Operator
}

var (
	_ Operator      = (*ContextScan)(nil)
	_ BatchOperator = (*ContextScan)(nil)
)

// NewContextScan wraps input so the stream fails once ctx is done.
func NewContextScan(ctx context.Context, input Operator) *ContextScan {
	return &ContextScan{ctx: ctx, input: input}
}

// Schema implements Operator.
func (c *ContextScan) Schema() *tuple.Schema { return c.input.Schema() }

// Open implements Operator.
func (c *ContextScan) Open() error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.input.Open()
}

// Next implements Operator. The per-tuple ctx.Err() check is an atomic load;
// its cost is negligible next to tuple processing.
func (c *ContextScan) Next() (tuple.Tuple, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.input.Next()
}

// NextBatch implements BatchOperator with one ctx.Err() check per batch,
// then the input's native NextBatch (zero copy where the input aliases) or,
// for a tuple-only input, a FillBatch copy from its Next. Wrapping a scan
// for cancellation thus never drops its consumer to tuple-at-a-time.
func (c *ContextScan) NextBatch(b *Batch) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if bop, ok := NativeBatch(c.input); ok {
		return bop.NextBatch(b)
	}
	return FillBatch(c.input, b)
}

// Close implements Operator. Close always reaches the input, cancelled or
// not — cancellation must never leak resources.
func (c *ContextScan) Close() error { return c.input.Close() }

// PanicError is a panic converted to an error at an operator-tree boundary
// (Drain, Collect, ForEach, a parallel worker). The original panic value and
// stack are preserved for diagnosis; callers treat it like any other query
// error.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: operator panicked: %v", e.Value)
}

// RecoverPanic converts an in-flight panic into a *PanicError stored in
// *errp. Use it as `defer exec.RecoverPanic(&err)` at any boundary where a
// goroutine or public entry point runs an operator tree: a panicking
// operator then reports a query error instead of crashing the process.
func RecoverPanic(errp *error) {
	if r := recover(); r != nil {
		*errp = &PanicError{Value: r, Stack: debug.Stack()}
	}
}
