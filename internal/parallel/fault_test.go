package parallel

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/tuple"
	"repro/internal/workload"
)

var strategies = []division.PartitionStrategy{
	division.QuotientPartitioning,
	division.DivisorPartitioning,
}

// TestFaultInDividendPropagates injects a failure mid-dividend for both
// partitioning strategies: the error must surface from Divide and every
// worker goroutine must exit.
func TestFaultInDividendPropagates(t *testing.T) {
	inst := testInstance(t, 7)
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sp := instanceSpec(inst)
			sp.Dividend = faultinject.NewScan(sp.Dividend, 100)
			_, err := Divide(sp, Config{Workers: 4, Strategy: strategy})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("injected dividend fault not propagated: %v", err)
			}
			leakcheck.Goroutines(t, before)
		})
	}
}

// TestFaultInDivisorPropagates covers the coordinator's divisor collection,
// which runs before any worker starts.
func TestFaultInDivisorPropagates(t *testing.T) {
	inst := testInstance(t, 8)
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sp := instanceSpec(inst)
			sp.Divisor = faultinject.NewScan(sp.Divisor, 3)
			_, err := Divide(sp, Config{Workers: 4, Strategy: strategy})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("injected divisor fault not propagated: %v", err)
			}
			leakcheck.Goroutines(t, before)
		})
	}
}

// endlessScan produces dividend tuples forever — only cancellation can stop
// a division reading it.
type endlessScan struct {
	n int64
}

func (e *endlessScan) Schema() *tuple.Schema { return workload.TranscriptSchema }
func (e *endlessScan) Open() error           { return nil }
func (e *endlessScan) Close() error          { return nil }
func (e *endlessScan) Next() (tuple.Tuple, error) {
	e.n++
	return workload.TranscriptSchema.MustMake(e.n%1000, e.n%50), nil
}

func endlessSpec() division.Spec {
	divisor := make([]tuple.Tuple, 10)
	for i := range divisor {
		divisor[i] = workload.CourseSchema.MustMake(int64(i))
	}
	return division.Spec{
		Dividend:    &endlessScan{},
		Divisor:     exec.NewMemScan(workload.CourseSchema, divisor),
		DivisorCols: []int{1},
	}
}

// TestDivideContextCancellation cancels a division over an endless dividend:
// the call must return context.Canceled promptly and reap all workers, for
// both strategies.
func TestDivideContextCancellation(t *testing.T) {
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := DivideContext(ctx, endlessSpec(), Config{Workers: 4, Strategy: strategy})
				done <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the division get going
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled division returned %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled division did not terminate promptly")
			}
			leakcheck.Goroutines(t, before)
		})
	}
}

// TestDivideContextTimeout: a deadline on ctx aborts the endless division
// with context.DeadlineExceeded.
func TestDivideContextTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := DivideContext(ctx, endlessSpec(), Config{Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out division returned %v", err)
	}
	leakcheck.Goroutines(t, before)
}

// panicScan panics after emitting `after` tuples, exercising panic recovery
// at the coordinator's operator-tree boundary.
type panicScan struct {
	inner exec.Operator
	after int
	n     int
}

func (p *panicScan) Schema() *tuple.Schema { return p.inner.Schema() }
func (p *panicScan) Open() error           { return p.inner.Open() }
func (p *panicScan) Close() error          { return p.inner.Close() }
func (p *panicScan) Next() (tuple.Tuple, error) {
	if p.n >= p.after {
		panic("injected operator panic")
	}
	p.n++
	return p.inner.Next()
}

// TestPanicInDividendBecomesError: a panicking operator must surface as an
// *exec.PanicError from Divide — not crash the process — and leak nothing.
func TestPanicInDividendBecomesError(t *testing.T) {
	inst := testInstance(t, 9)
	for _, strategy := range strategies {
		t.Run(strategy.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sp := instanceSpec(inst)
			sp.Dividend = &panicScan{inner: sp.Dividend, after: 50}
			_, err := Divide(sp, Config{Workers: 4, Strategy: strategy})
			var pe *exec.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *exec.PanicError, got %v", err)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error lost its stack trace")
			}
			leakcheck.Goroutines(t, before)
		})
	}
}

// TestCancelledBeforeStart: an already-cancelled context fails fast without
// spawning anything.
func TestCancelledBeforeStart(t *testing.T) {
	inst := testInstance(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DivideContext(ctx, instanceSpec(inst), Config{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled division returned %v", err)
	}
}
