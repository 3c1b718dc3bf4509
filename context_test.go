package reldiv

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/division"
	"repro/internal/leakcheck"
	"repro/internal/parallel"
	"repro/internal/workload"
)

func bigRelations(students, courses int) (*Relation, *Relation) {
	dividend := NewRelation("transcript", Int64Col("student"), Int64Col("course"))
	for s := 0; s < students; s++ {
		for c := 0; c < courses; c++ {
			dividend.MustInsert(s, c)
		}
	}
	divisor := NewRelation("courses", Int64Col("course"))
	for c := 0; c < courses; c++ {
		divisor.MustInsert(c)
	}
	return dividend, divisor
}

// TestDivideContextMatchesDivide: a background context changes nothing.
func TestDivideContextMatchesDivide(t *testing.T) {
	dividend, divisor := bigRelations(50, 8)
	want, err := Divide(dividend, divisor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		nil,
		{Algorithm: HashDivision},
		{Workers: 4},
		{Workers: 3, DivisorPartitioned: true},
	} {
		got, err := DivideContext(context.Background(), dividend, divisor, nil, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("%+v: %d rows, want %d", opts, got.NumRows(), want.NumRows())
		}
	}
}

// TestDivideContextPreCancelled: an already-dead context fails fast for both
// the serial and the parallel paths.
func TestDivideContextPreCancelled(t *testing.T) {
	dividend, divisor := bigRelations(50, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []*Options{nil, {Workers: 4}} {
		if _, err := DivideContext(ctx, dividend, divisor, nil, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("opts %+v: pre-cancelled division returned %v", opts, err)
		}
	}
}

// TestDivideRejectsWorkersPastWireLimit: a worker count the exchange's job
// header cannot carry fails with its *ConfigError naming Workers, and no
// goroutine outlives the call. The division runs only once parallel.Config
// is seen to reject the count, since an accepted count would start a
// goroutine per worker.
func TestDivideRejectsWorkersPastWireLimit(t *testing.T) {
	const workers = 1 << 16
	if (parallel.Config{Workers: workers, Strategy: division.QuotientPartitioning}).Validate(workload.TranscriptSchema) == nil {
		t.Fatalf("parallel.Config accepts %d workers", workers)
	}
	dividend, divisor := bigRelations(50, 8)
	before := runtime.NumGoroutine()
	_, err := Divide(dividend, divisor, nil, &Options{Workers: workers})
	var cerr *parallel.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "Workers" {
		t.Fatalf("Divide with %d workers returned %v, want a *ConfigError naming Workers", workers, err)
	}
	leakcheck.Goroutines(t, before)
}

// TestDivideContextCancelMidParallel cancels a running parallel division;
// it must stop promptly with context.Canceled.
func TestDivideContextCancelMidParallel(t *testing.T) {
	dividend, divisor := bigRelations(3000, 20)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := DivideContext(ctx, dividend, divisor, nil, &Options{Workers: 4})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled division returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled parallel division did not return")
	}
}

// TestExplainAnalyzeTimeout: ExplainAnalyze plans like Divide, so an
// already expired Timeout aborts it on every path; it aborts DivideWithStats
// too.
func TestExplainAnalyzeTimeout(t *testing.T) {
	dividend, divisor := bigRelations(50, 8)
	for _, opts := range []*Options{
		{Timeout: time.Nanosecond},
		{Timeout: time.Nanosecond, MemoryBudget: 4 << 10},
		{Timeout: time.Nanosecond, Workers: 2},
	} {
		q, prof, err := ExplainAnalyze(dividend, divisor, nil, opts)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%+v: err = %v, want context.DeadlineExceeded", *opts, err)
		}
		if q != nil || prof != nil {
			t.Fatalf("%+v: expired query returned a result", *opts)
		}
		if opts.Workers > 1 {
			continue // DivideWithStats runs serially
		}
		if q, _, err := DivideWithStats(dividend, divisor, nil, opts); !errors.Is(err, context.DeadlineExceeded) || q != nil {
			t.Fatalf("%+v: DivideWithStats returned %v, err %v, want context.DeadlineExceeded", *opts, q, err)
		}
	}
}

// TestOptionsTimeout: Timeout is enforced on the serial path.
func TestOptionsTimeout(t *testing.T) {
	dividend, divisor := bigRelations(400, 50)
	deadline := time.Now().Add(2 * time.Second)
	// The division is fast; loop until the shrinking timeout bites to avoid
	// a flaky fixed threshold.
	for timeout := 500 * time.Microsecond; time.Now().Before(deadline); timeout /= 2 {
		_, err := DivideContext(context.Background(), dividend, divisor, nil,
			&Options{Algorithm: Naive, Timeout: timeout})
		if err == nil {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timeout surfaced as %v", err)
		}
		return
	}
	t.Skip("division always beat the timeout on this machine")
}
