package reldiv

// Chaos suite: every division algorithm — serial, partitioned, and parallel
// under both partitioning strategies — runs against storage devices wrapped
// in the deterministic fault injector. Under purely transient fault plans
// the buffer pool's retry-with-backoff must hide every fault and the
// quotient must be exactly right; under permanent-corruption plans the run
// must surface a typed error (disk.CorruptPageError / disk.ErrTransient
// wrapped), never a wrong answer, a panic, a leaked buffer frame, or a
// leaked goroutine.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/parallel"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// typedFault reports whether err is one of the documented fault types every
// query is allowed to return under injected failures.
func typedFault(err error) bool {
	var cpe *disk.CorruptPageError
	return disk.IsTransient(err) || errors.Is(err, disk.ErrCorrupt) || errors.As(err, &cpe)
}

func chaosInstance(t *testing.T) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      20,
		QuotientCandidates: 150,
		FullFraction:       0.4,
		MatchFraction:      0.7,
		NoisePerCandidate:  2,
		DuplicateFactor:    2,
		Shuffle:            true,
		Seed:               1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite in short mode")
	}
	inst := chaosInstance(t)

	// Ground truth from unfaulted memory scans.
	ref, err := division.Reference(division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}

	plans := []struct {
		name string
		plan faultinject.Plan
		// transientOnly plans are fully absorbed by the pool's retries, so
		// every algorithm MUST succeed with the exact quotient.
		transientOnly bool
	}{
		{"transient-reads", faultinject.Plan{ReadErrEvery: 5}, true},
		{"transient-writes", faultinject.Plan{WriteErrEvery: 4}, true},
		{"bit-flips", faultinject.Plan{BitFlipEvery: 7}, true},
		{"mixed-seeded", faultinject.Plan{Seed: 3, ReadErrProb: 0.03, BitFlipProb: 0.02}, false},
		{"torn-writes", faultinject.Plan{TornWriteEvery: 9, MaxFaults: 3}, false},
	}

	// Each plan runs twice: once on the synchronous fix path alone, and once
	// with the asynchronous prefetcher racing it. Read-ahead loads take no
	// retries and drop on any fault, so injected failures hit BOTH the
	// background path (which must stay silent) and the sync path (which must
	// absorb or type them) — the answers must not differ between modes.
	modes := []struct {
		name      string
		readAhead bool
	}{{"sync", false}, {"readahead", true}}

	for _, pc := range plans {
		for _, mode := range modes {
			pc, mode := pc, mode
			t.Run(pc.name+"/"+mode.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				pool := buffer.New(64 * 1024)
				if mode.readAhead {
					pool.EnableReadAhead(8, 4)
				}
				// Spill files (recursive spill cells, sort runs) are query
				// scratch: success, typed failure, and cancellation must all
				// drop every one of them.
				spillBase := storage.LiveSpillFiles()
				dividendDev := faultinject.Wrap(disk.NewDevice("dividend", disk.PaperPageSize), pc.plan)
				divisorDev := faultinject.Wrap(disk.NewDevice("divisor", disk.PaperPageSize), pc.plan)
				rel, err := workload.LoadOn(pool, inst, dividendDev, divisorDev)
				if err != nil {
					// Loading itself may hit permanent corruption; transient
					// plans must load fine.
					if pc.transientOnly || !typedFault(err) {
						t.Fatalf("load failed: %v", err)
					}
					t.Skipf("instance unloadable under %s: %v", pc.name, err)
				}
				tempDev := faultinject.Wrap(disk.NewDevice("temp", disk.PaperRunPageSize), pc.plan)
				env := division.Env{Pool: pool, TempDev: tempDev, SortBytes: 16 * 1024}
				storageSpec := func() division.Spec {
					return division.Spec{
						Dividend:    exec.NewTableScan(rel.Dividend, false),
						Divisor:     exec.NewTableScan(rel.Divisor, true),
						DivisorCols: []int{1},
					}
				}
				qs := storageSpec().QuotientSchema()

				check := func(t *testing.T, label string, got []tuple.Tuple, err error) {
					t.Helper()
					if err != nil {
						if pc.transientOnly {
							t.Fatalf("%s failed under transient-only faults: %v", label, err)
						}
						if !typedFault(err) {
							t.Fatalf("%s returned untyped error: %v", label, err)
						}
						return
					}
					if !division.EqualTupleSets(qs, got, ref) {
						t.Errorf("%s: WRONG quotient under faults (%d vs %d) — corruption leaked into results",
							label, len(got), len(ref))
					}
				}

				// Serial: all four general algorithms.
				for _, alg := range []division.Algorithm{
					division.AlgNaive, division.AlgSortAggJoin,
					division.AlgHashAggJoin, division.AlgHashDivision,
				} {
					got, err := division.Run(alg, storageSpec(), env)
					check(t, alg.String(), got, err)
					leakcheck.FixedFrames(t, pool)
					leakcheck.SpillFiles(t, spillBase)
				}

				// Recursive divisor partitioning (spill files under fault
				// injection).
				budgetEnv := env
				budgetEnv.MemoryBudget = 24 * 1024
				got, _, err := division.DivideRecursive(storageSpec(), budgetEnv,
					division.DivisorPartitioning, division.RecursiveOptions{})
				check(t, "adaptive", got, err)
				leakcheck.FixedFrames(t, pool)
				leakcheck.SpillFiles(t, spillBase)

				// Recursive out-of-core division at a budget tight enough to
				// force spilling: the full spill-file lifecycle (create,
				// append, scan, drop) runs under fault injection.
				budgetEnv.MemoryBudget = 4 * 1024
				rq, _, err := division.DivideRecursive(storageSpec(), budgetEnv,
					division.QuotientPartitioning, division.RecursiveOptions{})
				check(t, "recursive", rq, err)
				leakcheck.FixedFrames(t, pool)
				leakcheck.SpillFiles(t, spillBase)

				// Parallel under both partitioning strategies. The shuffle's
				// producers scan page ranges concurrently, so faults fire
				// under contention.
				for _, strategy := range []division.PartitionStrategy{
					division.QuotientPartitioning, division.DivisorPartitioning,
				} {
					res, err := parallel.Divide(storageSpec(), parallel.Config{
						Workers: 4, Strategy: strategy,
					})
					var q []tuple.Tuple
					if res != nil {
						q = res.Quotient
					}
					check(t, "parallel/"+strategy.String(), q, err)
					leakcheck.FixedFrames(t, pool)
					leakcheck.SpillFiles(t, spillBase)
					leakcheck.Goroutines(t, before)
				}

				if pc.transientOnly {
					faults := dividendDev.FaultStats().Total() + divisorDev.FaultStats().Total() +
						tempDev.FaultStats().Total()
					if faults == 0 {
						t.Error("fault plan injected nothing — the suite tested nothing")
					}
					if st := pool.Stats(); st.Retries == 0 {
						t.Error("pool reports zero retries despite injected transient faults")
					}
				}
				if mode.readAhead {
					pool.DisableReadAhead()
				}
				leakcheck.Goroutines(t, before)
			})
		}
	}
}

// TestChaosCancellationUnderFaults: cancelling a parallel division whose
// devices are also faulting must still terminate promptly with a typed or
// context error, leaking nothing.
func TestChaosCancellationUnderFaults(t *testing.T) {
	inst := chaosInstance(t)
	before := runtime.NumGoroutine()
	pool := buffer.New(64 * 1024)
	plan := faultinject.Plan{ReadErrEvery: 6}
	rel, err := workload.LoadOn(pool, inst,
		faultinject.Wrap(disk.NewDevice("dividend", disk.PaperPageSize), plan),
		faultinject.Wrap(disk.NewDevice("divisor", disk.PaperPageSize), plan))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := parallel.DivideContext(ctx, division.Spec{
			Dividend:    exec.NewTableScan(rel.Dividend, false),
			Divisor:     exec.NewTableScan(rel.Divisor, true),
			DivisorCols: []int{1},
		}, parallel.Config{Workers: 4})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) && !typedFault(err) {
			t.Fatalf("cancelled faulting division returned untyped error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled division under faults did not terminate")
	}
	leakcheck.FixedFrames(t, pool)
	leakcheck.Goroutines(t, before)
}
