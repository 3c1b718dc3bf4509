package netexchange

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// tableScanSpec materializes the instance into a pool-backed heap file so the
// dividend is Splittable into page-range morsels — the multi-producer path —
// and page fixes flow through the returned pool for leak assertions.
func tableScanSpec(t *testing.T, inst *workload.Instance) (division.Spec, *buffer.Pool) {
	t.Helper()
	pool := buffer.New(64 * disk.PaperPageSize)
	dev := disk.NewDevice("pipeline-test", disk.PaperPageSize)
	f := storage.NewFile(pool, dev, workload.TranscriptSchema, "dividend")
	ap := f.NewAppender()
	for _, tp := range inst.Dividend {
		if _, err := ap.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	return division.Spec{
		Dividend:    exec.NewTableScan(f, false),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}, pool
}

// TestPipelinedMorselProducers drives the splittable multi-producer path
// (page-range morsels over a heap file) and checks quotient parity plus
// clean page-fix accounting afterwards.
func TestPipelinedMorselProducers(t *testing.T) {
	inst := chaosInstance(t)
	sp, pool := tableScanSpec(t, inst)
	cl, err := StartLocalCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := Divide(context.Background(), sp, Config{
		BitVectorFilter: true,
		MorselTuples:    256, // force several morsels at test scale
	}, cl.Conns())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
	leakcheck.FixedFrames(t, pool)
}

// failAfterConn injects a deterministic mid-ship write failure: after the
// byte allowance is spent, every Write fails. Reads pass through untouched.
type failAfterConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
}

var errInjectedWrite = errors.New("injected write failure")

func (c *failAfterConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return 0, errInjectedWrite
	}
	if len(b) > c.remaining {
		n, _ := c.Conn.Write(b[:c.remaining])
		c.remaining = 0
		return n, errInjectedWrite
	}
	c.remaining -= len(b)
	return c.Conn.Write(b)
}

// TestPipelinedWriteFailMidShip injures one link partway through the
// pipelined dividend (multi-producer morsel path) and requires a typed
// WorkerError with zero fixed frames, zero spill files, and zero goroutines
// left behind — the arena-release audit of the shipper error exits.
func TestPipelinedWriteFailMidShip(t *testing.T) {
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		goroutinesBefore := runtime.NumGoroutine()
		spillBefore := storage.LiveSpillFiles()
		inst := chaosInstance(t)
		sp, pool := tableScanSpec(t, inst)
		cl, err := StartLocalCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		conns := append([]net.Conn(nil), cl.Conns()...)
		// Enough allowance for phases A+B (open + divisor + end frames are a
		// few hundred bytes) but well short of the dividend share.
		conns[1] = &failAfterConn{Conn: conns[1], remaining: 2048}
		_, err = Divide(context.Background(), sp, Config{
			Strategy:     strategy,
			MorselTuples: 256,
		}, conns)
		if err == nil {
			t.Fatalf("%v: no error from injured link", strategy)
		}
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("%v: error %v (%T) is not a WorkerError", strategy, err, err)
		}
		if we.Worker != 1 {
			t.Errorf("%v: failure attributed to worker %d, injected on 1", strategy, we.Worker)
		}
		cl.Close()
		leakcheck.Goroutines(t, goroutinesBefore)
		leakcheck.FixedFrames(t, pool)
		leakcheck.SpillFiles(t, spillBefore)
	}
}

// TestWorkerBudgetSpills gives each worker a budget far below its dividend
// partition: the job must complete exactly (recursive spill, not OOM and not
// error), report spill traffic through the worker counters, and leak no
// spill files.
func TestWorkerBudgetSpills(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      8,
		QuotientCandidates: 600,
		FullFraction:       0.5,
		MatchFraction:      0.6,
		NoisePerCandidate:  4,
		Shuffle:            true,
		Seed:               13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		t.Run(strategy.String(), func(t *testing.T) {
			spillBefore := storage.LiveSpillFiles()
			budgetJobsBefore := obs.Default.Counter("net.worker.budget_jobs").Load()
			spilledBefore := obs.Default.Counter("net.worker.budget_spilled_partitions").Load()
			cl, err := StartLocalCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			res, err := Divide(context.Background(), instanceSpec(inst), Config{
				Strategy:        strategy,
				BitVectorFilter: true,
				WorkerBudget:    16 << 10, // ~10 KB tables per worker vs ~40+ KB partitions
			}, cl.Conns())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, inst, res)
			if got := obs.Default.Counter("net.worker.budget_jobs").Load(); got == budgetJobsBefore {
				t.Error("no budget jobs counted")
			}
			if got := obs.Default.Counter("net.worker.budget_spilled_partitions").Load(); got == spilledBefore {
				t.Error("no spilled partitions counted: budget did not bind")
			}
			leakcheck.SpillFiles(t, spillBefore)
		})
	}
}

// TestWorkerBudgetDepthCapTyped drives a grant below the pool floor: every
// in-memory attempt overflows instantly, recursion cannot help, and the
// worker must fail with the division sentinel preserved across the wire —
// errors.Is through WorkerError → RemoteError → sentinel.
func TestWorkerBudgetDepthCapTyped(t *testing.T) {
	inst := chaosInstance(t)
	cl, err := StartLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spillBefore := storage.LiveSpillFiles()
	_, err = Divide(context.Background(), instanceSpec(inst), Config{
		WorkerBudget: 1,
	}, cl.Conns())
	if err == nil {
		t.Fatal("no error from an impossible budget")
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %v (%T) is not a WorkerError", err, err)
	}
	if !errors.Is(err, division.ErrPartitionDepth) && !errors.Is(err, division.ErrMemoryBudget) {
		t.Fatalf("error %v does not unwrap to a typed division sentinel", err)
	}
	// Divide returns at the first worker's failure while the other worker
	// may still be dividing its partition. That worker must drop its spill
	// files when it fails, with its link still open: links outlive jobs, so
	// nothing else would ever release them.
	leakcheck.SpillFiles(t, spillBefore)
}

// TestBudgetLinkReuse runs budgeted and unbudgeted jobs back-to-back on the
// same links: the budget path must leave the protocol state clean.
func TestBudgetLinkReuse(t *testing.T) {
	cl, err := StartLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round, budget := range []int64{0, 16 << 10, 0, 16 << 10} {
		inst := noisyInstance(t, int64(300+round))
		strategy := division.QuotientPartitioning
		if round%2 == 1 {
			strategy = division.DivisorPartitioning
		}
		res, err := Divide(context.Background(), instanceSpec(inst), Config{
			Strategy:     strategy,
			WorkerBudget: budget,
		}, cl.Conns())
		if err != nil {
			t.Fatalf("round %d (budget %d): %v", round, budget, err)
		}
		checkAgainstReference(t, inst, res)
	}
}
