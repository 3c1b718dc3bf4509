package netexchange

// Exchange chaos suite: worker death mid-query — a closed connection, a
// cancelled context, a killed worker *process* — must surface as a typed
// error promptly (no hang) and leave nothing behind: no goroutines, no spill
// files, and connections poisoned rather than wedged.

import (
	"context"
	"errors"
	"net"
	"os"
	osexec "os/exec"
	"runtime"
	"testing"
	"time"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// hookScan wraps an operator and fires hook once, just before tuple `at` is
// returned — the deterministic way to injure the exchange exactly mid-
// dividend. hookScan is not Splittable, so the pipelined engine falls back
// to its single-producer path and the scan that fires the hook feeds the
// shippers directly; injected failures land mid-dividend as intended.
type hookScan struct {
	exec.Operator
	at   int
	hook func()
	n    int
}

func (h *hookScan) Next() (tuple.Tuple, error) {
	if h.n == h.at && h.hook != nil {
		h.hook()
		h.hook = nil
	}
	h.n++
	return h.Operator.Next()
}

// Open resets the tuple counter but not the hook: the hook fires once per
// hookScan, even though division opens its inputs more than once.
func (h *hookScan) Open() error {
	h.n = 0
	return h.Operator.Open()
}

func chaosInstance(t *testing.T) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      8,
		QuotientCandidates: 400,
		FullFraction:       0.5,
		MatchFraction:      0.6,
		NoisePerCandidate:  4,
		Shuffle:            true,
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestConnCloseMidDividend(t *testing.T) {
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		goroutinesBefore := runtime.NumGoroutine()
		spillBefore := storage.LiveSpillFiles()
		inst := chaosInstance(t)
		cl, err := StartLocalCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		sp := instanceSpec(inst)
		sp.Dividend = &hookScan{
			Operator: sp.Dividend,
			at:       len(inst.Dividend) / 2,
			hook:     func() { cl.Conns()[1].Close() },
		}
		done := make(chan error, 1)
		go func() {
			_, err := Divide(context.Background(), sp, Config{Strategy: strategy}, cl.Conns())
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: Divide hung after worker conn close", strategy)
		}
		if err == nil {
			t.Fatalf("%v: no error after worker conn close", strategy)
		}
		var we *WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("%v: error %v (%T) is not a WorkerError", strategy, err, err)
		}
		cl.Close()
		leakcheck.Goroutines(t, goroutinesBefore)
		leakcheck.SpillFiles(t, spillBefore)
	}
}

func TestCancelMidDividend(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	inst := chaosInstance(t)
	cl, err := StartLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp := instanceSpec(inst)
	sp.Dividend = &hookScan{
		Operator: sp.Dividend,
		at:       len(inst.Dividend) / 2,
		hook:     cancel,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Divide(ctx, sp, Config{
			Strategy: division.DivisorPartitioning, BitVectorFilter: true,
		}, cl.Conns())
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Divide hung after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	cl.Close()
	leakcheck.Goroutines(t, goroutinesBefore)
}

// TestHelperServeWorker is not a test: it is the forked worker process body,
// re-executing the test binary (the FuzzWALRecord helper-process pattern).
func TestHelperServeWorker(t *testing.T) {
	addr := os.Getenv("NETEXCHANGE_WORKER_ADDR")
	if addr == "" {
		t.Skip("helper process body; set NETEXCHANGE_WORKER_ADDR to run")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		os.Exit(3)
	}
	ServeWorker(conn) //nolint:errcheck // killed mid-job by the parent
	os.Exit(0)
}

// TestForkedWorkerKillMidQuery is the real-process chaos case: workers run
// in forked OS processes, one is SIGKILLed mid-dividend, and the coordinator
// must fail with a typed error, promptly, leaking nothing.
func TestForkedWorkerKillMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("forked worker chaos in short mode")
	}
	goroutinesBefore := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const workers = 2
	cmds := make([]*osexec.Cmd, workers)
	conns := make([]net.Conn, workers)
	for i := 0; i < workers; i++ {
		cmd := osexec.Command(os.Args[0], "-test.run=TestHelperServeWorker")
		cmd.Env = append(os.Environ(), "NETEXCHANGE_WORKER_ADDR="+ln.Addr().String())
		// Stdout/Stderr stay nil (the null device): an io.Writer here would
		// cost an os/exec copy goroutine per stream, tripping the leak check.
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[i] = cmd
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		for _, cmd := range cmds {
			cmd.Process.Kill() //nolint:errcheck // cleanup
			cmd.Wait()         //nolint:errcheck // cleanup
		}
	}()

	// Sanity: a full job across real process boundaries first.
	inst := chaosInstance(t)
	res, err := Divide(context.Background(), instanceSpec(inst), Config{
		Strategy: division.QuotientPartitioning, BitVectorFilter: true,
	}, conns)
	if err != nil {
		t.Fatalf("clean forked run: %v", err)
	}
	checkAgainstReference(t, inst, res)

	// Now kill worker 1's process mid-dividend and require a typed failure.
	sp := instanceSpec(inst)
	sp.Dividend = &hookScan{
		Operator: sp.Dividend,
		at:       len(inst.Dividend) / 2,
		hook: func() {
			cmds[1].Process.Kill() //nolint:errcheck // the point of the test
			cmds[1].Wait()         //nolint:errcheck // reap before resuming
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := Divide(context.Background(), sp, Config{
			Strategy: division.QuotientPartitioning,
		}, conns)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Divide hung after worker process kill")
	}
	if err == nil {
		t.Fatal("no error after worker process kill")
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %v (%T) is not a WorkerError", err, err)
	}
	leakcheck.Goroutines(t, goroutinesBefore)
}
