package netexchange

// Failure coverage of the in-process transport: a worker's error crosses a
// pipe as its Go value, and cancellation at each phase of the protocol
// unwinds every goroutine promptly with the context's error.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/storage"
)

// TestPipeCarriesWorkerErrors: an error the worker end fails with reaches
// the coordinator end as the same Go value, on a blocked read and on a
// send, so errors.Is and errors.As match it — nothing is re-encoded.
func TestPipeCarriesWorkerErrors(t *testing.T) {
	panicked := &exec.PanicError{Value: "worker exploded", Stack: []byte("stack")}
	for _, werr := range []error{fmt.Errorf("absorbing: %w", division.ErrMemoryBudget), panicked} {
		coord, worker := newPipe()
		read := make(chan error, 1)
		go func() {
			_, _, _, err := coord.next()
			read <- err
		}()
		worker.fail(werr)
		_, sendErr := coord.send(FrameHeader{Type: frameDividendEnd}, nil)
		for _, err := range []error{<-read, sendErr} {
			var pe *exec.PanicError
			switch {
			case werr == panicked && (!errors.As(err, &pe) || pe != panicked):
				t.Errorf("got %v, want the worker's *exec.PanicError", err)
			case werr != panicked && !errors.Is(err, division.ErrMemoryBudget):
				t.Errorf("got %v, want one matching ErrMemoryBudget", err)
			}
		}
	}
}

// TestPipeWorkerBudgetErrorIsGoValue divides over pipes under an impossible
// worker budget: the recursion's typed sentinel comes back inside a
// WorkerError as the worker's own error, not a RemoteError rebuilt from a
// wire payload.
func TestPipeWorkerBudgetErrorIsGoValue(t *testing.T) {
	before := runtime.NumGoroutine()
	spillBefore := storage.LiveSpillFiles()
	_, err := DividePipes(context.Background(), instanceSpec(chaosInstance(t)), Config{WorkerBudget: 1}, 2, nil)
	var we *WorkerError
	var re *RemoteError
	if !errors.As(err, &we) || errors.As(err, &re) {
		t.Fatalf("error %v (%T): want a WorkerError holding the worker's Go error", err, err)
	}
	if !errors.Is(err, division.ErrPartitionDepth) && !errors.Is(err, division.ErrMemoryBudget) {
		t.Fatalf("error %v does not match a typed division sentinel", err)
	}
	leakcheck.Goroutines(t, before)
	leakcheck.SpillFiles(t, spillBefore)
}

// hookEnd wraps a worker's pipe end and calls hook once, when a frame of
// type typ first crosses it in either direction.
type hookEnd struct {
	transport
	typ  byte
	hook func()
}

func (h *hookEnd) fire(typ byte) {
	if typ == h.typ && h.hook != nil {
		h.hook()
		h.hook = nil
	}
}

func (h *hookEnd) send(hd FrameHeader, payload []byte) (int64, error) {
	h.fire(hd.Type)
	return h.transport.send(hd, payload)
}

func (h *hookEnd) next() (FrameHeader, []byte, int64, error) {
	hd, payload, wire, err := h.transport.next()
	if err == nil {
		h.fire(hd.Type)
	}
	return hd, payload, wire, err
}

// dividePipesHooked is DividePipes with worker 0's end of its pipe wrapped
// by wrap, so a test can act at a chosen point of the protocol.
func dividePipesHooked(ctx context.Context, sp division.Spec, cfg Config, workers int,
	wrap func(transport) transport) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := exec.NewFirstError(cancel)
	ends := make([]*pipeEnd, workers)
	links := make([]transport, workers)
	var wg sync.WaitGroup
	for i := range links {
		coord, worker := newPipe()
		ends[i], links[i] = coord, coord
		var t transport = worker
		if i == 0 {
			t = wrap(worker)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := serve(t); err != nil && ctx.Err() == nil {
				fe.Set(&WorkerError{Worker: i, Err: err})
			}
		}()
	}
	res, err := divide(ctx, fe, sp, cfg, links, nil)
	for _, e := range ends {
		e.close()
	}
	wg.Wait()
	return res, err
}

// TestPipeCancellation cancels an in-process division at three points of
// the protocol under both strategies, the dividend read from a heap file:
// when worker 0 has its divisor and the coordinator waits for the filter,
// at worker 0's first dividend batch, and when worker 0 returns its first
// result batch — under divisor partitioning the candidate round, which is
// followed by the collect round. Each must return context.Canceled
// promptly, leave no goroutine behind and no page fixed.
func TestPipeCancellation(t *testing.T) {
	points := []struct {
		name string
		typ  func(division.PartitionStrategy) byte
	}{
		{"before-filter", func(division.PartitionStrategy) byte { return frameDivisorEnd }},
		{"mid-dividend", func(division.PartitionStrategy) byte { return frameDividendBatch }},
		{"result-round", func(s division.PartitionStrategy) byte {
			if s == division.DivisorPartitioning {
				return frameCandidate
			}
			return frameQuotientBatch
		}},
	}
	inst := chaosInstance(t)
	for _, strategy := range []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning} {
		for _, point := range points {
			t.Run(fmt.Sprintf("%v/%s", strategy, point.name), func(t *testing.T) {
				before := runtime.NumGoroutine()
				sp, pool := tableScanSpec(t, inst)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan error, 1)
				go func() {
					_, err := dividePipesHooked(ctx, sp, Config{
						Strategy:        strategy,
						BitVectorFilter: true,
						BatchSize:       64,
						MorselTuples:    256,
					}, 3, func(w transport) transport {
						return &hookEnd{transport: w, typ: point.typ(strategy), hook: cancel}
					})
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("error %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("division hung after cancellation")
				}
				leakcheck.Goroutines(t, before)
				leakcheck.FixedFrames(t, pool)
			})
		}
	}
}
