package exec

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// MorselSource hands one input out to concurrent consumers in independently
// scannable chunks (DESIGN.md §9). Its queue is work-stealing: one atomic
// counter over the morsel list, so an idle consumer claims the next morsel
// the moment it finishes. When the input is not splittable, a single
// fallback reader streams owned batches through a channel instead —
// partitioning and absorption still run in parallel, only the raw scan is
// serial. The exchange's shuffle drains one.
type MorselSource struct {
	ops   []BatchOperator
	next  atomic.Int64
	ch    chan *Batch
	grain int
}

// NewMorselSource splits op into morsels of about morselTuples tuples. A
// non-splittable op gets a fallback reader goroutine, registered on wg and
// reporting into fe, whose channel buffers depth batches of morselTuples.
func NewMorselSource(ctx context.Context, op Operator, morselTuples, depth int,
	wg *sync.WaitGroup, fe *FirstError) *MorselSource {
	s := &MorselSource{grain: morselTuples}
	if ops, ok := SplitMorsels(op, morselTuples); ok {
		s.ops = ops
		return s
	}
	s.ch = make(chan *Batch, depth)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fe.Set(runFallbackReader(ctx, op, morselTuples, s.ch))
	}()
	return s
}

// Morsels returns the number of morsels, 0 on the fallback reader.
func (s *MorselSource) Morsels() int { return len(s.ops) }

// String names the input path, for EXPLAIN ANALYZE notes.
func (s *MorselSource) String() string {
	if s.ch != nil {
		return "morsels=fallback-reader (dividend not splittable)"
	}
	return fmt.Sprintf("morsels=%d grain=%d", len(s.ops), s.grain)
}

// take claims the next unscanned morsel, or nil when the queue is drained.
// Claiming morsel i also asks morsel i+1 to prefetch its page range, so its
// device reads overlap with absorbing morsel i (the prefetcher dedupes when
// several consumers nominate the same successor).
func (s *MorselSource) take() BatchOperator {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.ops)) {
		return nil
	}
	if nxt := i + 1; nxt < int64(len(s.ops)) {
		if pf, ok := s.ops[nxt].(Prefetchable); ok {
			pf.Prefetch()
		}
	}
	return s.ops[i]
}

// Drain feeds sink every batch this goroutine claims: whole morsels from the
// queue, then, for a non-splittable input, the fallback reader's batches
// until it closes its channel. sink must not retain a batch.
func (s *MorselSource) Drain(ctx context.Context, scratch *Batch, sink func(*Batch) error) error {
	for op := s.take(); op != nil; op = s.take() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := DrainMorsel(op, scratch, sink); err != nil {
			return err
		}
	}
	if s.ch == nil {
		return nil
	}
	for {
		select {
		case b, ok := <-s.ch:
			if !ok {
				return nil
			}
			err := sink(b)
			b.Release()
			if err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runFallbackReader streams a non-splittable input onto ch as owned batches
// (FillBatch copies, so no pinned-page alias ever crosses the channel). It
// closes ch on exit — success, error, or panic — so consumers draining the
// channel always terminate.
func runFallbackReader(ctx context.Context, input Operator, morselTuples int, ch chan *Batch) (err error) {
	defer RecoverPanic(&err)
	defer close(ch)
	op := NewContextScan(ctx, input)
	if err := op.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := op.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		b := NewBatch(input.Schema(), morselTuples)
		ferr := FillBatch(op, b)
		if ferr != nil {
			b.Release()
			if ferr == io.EOF {
				return nil
			}
			return ferr
		}
		select {
		case ch <- b:
		case <-ctx.Done():
			b.Release()
			return ctx.Err()
		}
	}
}

// FirstError implements first-error-wins propagation: the first failure is
// recorded and cancels the shared context so every other participant unwinds;
// their secondary errors (usually context.Canceled) are discarded.
type FirstError struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

// NewFirstError records the first failure and calls cancel on it.
func NewFirstError(cancel context.CancelFunc) *FirstError {
	return &FirstError{cancel: cancel}
}

// Set records err unless it is nil or a failure was already recorded.
func (f *FirstError) Set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		f.cancel()
	}
	f.mu.Unlock()
}

// Err returns the first recorded failure, or nil.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
