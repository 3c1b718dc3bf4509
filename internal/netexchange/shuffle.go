package netexchange

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
)

// ShuffleStats is a finished shuffle's traffic.
type ShuffleStats struct {
	Shipped   int64   // dividend tuples sent to a destination
	Sent      []int64 // Shipped split by destination
	Filtered  int64   // dividend tuples the bit-vector filter dropped
	Morsels   int     // morsels the dividend split into; 0 on the fallback reader
	Producers int     // producer goroutines that ran, at most one per morsel
	Stalls    int64   // sends that found their destination's channel full
}

// Shuffle ships a dividend to the sites of a partitioned division: the one
// dividend exchange of the repository (DESIGN.md §9, §15). Producer
// goroutines, at most min(GOMAXPROCS, 8), pull morsels (or the fallback
// reader's batches) from an exec.MorselSource, hash each batch's keys with
// the division's key plan in one loop, route every tuple on its hash words
// through a division.Router — bit-vector filter first, then the
// partitioning hash — and write-combine it into a private exec.Batch per
// destination; a batch that reaches batchSize goes to its destination's
// channel, linkDepth batches deep, in one send, and each producer's trailing
// partial batches follow when its input runs dry. A consumer — a TCP link writer, or an
// in-process worker reading its pipe — drains Dest(i) and hands every batch
// back through Recycle, so batches circulate through a free list instead of
// being allocated per send.
type Shuffle struct {
	sp                   division.Spec
	plan                 *division.KeyPlan
	rt                   division.Router
	producers, batchSize int
	morselTuples         int
	span                 *obs.Span // gets a note naming the input path that ran
	dests                []chan *exec.Batch
	free                 chan *exec.Batch
}

// newShuffle prepares the shuffle of sp's dividend to sites destinations
// under strategy; filter and span may be nil.
func newShuffle(sp division.Spec, strategy division.PartitionStrategy, filter *bitmap.Bitmap,
	sites, batchSize, morselTuples int, span *obs.Span) *Shuffle {
	s := &Shuffle{
		sp:           sp,
		plan:         division.CompileKeyPlan(sp.Dividend.Schema(), sp.DivisorCols),
		rt:           division.NewRouter(strategy, filter, sites),
		producers:    min(runtime.GOMAXPROCS(0), 8),
		batchSize:    batchSize,
		morselTuples: morselTuples,
		span:         span,
		dests:        make([]chan *exec.Batch, sites),
	}
	// Room for every batch that can be in flight at once: one buffer per
	// producer and destination, a full channel, and the one each consumer
	// holds.
	s.free = make(chan *exec.Batch, sites*(s.producers+linkDepth+1))
	for i := range s.dests {
		s.dests[i] = make(chan *exec.Batch, linkDepth)
	}
	return s
}

// Dest is destination i's batch stream; Run closes it once every producer
// has finished.
func (s *Shuffle) Dest(i int) <-chan *exec.Batch { return s.dests[i] }

// Recycle hands a consumed batch back for reuse.
func (s *Shuffle) Recycle(b *exec.Batch) {
	b.Reset()
	select {
	case s.free <- b:
	default:
		b.Release()
	}
}

// batch returns an empty batch, recycled when one is free.
func (s *Shuffle) batch() *exec.Batch {
	select {
	case b := <-s.free:
		return b
	default:
		return exec.NewBatch(s.sp.Dividend.Schema(), s.batchSize)
	}
}

// Run ships the whole dividend and closes every destination channel. It
// returns once every producer (and the fallback reader, if any) has
// finished; failures go to fe, which cancels ctx and unwinds the rest, so
// the consumers must stop at ctx.Done as well. The stats are exact only when
// fe holds no error.
func (s *Shuffle) Run(ctx context.Context, fe *exec.FirstError) ShuffleStats {
	var wg sync.WaitGroup
	src := exec.NewMorselSource(ctx, s.sp.Dividend, s.morselTuples, linkDepth, &wg, fe)
	if s.span != nil {
		s.span.Notef("%s", src)
	}
	producers := s.producers
	if n := src.Morsels(); n > 0 {
		producers = min(producers, n)
	}
	parts := make([]*partitioner, producers)
	for i := range parts {
		p := &partitioner{s: s, batches: make([]*exec.Batch, len(s.dests)), sent: make([]int64, len(s.dests))}
		for d := range p.batches {
			p.batches[d] = s.batch()
		}
		parts[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.Set(p.run(ctx, src))
		}()
	}
	wg.Wait()
	for _, d := range s.dests {
		close(d)
	}
	st := ShuffleStats{Sent: make([]int64, len(s.dests)), Morsels: src.Morsels(), Producers: producers}
	for _, p := range parts {
		for d, n := range p.sent {
			st.Sent[d] += n
			st.Shipped += n
		}
		st.Filtered += p.filtered
		st.Stalls += p.stalls
	}
	return st
}

// Release returns every batch still parked in a destination channel or on
// the free list to the batch pool. Call it after Run, once the consumers
// have stopped.
func (s *Shuffle) Release() {
	for _, d := range s.dests {
		for b := range d {
			b.Release()
		}
	}
	for {
		select {
		case b := <-s.free:
			b.Release()
		default:
			return
		}
	}
}

// partitioner is one producer's software write-combining stage. Its traffic
// counters are private and fold into ShuffleStats after the producers are
// joined, so routing needs no per-tuple atomics.
type partitioner struct {
	s       *Shuffle
	batches []*exec.Batch
	sent    []int64 // tuples sent to each destination

	filtered, stalls int64
}

// run routes every batch the producer claims, then ships its trailing
// partial batches. Each batch's keys are hashed in one loop first, and every
// tuple is routed on its words. Tuples a producer ships to its own consumer
// count as shipped all the same: the accounting models the interconnect of
// a shared-nothing system (§6), where self-delivery is not observable to
// the cost model.
func (p *partitioner) run(ctx context.Context, src *exec.MorselSource) (err error) {
	defer exec.RecoverPanic(&err)
	scratch := exec.NewBatch(p.s.sp.Dividend.Schema(), p.s.morselTuples)
	defer scratch.Release()
	err = src.Drain(ctx, scratch, func(b *exec.Batch) error {
		hs := p.s.plan.HashRows(b)
		rt, size := &p.s.rt, p.s.batchSize
		for i, n := 0, b.Len(); i < n; i++ {
			d, ok := rt.Dest(hs[2*i], hs[2*i+1])
			if !ok {
				p.filtered++
				continue
			}
			out := p.batches[d]
			out.Append(b.Tuple(i))
			if out.Len() < size {
				continue
			}
			if err := p.send(ctx, d, out); err != nil {
				return err
			}
			p.batches[d] = p.s.batch()
		}
		return ctx.Err()
	})
	return p.finish(ctx, err)
}

// send hands b to destination d, counting its tuples, and a stall when the
// channel is full. The blocking send selects against ctx.Done(): a consumer
// that died stops draining, and an unconditional send would deadlock the
// producer.
func (p *partitioner) send(ctx context.Context, d int, b *exec.Batch) error {
	p.sent[d] += int64(b.Len())
	select {
	case p.s.dests[d] <- b:
		return nil
	default:
	}
	p.stalls++
	select {
	case p.s.dests[d] <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finish ships the non-empty buffers unless the producer already failed,
// and gives back every buffer it still owns. It returns the first error
// among err and the sends.
func (p *partitioner) finish(ctx context.Context, err error) error {
	for d, b := range p.batches {
		if err == nil && b.Len() > 0 {
			if err = p.send(ctx, d, b); err == nil {
				continue
			}
		}
		p.s.Recycle(b)
	}
	return err
}
