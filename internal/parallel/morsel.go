// Morsel-driven dividend exchange (DESIGN.md §9). The dividend is split into
// morsels (page ranges for table scans, tuple-slice chunks for memory scans)
// that producer goroutines pull from a shared work-stealing queue; each
// producer partitions its morsels locally into per-destination
// write-combining exec.Batch buffers and ships them to the destinations, so
// no single goroutine ever touches every tuple. This Shuffle is the one
// dividend exchange of the repository: the in-process workers below and
// netexchange's per-link frame writers both consume it. A second,
// shared-memory path skips the exchange entirely: all workers absorb morsels
// into one division.SharedTable whose bitmap bits are set with atomic CAS.
//
// (Package documentation lives in parallel.go.)

package parallel

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmap"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// defaultMorselTuples is the morsel grain: small enough that a straggler
// morsel cannot unbalance the workers, large enough that queue operations are
// noise. At the paper's 16-byte dividend records this is 64 KB per morsel.
const defaultMorselTuples = 4096

// morselSource hands the dividend out in independently scannable chunks.
// take() is the work-stealing queue: one atomic counter over the morsel list,
// so idle producers steal the next morsel the moment they finish. When the
// dividend is not splittable, ch carries owned batches from a single fallback
// reader instead — partitioning and absorption still run in parallel, only
// the raw scan is serial.
type morselSource struct {
	ops  []exec.BatchOperator
	next atomic.Int64
	ch   chan *exec.Batch
}

// newMorselSource splits the dividend, falling back to a reader goroutine
// (registered on wg, reporting into fe) for non-splittable sources. span
// gets a note either way so EXPLAIN ANALYZE shows which input path ran.
func newMorselSource(ctx context.Context, dividend exec.Operator, morselTuples, channelDepth int,
	wg *sync.WaitGroup, fe *FirstError, span *obs.Span) *morselSource {
	src := &morselSource{}
	if ops, ok := exec.SplitMorsels(dividend, morselTuples); ok {
		src.ops = ops
		if span != nil {
			span.Notef("morsels=%d grain=%d", len(ops), morselTuples)
		}
		return src
	}
	if span != nil {
		span.Notef("morsels=fallback-reader (dividend not splittable)")
	}
	src.ch = make(chan *exec.Batch, channelDepth)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fe.Set(runFallbackReader(ctx, dividend, morselTuples, src.ch))
	}()
	return src
}

// take claims the next unscanned morsel, or nil when the queue is drained.
// Claiming morsel i also asks morsel i+1 to prefetch its page range, so its
// device reads overlap with absorbing morsel i (the prefetcher dedupes when
// several producers nominate the same successor).
func (s *morselSource) take() exec.BatchOperator {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.ops)) {
		return nil
	}
	if nxt := i + 1; nxt < int64(len(s.ops)) {
		if pf, ok := s.ops[nxt].(exec.Prefetchable); ok {
			pf.Prefetch()
		}
	}
	return s.ops[i]
}

// drain feeds sink every batch this goroutine claims: whole morsels from the
// queue, then, for a non-splittable dividend, the fallback reader's batches
// until it closes its channel. sink must not retain a batch.
func (s *morselSource) drain(ctx context.Context, scratch *exec.Batch, sink func(*exec.Batch) error) error {
	for op := s.take(); op != nil; op = s.take() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := exec.DrainMorsel(op, scratch, sink); err != nil {
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

// runFallbackReader streams a non-splittable dividend onto ch as owned
// batches (FillBatch copies, so no pinned-page alias ever crosses the
// channel). It closes ch on exit — success, error, or panic — so producers
// draining the channel always terminate.
func runFallbackReader(ctx context.Context, dividend exec.Operator, morselTuples int, ch chan *exec.Batch) (err error) {
	defer exec.RecoverPanic(&err)
	defer close(ch)
	op := exec.NewContextScan(ctx, dividend)
	if err := op.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := op.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		b := exec.NewBatch(dividend.Schema(), morselTuples)
		ferr := exec.FillBatch(op, b)
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

// ShuffleOptions size a Shuffle; every count must be positive.
type ShuffleOptions struct {
	Sites        int // destinations
	Depth        int // batches each destination channel (and the fallback reader's) buffers
	Producers    int // producer goroutines; never more than there are morsels
	BatchSize    int // tuples per shipped batch
	MorselTuples int // morsel grain, and the fallback reader's batch size
	// Span, when set, gets a note naming the input path that ran.
	Span *obs.Span
}

// ShuffleStats is a finished shuffle's traffic.
type ShuffleStats struct {
	Shipped   int64 // dividend tuples sent to a destination
	Filtered  int64 // dividend tuples the bit-vector filter dropped
	Morsels   int   // morsels the dividend split into; 0 on the fallback reader
	Producers int   // producer goroutines that ran
	Stalls    int64 // sends that found their destination's channel full
}

// Shuffle ships a dividend to the sites of a partitioned division. Producer
// goroutines pull morsels (or the fallback reader's batches), route every
// tuple through a division.Router — bit-vector filter first, then the
// partitioning hash — and write-combine it into a private exec.Batch per
// destination; a batch that reaches BatchSize goes to its destination's
// channel in one send, and each producer's trailing partial batches follow
// when its input runs dry. A consumer drains Dest(i) and hands every
// batch back through Recycle, so batches circulate through a free list
// instead of being allocated per send.
type Shuffle struct {
	ds       *tuple.Schema
	dividend exec.Operator
	rt       division.Router
	opts     ShuffleOptions
	dests    []chan *exec.Batch
	free     chan *exec.Batch
}

// NewShuffle prepares the shuffle of sp's dividend under strategy; filter
// may be nil.
func NewShuffle(sp division.Spec, strategy division.PartitionStrategy, filter *bitmap.Bitmap, opts ShuffleOptions) *Shuffle {
	s := &Shuffle{
		ds:       sp.Dividend.Schema(),
		dividend: sp.Dividend,
		rt:       division.NewRouter(sp, strategy, filter, opts.Sites),
		opts:     opts,
		dests:    make([]chan *exec.Batch, opts.Sites),
		// Room for every batch that can be in flight at once: one buffer
		// per producer and destination, a full channel, and the one each
		// consumer holds.
		free: make(chan *exec.Batch, opts.Sites*(opts.Producers+opts.Depth+1)),
	}
	for i := range s.dests {
		s.dests[i] = make(chan *exec.Batch, opts.Depth)
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
		return exec.NewBatch(s.ds, s.opts.BatchSize)
	}
}

// Run ships the whole dividend and closes every destination channel. It
// returns once every producer (and the fallback reader, if any) has
// finished; failures go to fe, which cancels ctx and unwinds the rest, so
// the consumers must stop at ctx.Done as well. The stats are exact only when
// fe holds no error.
func (s *Shuffle) Run(ctx context.Context, fe *FirstError) ShuffleStats {
	var wg sync.WaitGroup
	src := newMorselSource(ctx, s.dividend, s.opts.MorselTuples, s.opts.Depth, &wg, fe, s.opts.Span)
	producers := s.opts.Producers
	if src.ch == nil {
		producers = max(1, min(producers, len(src.ops)))
	}
	parts := make([]*partitioner, producers)
	for i := range parts {
		p := &partitioner{s: s, batches: make([]*exec.Batch, len(s.dests))}
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
	st := ShuffleStats{Morsels: len(src.ops), Producers: producers}
	for _, p := range parts {
		st.Shipped += p.shipped
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

	shipped, filtered, stalls int64
}

// run routes every batch the producer claims, then ships its trailing
// partial batches.
func (p *partitioner) run(ctx context.Context, src *morselSource) (err error) {
	defer exec.RecoverPanic(&err)
	scratch := exec.NewBatch(p.s.ds, p.s.opts.MorselTuples)
	defer scratch.Release()
	err = src.drain(ctx, scratch, func(b *exec.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			if err := p.route(ctx, b.Tuple(i)); err != nil {
				return err
			}
		}
		return ctx.Err()
	})
	return p.finish(ctx, err)
}

// route processes one dividend tuple. Tuples a producer ships to its own
// consumer count as shipped all the same: the accounting models the
// interconnect of a shared-nothing system (§6), where self-delivery is not
// observable to the cost model.
func (p *partitioner) route(ctx context.Context, t tuple.Tuple) error {
	d, ok := p.s.rt.Dest(t)
	if !ok {
		p.filtered++
		return nil
	}
	p.shipped++
	b := p.batches[d]
	b.Append(t)
	if b.Len() < p.s.opts.BatchSize {
		return nil
	}
	if err := p.send(ctx, d, b); err != nil {
		return err
	}
	p.batches[d] = p.s.batch()
	return nil
}

// send hands b to destination d, counting a stall when the channel is full.
// The blocking send selects against ctx.Done(): a consumer that died stops
// draining, and an unconditional send would deadlock the producer.
func (p *partitioner) send(ctx context.Context, d int, b *exec.Batch) error {
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

// runSharedAbsorb is a worker's absorb phase on the shared-table path: pull
// morsels and absorb them straight into the shared quotient table — no
// partitioning, no shipping.
func (w *worker) runSharedAbsorb(ctx context.Context, ds *tuple.Schema, st *division.SharedTable,
	src *morselSource, morselTuples int) (err error) {
	defer exec.RecoverPanic(&err)
	var stats division.SharedStats
	start := time.Now()
	defer func() {
		w.stats.DividendTuples = stats.Dividend
		if w.span != nil {
			w.span.Record(1, 0, 0, time.Since(start), exec.Counters{})
			w.span.Notef("shared absorb: dividend=%d candidates-created=%d", stats.Dividend, stats.Candidates)
		}
	}()
	scratch := exec.NewBatch(ds, morselTuples)
	defer scratch.Release()
	return src.drain(ctx, scratch, func(b *exec.Batch) error {
		st.AbsorbBatch(b, &stats)
		return ctx.Err()
	})
}

// scanSharedQuotient is a worker's share of step 3: scan buckets [lo, hi) of
// the shared table for complete candidates. Disjoint ranges touch disjoint
// chains, so the scan parallelizes without synchronization.
func (w *worker) scanSharedQuotient(ctx context.Context, st *division.SharedTable, lo, hi int) (err error) {
	defer exec.RecoverPanic(&err)
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err = st.ScanBuckets(lo, hi, func(t tuple.Tuple) error {
		w.out = append(w.out, t)
		w.stats.QuotientTuples++
		return nil
	})
	if w.span != nil {
		w.span.Record(0, w.stats.QuotientTuples, 0, time.Since(start), exec.Counters{})
	}
	return err
}

// divideSharedTable is the shared-memory fast path (quotient partitioning
// only — enforced by Config.Validate): one shared quotient table, divisor
// bits set by atomic CAS, zero interconnect traffic. WorkerStats report each
// worker's absorbed dividend share and scanned quotient share; DivisorTuples
// stays 0 because the divisor table is shared, not replicated or partitioned.
func divideSharedTable(ctx context.Context, sp division.Spec, cfg Config) (*Result, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := NewFirstError(cancel)

	divisor, err := division.DistinctDivisor(exec.NewContextScan(ctx, sp.Divisor), division.Env{})
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: make([]WorkerStats, cfg.Workers)}
	if len(divisor) == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	st, err := division.NewSharedTable(sp, divisor, cfg.HBS, cfg.ExpectedQuotient)
	if err != nil {
		return nil, err
	}

	root := strategySpan(cfg)
	if root != nil {
		root.Notef("path=shared-table divisor=%d buckets=%d", st.DivisorCount(), st.NumBuckets())
	}
	ds := sp.Dividend.Schema()
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{id: i}
		if root != nil {
			workers[i].span = root.Child(workerSpanName(i), "worker")
		}
	}

	var wg sync.WaitGroup
	src := newMorselSource(ctx, sp.Dividend, cfg.MorselTuples, cfg.ChannelDepth, &wg, fe, root)
	obs.Default.Counter("parallel.morsels").Add(int64(len(src.ops)))
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fe.Set(w.runSharedAbsorb(ctx, ds, st, src, cfg.MorselTuples))
		}(w)
	}
	wg.Wait() // the happens-before edge making plain bitmap reads safe below
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}

	nb := st.NumBuckets()
	per := (nb + cfg.Workers - 1) / cfg.Workers
	var scanWG sync.WaitGroup
	for _, w := range workers {
		lo := w.id * per
		hi := lo + per
		if hi > nb {
			hi = nb
		}
		scanWG.Add(1)
		go func(w *worker, lo, hi int) {
			defer scanWG.Done()
			fe.Set(w.scanSharedQuotient(ctx, st, lo, hi))
		}(w, lo, hi)
	}
	scanWG.Wait()
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}

	for i, w := range workers {
		res.Workers[i] = w.stats
		res.Quotient = append(res.Quotient, w.out...)
	}
	report(cfg, res, workers)
	res.Elapsed = time.Since(start)
	return res, nil
}
