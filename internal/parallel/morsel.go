// Morsel-driven dividend absorption (DESIGN.md §9). The legacy data path
// routes the whole dividend through one coordinator goroutine — scan, filter,
// partition, pack — so adding workers only parallelizes the absorb half of
// the pipeline. Here the dividend is split into morsels (page ranges for
// table scans, tuple-slice chunks for memory scans) that producer goroutines
// pull from a shared work-stealing queue; each producer partitions its
// morsels locally into per-destination write-combining exec.Batch buffers and
// ships them worker-to-worker, so no single goroutine ever touches every
// tuple. A second, shared-memory path skips the exchange entirely: all
// workers absorb morsels into one division.SharedTable whose bitmap bits are
// set with atomic CAS.
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
// (registered on wg, reporting into fe) for non-splittable sources. root
// gets a note either way so EXPLAIN ANALYZE shows which input path ran.
func newMorselSource(ctx context.Context, dividend exec.Operator, morselTuples, channelDepth int,
	wg *sync.WaitGroup, fe *firstError, root *obs.Span) *morselSource {
	src := &morselSource{}
	if ops, ok := exec.SplitMorsels(dividend, morselTuples); ok {
		src.ops = ops
		if root != nil {
			root.Notef("morsels=%d grain=%d", len(ops), morselTuples)
		}
		obs.Default.Counter("parallel.morsels").Add(int64(len(ops)))
		return src
	}
	if root != nil {
		root.Notef("morsels=fallback-reader (dividend not splittable)")
	}
	src.ch = make(chan *exec.Batch, channelDepth)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fe.set(runFallbackReader(ctx, dividend, morselTuples, src.ch))
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

// partitioner is one goroutine's software write-combining stage: route each
// tuple (bit-vector filter, then hash on the partitioning columns), append it
// to the destination's private exec.Batch buffer, and flush the buffer as one
// channel send when it reaches batchSize. Routing is a division.Router, so
// both hashes are compiled once per partitioner. Network accounting
// accumulates in private counters and folds into the shared NetworkStats
// once, in finish — identical totals to the coordinator path, without
// per-tuple atomics.
type partitioner struct {
	ds        *tuple.Schema
	rt        division.Router
	width     int64
	workers   []*worker
	batchSize int
	batches   []*exec.Batch

	shipped, bytes, filtered int64
}

func newPartitioner(sp division.Spec, workers []*worker, cols []int, bv *bitmap.Bitmap, batchSize int) *partitioner {
	ds := sp.Dividend.Schema()
	p := &partitioner{
		ds:        ds,
		rt:        division.NewRouter(ds, sp.DivisorCols, cols, bv, len(workers)),
		width:     int64(ds.Width()),
		workers:   workers,
		batchSize: batchSize,
		batches:   make([]*exec.Batch, len(workers)),
	}
	for i := range p.batches {
		p.batches[i] = exec.NewBatch(ds, batchSize)
	}
	return p
}

// flush sends destination i's buffer. Every send selects against ctx.Done():
// if a worker dies its channel stops draining, and an unconditional send
// would deadlock the sender.
func (p *partitioner) flush(ctx context.Context, i int) error {
	if p.batches[i].Len() == 0 {
		return nil
	}
	select {
	case p.workers[i].in <- p.batches[i]:
		p.batches[i] = exec.NewBatch(p.ds, p.batchSize)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// route processes one dividend tuple. Tuples this goroutine ships to its own
// consumer count as shipped all the same: the accounting models the
// interconnect of a shared-nothing system (§6), where self-delivery is not
// observable to the cost model, and it keeps Stats identical across paths.
func (p *partitioner) route(ctx context.Context, t tuple.Tuple) error {
	d, ok := p.rt.Dest(t)
	if !ok {
		p.filtered++
		return nil
	}
	p.shipped++
	p.bytes += p.width
	p.batches[d].Append(t)
	if p.batches[d].Len() >= p.batchSize {
		return p.flush(ctx, d)
	}
	return nil
}

// finish flushes every non-empty buffer (even after an upstream error —
// cancellation makes the flush fail fast rather than deadlock), releases the
// arenas, and folds the local traffic counters into net. It returns the
// first error among err and the flushes.
func (p *partitioner) finish(ctx context.Context, err error, net *NetworkStats) error {
	for i := range p.batches {
		if ferr := p.flush(ctx, i); err == nil {
			err = ferr
		}
		// Either freshly emptied by flush or never sent (cancellation): in
		// both cases this goroutine still owns the batch.
		p.batches[i].Release()
	}
	atomic.AddInt64(&net.TuplesShipped, p.shipped)
	atomic.AddInt64(&net.BytesShipped, p.bytes)
	atomic.AddInt64(&net.TuplesFiltered, p.filtered)
	return err
}

// runProducer is one worker's producing half: pull morsels (or fallback
// batches) until the source is dry, partitioning every tuple through the
// write-combining buffers.
func runProducer(ctx context.Context, src *morselSource, p *partitioner, net *NetworkStats, morselTuples int) (err error) {
	defer exec.RecoverPanic(&err)
	scratch := exec.NewBatch(p.ds, morselTuples)
	defer scratch.Release()
	routeBatch := func(b *exec.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			if err := p.route(ctx, b.Tuple(i)); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	err = func() error {
		for {
			op := src.take()
			if op == nil {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := exec.DrainMorsel(op, scratch, routeBatch); err != nil {
				return err
			}
		}
		if src.ch == nil {
			return nil
		}
		for {
			select {
			case b, ok := <-src.ch:
				if !ok {
					return nil
				}
				rerr := routeBatch(b)
				b.Release()
				if rerr != nil {
					return rerr
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}()
	return p.finish(ctx, err, net)
}

// shipDividendMorsels is the morsel-driven replacement for shipDividend: one
// producer goroutine per worker, all pulling from a shared morsel queue. It
// returns once every producer (and the fallback reader, if any) has finished;
// errors propagate through fe, which cancels ctx and unwinds the rest.
func shipDividendMorsels(ctx context.Context, sp division.Spec, workers []*worker, cols []int,
	bv *bitmap.Bitmap, cfg Config, net *NetworkStats, root *obs.Span, fe *firstError) {
	morselTuples := cfg.MorselTuples
	if morselTuples <= 0 {
		morselTuples = defaultMorselTuples
	}
	var wg sync.WaitGroup
	src := newMorselSource(ctx, sp.Dividend, morselTuples, cfg.ChannelDepth, &wg, fe, root)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.set(runProducer(ctx, src, newPartitioner(sp, workers, cols, bv, cfg.BatchSize), net, morselTuples))
		}()
	}
	wg.Wait()
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
	absorb := func(b *exec.Batch) error {
		st.AbsorbBatch(b, &stats)
		return ctx.Err()
	}
	for {
		op := src.take()
		if op == nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := exec.DrainMorsel(op, scratch, absorb); err != nil {
			return err
		}
	}
	if src.ch == nil {
		return nil
	}
	for {
		select {
		case b, ok := <-src.ch:
			if !ok {
				return nil
			}
			aerr := absorb(b)
			b.Release()
			if aerr != nil {
				return aerr
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
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
	fe := &firstError{cancel: cancel}

	divisor, err := collectDistinctDivisor(ctx, sp)
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

	morselTuples := cfg.MorselTuples
	if morselTuples <= 0 {
		morselTuples = defaultMorselTuples
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
	src := newMorselSource(ctx, sp.Dividend, morselTuples, cfg.ChannelDepth, &wg, fe, root)
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fe.set(w.runSharedAbsorb(ctx, ds, st, src, morselTuples))
		}(w)
	}
	wg.Wait() // the happens-before edge making plain bitmap reads safe below
	if ferr := fe.get(); ferr != nil {
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
			fe.set(w.scanSharedQuotient(ctx, st, lo, hi))
		}(w, lo, hi)
	}
	scanWG.Wait()
	if ferr := fe.get(); ferr != nil {
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
