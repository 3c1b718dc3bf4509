package netexchange

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// jobHeader.Strategy values.
const (
	strategyQuotient = byte(0)
	strategyDivisor  = byte(1)
)

// Config tunes a distributed division. The zero value of every field is
// "use the default"; Strategy defaults to quotient partitioning.
type Config struct {
	Strategy division.PartitionStrategy
	// BitVectorFilter ships the divisor-probe bit vector back from the
	// workers and drops dividend tuples hashing to empty bits before they
	// are serialized — the paper's semi-join reduction, on a real wire.
	BitVectorFilter bool
	// BatchSize is the tuples-per-frame packing of every shuffle
	// (default exec.DefaultBatchSize).
	BatchSize int
	// MorselTuples is the work-queue grain of the dividend shuffle; 0 picks
	// 4× the batch size.
	MorselTuples int
	// WorkerBudget, when positive, is shipped in every job header: each
	// worker bounds its local division to this many bytes, spooling its
	// partition through division.DivideRecursive instead of building
	// unbounded in-memory tables. Budget and depth-cap failures come back
	// as WorkerError wrapping the typed division sentinels.
	WorkerBudget int64
}

// ConfigError reports a configuration field that fails validation.
type ConfigError struct {
	Field  string // the Config field name
	Value  any    // the rejected value
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// MaxWorkers is the most workers one division can use: a job header
// carries the worker count and each worker's id in 16 bits.
const MaxWorkers = 1<<16 - 1

// workerHBS is the average bucket size every job header asks the workers'
// hash tables for: the paper's two tuples per bucket (§4.6).
const workerHBS = 2

// The bounds a job header must meet before a worker sizes anything by it: a
// table needs an HBS of at least 1/64 (64 buckets per expected tuple), and a
// filter must fit one frame.
const (
	minHBS        = 1.0 / 64
	maxFilterBits = maxFrameBytes * 8
)

// hbsProblem says why hbs cannot size a hash table, or "" when it can.
func hbsProblem(hbs float64) string {
	switch {
	case math.IsNaN(hbs) || math.IsInf(hbs, 0):
		return "must be finite"
	case hbs < minHBS:
		return "must be at least 1/64 to size a hash table"
	}
	return ""
}

// fitsFrame reports whether batch tuples of width bytes fit one frame.
func fitsFrame(batch, width int) bool {
	return batch <= (maxFrameBytes-bodyHeaderLen)/width
}

// Validate rejects, with a *ConfigError naming the field, a configuration
// that cannot divide dividends laid out by ds: an unknown strategy, a
// negative count, or a dividend batch larger than one frame. Zero values
// remain "use the default". Both exchanges run it, over pipes and over TCP.
func (cfg Config) Validate(ds *tuple.Schema) error {
	const negative, overFrame = "must not be negative", "exceeds one frame"
	for _, c := range []struct {
		field, reason string
		value         any
		bad           bool
	}{
		{"Strategy", "unknown partitioning strategy", cfg.Strategy,
			cfg.Strategy != division.QuotientPartitioning && cfg.Strategy != division.DivisorPartitioning},
		{"BatchSize", negative, cfg.BatchSize, cfg.BatchSize < 0},
		{"BatchSize", overFrame, cfg.BatchSize, !fitsFrame(cfg.BatchSize, ds.Width())},
		{"MorselTuples", negative, cfg.MorselTuples, cfg.MorselTuples < 0},
		{"WorkerBudget", negative, cfg.WorkerBudget, cfg.WorkerBudget < 0},
	} {
		if c.bad {
			return &ConfigError{Field: c.field, Value: c.value, Reason: c.reason}
		}
	}
	return nil
}

// NetworkStats count interconnect traffic: the frames a wire carries, on
// either transport.
type NetworkStats struct {
	TuplesShipped  int64 // divisor, dividend, candidate, collect and quotient tuples sent
	BytesShipped   int64 // frame bytes both ways, overhead and control frames included
	TuplesFiltered int64 // dividend tuples dropped by the bit vector filter
}

// WorkerStats describe one processor's share of the work.
type WorkerStats struct {
	DividendTuples int64 // dividend tuples received
	DivisorTuples  int64 // divisor tuples in the local divisor table
	QuotientTuples int64 // quotient tuples produced locally (collected, under divisor partitioning)
}

// LinkStats account one coordinator↔worker connection.
type LinkStats struct {
	BytesOut   int64 // wire bytes sent, frame overhead included
	BytesIn    int64
	FramesOut  int64
	FramesIn   int64
	RoundTrips int64 // write-phase→read-phase turns completed on the link
}

// Result is the outcome of an exchange division. Every count is what the
// frames occupy on a wire, so a division over pipes and the same division
// over TCP report the same numbers.
type Result struct {
	Quotient []tuple.Tuple
	Network  NetworkStats
	Workers  []WorkerStats
	Links    []LinkStats
	// DividendBytes is the wire cost of dividend batch frames alone — the
	// quantity bit-vector filtering exists to reduce.
	DividendBytes int64
	// FilterBytes is the wire cost of shipping the bit vectors back, the
	// price paid for that reduction.
	FilterBytes int64
	// Shuffle is the dividend shuffle's own account: morsels, producers
	// and stalls.
	Shuffle ShuffleStats
	Elapsed time.Duration
}

// WorkerError attributes a distributed failure to the link (worker index)
// it surfaced on.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("netexchange: worker %d: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// link is the coordinator's view of one worker transport. Each protocol
// phase has exactly one goroutine touching a link, with barriers between
// phases, so the plain stats fields need no synchronization.
type link struct {
	id int
	t  transport

	stats       LinkStats
	filterWords []uint64
	filterWire  int64 // wire bytes of the filter frame

	tuplesOut int64 // divisor + dividend + collect tuples sent
	tuplesIn  int64 // candidate + quotient tuples received

	out    []tuple.Tuple
	wstats WorkerStats
	span   *obs.Span     // the worker's span; nil without a trace
	wall   time.Duration // from the job's start to its quotientEnd
}

// record files err from link l as the division's failure, attributed to
// l's worker unless it already is. An error after ctx was cancelled reports
// the cancellation, not the poisoned-link noise the cancellation induced.
func record(ctx context.Context, fe *exec.FirstError, l *link, err error) {
	var we *WorkerError
	switch {
	case err == nil:
		return
	case ctx.Err() != nil:
		err = ctx.Err()
	case !errors.As(err, &we):
		err = &WorkerError{Worker: l.id, Err: err}
	}
	fe.Set(err)
}

// send and next make a link the counted transport of its worker: every
// frame that crosses it, either way, lands in the link's stats.
func (l *link) send(h FrameHeader, payload []byte) (int64, error) {
	n, err := l.t.send(h, payload)
	if err == nil {
		l.stats.BytesOut += n
		l.stats.FramesOut++
	}
	return n, err
}

func (l *link) next() (FrameHeader, []byte, int64, error) {
	h, payload, wire, err := l.t.next()
	if err == nil {
		l.stats.BytesIn += wire
		l.stats.FramesIn++
	}
	return h, payload, wire, err
}

func (l *link) fail(err error) { l.t.fail(err) }
func (l *link) poison()        { l.t.poison() }

// sendRows ships rows as frames of type typ tagged phase, batchSize tuples
// to a frame.
func (l *link) sendRows(schema *tuple.Schema, typ byte, phase uint16, rows []tuple.Tuple, batchSize int) error {
	fb := newFrameBatcher(l, schema, typ, phase, batchSize)
	defer fb.release()
	for _, t := range rows {
		if err := fb.add(t); err != nil {
			return err
		}
	}
	l.tuplesOut += int64(len(rows))
	return fb.flush()
}

// openAndSeed runs phases A and B on this link: send the job header and the
// divisor share, then (when the worker was elected a filter sender) read the
// bit vector back.
func (l *link) openAndSeed(j jobHeader, cluster []tuple.Tuple, batchSize int) error {
	if _, err := l.send(FrameHeader{Type: frameOpen}, appendJobHeader(nil, j)); err != nil {
		return err
	}
	if err := l.sendRows(j.Divisor, frameDivisorBatch, 0, cluster, batchSize); err != nil {
		return err
	}
	if _, err := l.send(FrameHeader{Type: frameDivisorEnd}, nil); err != nil {
		return err
	}
	if !j.SendFilter {
		return nil
	}
	h, payload, wire, err := l.next()
	if err != nil {
		return err
	}
	if h.Type != frameFilter {
		return fmt.Errorf("%w: expected filter, got frame type %d", ErrCorruptFrame, h.Type)
	}
	bits, words, err := decodeFilter(payload)
	if err != nil {
		return err
	}
	if bits != j.FilterBits {
		return fmt.Errorf("%w: filter of %d bits, job asked for %d", ErrCorruptFrame, bits, j.FilterBits)
	}
	l.filterWords = words
	l.filterWire = wire
	l.stats.RoundTrips++
	return nil
}

// readCandidates runs the first half of phase D on this link: buffer the
// worker's phase-tagged candidates into pending[dest][phase] cells, routing
// on the quotient hash. Every frame from this link must carry this link's
// phase tag, which is what makes the concurrent per-link readers write
// disjoint cells of pending.
func (l *link) readCandidates(qs *tuple.Schema, myPhase int, pending [][][]tuple.Tuple) error {
	k := uint64(len(pending))
	_, err := absorbFrames(l, qs, frameCandidate, frameCandidateEnd, func(h FrameHeader, b *exec.Batch) error {
		if int(h.Phase) != myPhase {
			return fmt.Errorf("%w: candidate tagged phase %d from the phase-%d worker",
				ErrCorruptFrame, h.Phase, myPhase)
		}
		for _, t := range appendRows(nil, b) {
			dest := int(qs.HashAll(t) % k)
			pending[dest][myPhase] = append(pending[dest][myPhase], t)
		}
		l.tuplesIn += int64(b.Len())
		return nil
	})
	if err == nil {
		l.stats.RoundTrips++
	}
	return err
}

// shipCollect runs the second half of phase D on this link: re-ship this
// destination's slice of the candidate set, phase tags preserved.
func (l *link) shipCollect(qs *tuple.Schema, byPhase [][]tuple.Tuple, batchSize int) error {
	for p, rows := range byPhase {
		if err := l.sendRows(qs, frameCollectBatch, uint16(p), rows, batchSize); err != nil {
			return err
		}
	}
	_, err := l.send(FrameHeader{Type: frameCollectEnd}, nil)
	return err
}

// appendRows appends b's tuples to dst, copied out of the transport's
// buffer into one arena.
func appendRows(dst []tuple.Tuple, b *exec.Batch) []tuple.Tuple {
	raw := bytes.Clone(b.Raw())
	w := b.Schema().Width()
	for off := 0; off < len(raw); off += w {
		dst = append(dst, raw[off:off+w:off+w])
	}
	return dst
}

// readQuotient runs phase E on this link: collect the worker's final
// quotient share and its stats.
func (l *link) readQuotient(qs *tuple.Schema) error {
	end, err := absorbFrames(l, qs, frameQuotientBatch, frameQuotientEnd, func(_ FrameHeader, b *exec.Batch) error {
		l.out = appendRows(l.out, b)
		l.tuplesIn += int64(b.Len())
		return nil
	})
	if err != nil {
		return err
	}
	w := &l.wstats
	w.DividendTuples, w.DivisorTuples, w.QuotientTuples, err = decodeWorkerStats(end)
	l.stats.RoundTrips++
	return err
}

// Divide runs one distributed division over the given worker links, one
// worker per connection (each peer must be running ServeWorker). On success
// the connections stay open for the next job; on failure — including
// cancellation and a worker dying mid-query — every blocked read or write is
// poisoned via connection deadlines, so Divide returns promptly with a typed
// error and no goroutine of its own left behind. The connections are NOT
// usable after a failure.
func Divide(ctx context.Context, sp division.Spec, cfg Config, conns []net.Conn) (*Result, error) {
	links := make([]transport, len(conns))
	for i, c := range conns {
		links[i] = &connTransport{c: c, fr: frameReader{r: c}}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res, err := divide(ctx, exec.NewFirstError(cancel), sp, cfg, links, nil)
	if err != nil {
		return nil, err
	}
	var bytesOut, frames int64
	for _, l := range res.Links {
		bytesOut += l.BytesOut
		frames += l.FramesOut + l.FramesIn
	}
	obs.Default.Counter("net.bytes_out").Add(bytesOut)
	obs.Default.Counter("net.frames").Add(frames)
	obs.Default.Counter("net.filter_drops").Add(res.Network.TuplesFiltered)
	obs.Default.Counter("net.pipeline.producers").Add(int64(res.Shuffle.Producers))
	obs.Default.Counter("net.pipeline.morsels").Add(int64(res.Shuffle.Morsels))
	obs.Default.Counter("net.pipeline.stalls").Add(res.Shuffle.Stalls)
	return res, nil
}

// DividePipes runs Divide's protocol in process: as many goroutines as
// workers run the worker loop on one end of a pipe each, and Divide's
// coordinator drives the other ends. A worker's failure crosses as its Go
// error value; the pipes close and every worker goroutine has exited before
// DividePipes returns. span, when set, gets the shuffle's input-path note
// and one "worker i" span per worker with its quotient rows and wall time.
func DividePipes(ctx context.Context, sp division.Spec, cfg Config, workers int, span *obs.Span) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := exec.NewFirstError(cancel)
	links := make([]transport, workers)
	var wg sync.WaitGroup
	for i := range links {
		coord, worker := newPipe()
		links[i] = coord
		wg.Add(1)
		go func() {
			defer wg.Done()
			// After a cancellation the worker's error is its echo.
			if err := serve(worker); err != nil && ctx.Err() == nil {
				fe.Set(&WorkerError{Worker: i, Err: err})
			}
		}()
	}
	res, err := divide(ctx, fe, sp, cfg, links, span)
	for _, l := range links {
		l.(*pipeEnd).close()
	}
	wg.Wait()
	return res, err
}

// divide is the one coordinator, over any transport: place the divisor on
// the workers and read their filters back (phases A and B), ship the
// dividend (C), run divisor partitioning's collection round (D) and collect
// the quotient (E). Failures go to fe, whose cancellation of ctx poisons
// every link, so each phase's blocked reads and writes fail promptly.
func divide(ctx context.Context, fe *exec.FirstError, sp division.Spec, cfg Config,
	ts []transport, span *obs.Span) (*Result, error) {
	start := time.Now()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(sp.Dividend.Schema()); err != nil {
		return nil, err
	}
	nw := len(ts)
	if nw == 0 {
		return nil, fmt.Errorf("netexchange: no worker links")
	}
	if nw > MaxWorkers {
		return nil, fmt.Errorf("netexchange: %d workers exceed the wire limit of %d", nw, MaxWorkers)
	}
	strategy := strategyQuotient
	if cfg.Strategy == division.DivisorPartitioning {
		strategy = strategyDivisor
	}
	cfg.BatchSize = cmp.Or(cfg.BatchSize, exec.DefaultBatchSize)
	cfg.MorselTuples = cmp.Or(cfg.MorselTuples, 4*cfg.BatchSize)
	links := make([]*link, nw)
	for i, t := range ts {
		links[i] = &link{id: i, t: t}
	}
	// Poisoning is the no-hang guarantee: any failure (or caller
	// cancellation) fails every link's blocked I/O. A completed job stops
	// it before the caller's deferred cancel, keeping its links clean for
	// reuse.
	stop := context.AfterFunc(ctx, func() {
		for _, l := range links {
			l.t.poison()
		}
	})

	divisor, err := division.DistinctDivisor(exec.NewContextScan(ctx, sp.Divisor), division.Env{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workers: make([]WorkerStats, nw),
		Links:   make([]LinkStats, nw),
	}
	if len(divisor) == 0 {
		// An empty divisor yields an empty quotient; nothing crosses the wire.
		stop()
		res.Elapsed = time.Since(start)
		return res, nil
	}

	ds := sp.Dividend.Schema()
	ss := sp.Divisor.Schema()
	qs := sp.QuotientSchema()

	// Replicate or cluster the divisor: under divisor partitioning a
	// candidate is in the quotient iff every phase reported it.
	place := division.PlaceDivisor(divisor, cfg.Strategy, nw)
	filterBits := 0
	if cfg.BitVectorFilter {
		filterBits = division.FilterBits(len(divisor))
	}
	if span != nil {
		for _, l := range links {
			l.span = span.Child(fmt.Sprintf("worker %d", l.id), "worker")
		}
	}

	// Phases A+B, one goroutine per link: open, seed the divisor, read the
	// filter back. Under quotient partitioning every worker builds an
	// identical filter from the full replica, so worker 0 is elected the
	// single sender; under divisor partitioning every worker's cluster
	// filter comes back and the coordinator ORs them into the global one.
	var wg sync.WaitGroup
	for i, l := range links {
		j := jobHeader{
			Strategy:    strategy,
			BitVector:   cfg.BitVectorFilter,
			SendFilter:  cfg.BitVectorFilter && (strategy == strategyDivisor || i == 0),
			WorkerID:    i,
			Workers:     nw,
			Phase:       place.Phase[i],
			NumPhases:   place.Phases,
			FilterBits:  filterBits,
			BatchSize:   cfg.BatchSize,
			HBS:         workerHBS,
			Budget:      cfg.WorkerBudget,
			Dividend:    ds,
			Divisor:     ss,
			DivisorCols: sp.DivisorCols,
		}
		wg.Add(1)
		go func(l *link, j jobHeader, cluster []tuple.Tuple) {
			defer wg.Done()
			record(ctx, fe, l, l.openAndSeed(j, cluster, cfg.BatchSize))
		}(l, j, place.Clusters[i])
	}
	wg.Wait()
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}

	var bv *bitmap.Bitmap
	if cfg.BitVectorFilter {
		bv = bitmap.New(filterBits)
		for _, l := range links {
			if l.filterWords == nil {
				continue
			}
			part, err := bitmap.FromWords(filterBits, l.filterWords)
			if err != nil {
				record(ctx, fe, l, err)
				return nil, fe.Err()
			}
			bv.Or(part)
			res.FilterBytes += l.filterWire
		}
	}

	// Phase C: ship the dividend through the shuffle. Its batches are
	// released once the job is over, when no pipe worker still reads them.
	sh := newShuffle(sp, cfg.Strategy, bv, nw, cfg.BatchSize, cfg.MorselTuples, span)
	defer sh.Release()
	if err := shipDividend(ctx, fe, sh, links, res, cfg.BatchSize, int64(ds.Width())); err != nil {
		return nil, err
	}

	// Phase D, divisor partitioning only: gather every worker's phase-tagged
	// candidates, then — full barrier — repartition them on the quotient
	// attributes and ship each destination its slice. This is the second
	// distributed round; the barrier is what keeps a single writer per link.
	if strategy == strategyDivisor {
		pending := make([][][]tuple.Tuple, nw)
		for d := range pending {
			pending[d] = make([][]tuple.Tuple, place.Phases)
		}
		for _, l := range links {
			wg.Add(1)
			go func(l *link) {
				defer wg.Done()
				record(ctx, fe, l, l.readCandidates(qs, place.Phase[l.id], pending))
			}(l)
		}
		wg.Wait()
		if ferr := fe.Err(); ferr != nil {
			return nil, ferr
		}
		for i, l := range links {
			wg.Add(1)
			go func(l *link, byPhase [][]tuple.Tuple) {
				defer wg.Done()
				record(ctx, fe, l, l.shipCollect(qs, byPhase, cfg.BatchSize))
			}(l, pending[i])
		}
		wg.Wait()
		if ferr := fe.Err(); ferr != nil {
			return nil, ferr
		}
	}

	// Phase E: collect each worker's final quotient share and stats.
	for _, l := range links {
		wg.Add(1)
		go func(l *link) {
			defer wg.Done()
			record(ctx, fe, l, l.readQuotient(qs))
			l.wall = time.Since(start)
		}(l)
	}
	wg.Wait()
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}
	if !stop() {
		// The context ended first and its poisoning has begun: the job
		// did not finish in time to keep the links usable.
		return nil, ctx.Err()
	}

	for i, l := range links {
		res.Workers[i] = l.wstats
		res.Links[i] = l.stats
		res.Quotient = append(res.Quotient, l.out...)
		res.Network.TuplesShipped += l.tuplesOut + l.tuplesIn
		res.Network.BytesShipped += l.stats.BytesOut + l.stats.BytesIn
		if l.span != nil {
			l.span.Record(1, l.wstats.QuotientTuples, 0, l.wall, exec.Counters{})
			l.span.Notef("dividend=%d divisor=%d", l.wstats.DividendTuples, l.wstats.DivisorTuples)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// linkDepth is how many full dividend batches may queue for one link:
// enough to keep its consumer busy while the producers route, few enough to
// bound coordinator memory per link.
const linkDepth = 4

// shipDividend is phase C. The Shuffle routes the dividend — bit-vector
// filter first, then the partitioning hash — from morsel producers (or its
// single fallback reader, for sources that hide splitting) to one consumer
// per link, so the scan, the transfer and the workers' absorb overlap. A
// TCP link's consumer is a linkWriter goroutine, the only one touching its
// connection; a pipe's is the worker itself, reading the destination in
// place. The dividendEnd frames follow the shuffle's barrier.
func shipDividend(ctx context.Context, fe *exec.FirstError, sh *Shuffle, links []*link, res *Result,
	batchSize int, width int64) error {
	writers := make([]*linkWriter, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		if p, ok := l.t.(*pipeEnd); ok {
			record(ctx, fe, l, p.push(pipeFrame{sh: sh, dest: i}))
			continue
		}
		w := &linkWriter{l: l, size: batchSize}
		writers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, fe, sh, i)
		}()
	}
	st := sh.Run(ctx, fe)
	wg.Wait()
	res.Shuffle = st
	res.Network.TuplesFiltered = st.Filtered
	for i, l := range links {
		w := writers[i]
		if w == nil {
			// A pipe carries the batches as the producers cut them; charge
			// what a link writer puts on the wire: ceil(n/BatchSize) frames.
			w = &linkWriter{tuples: st.Sent[i]}
			w.frames = (w.tuples + int64(batchSize) - 1) / int64(batchSize)
			w.bytes = w.frames*frameBytes(0) + w.tuples*width
		}
		l.stats.BytesOut += w.bytes
		l.stats.FramesOut += w.frames
		l.tuplesOut += w.tuples
		res.DividendBytes += w.bytes
	}
	if err := fe.Err(); err != nil {
		return err
	}
	for _, l := range links {
		if _, err := l.send(FrameHeader{Type: frameDividendEnd}, nil); err != nil {
			record(ctx, fe, l, err)
			return fe.Err()
		}
	}
	return nil
}

// linkWriter writes one TCP link's share of the shuffled dividend. A full
// batch goes out as one zero-copy frame. Each producer's trailing partial
// batch is merged with the others into full frames first, so the link
// carries ceil(tuples/BatchSize) dividend frames however many producers
// routed to it. After a write error the writer keeps draining and recycling
// batches — a producer must never block on a dead link — but stops touching
// the connection.
type linkWriter struct {
	l      *link
	size   int
	failed bool

	bytes, frames, tuples int64 // writer-private until joined
}

func (w *linkWriter) run(ctx context.Context, fe *exec.FirstError, sh *Shuffle, dest int) {
	var pend *exec.Batch // merged partial batches, short of a full frame
	for b := range sh.Dest(dest) {
		switch {
		case b.Len() == w.size:
			w.write(ctx, fe, b)
		case pend == nil:
			pend = b
			continue
		default:
			for i, n := 0, b.Len(); i < n; i++ {
				pend.Append(b.Tuple(i))
				if pend.Len() == w.size {
					w.write(ctx, fe, pend)
					pend.Reset()
				}
			}
		}
		sh.Recycle(b)
	}
	if pend != nil {
		if pend.Len() > 0 {
			w.write(ctx, fe, pend)
		}
		sh.Recycle(pend)
	}
}

// write sends b as one dividend frame.
func (w *linkWriter) write(ctx context.Context, fe *exec.FirstError, b *exec.Batch) {
	if w.failed {
		return
	}
	n, err := w.l.t.send(FrameHeader{Type: frameDividendBatch, Count: uint32(b.Len())}, b.Raw())
	if err != nil {
		w.failed = true
		record(ctx, fe, w.l, err)
		return
	}
	w.bytes += n
	w.frames++
	w.tuples += int64(b.Len())
}

// Cluster is a set of goroutine-hosted workers reachable over TCP loopback —
// the CI-friendly stand-in for forked worker processes (divbench distributed
// -forked spawns the real thing). Every byte still crosses the kernel socket
// layer, so frame and byte accounting match the forked mode exactly.
type Cluster struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

// StartLocalCluster listens on loopback, starts acceptors that run
// ServeWorker per connection, and dials n worker links.
func StartLocalCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netexchange: cluster needs at least one worker, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &Cluster{ln: ln}
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			cl.wg.Add(1)
			go func() {
				defer cl.wg.Done()
				ServeWorker(c) //nolint:errcheck // worker lifetime ends with its conn
			}()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.conns = append(cl.conns, c)
	}
	return cl, nil
}

// Conns returns the coordinator-side ends of the worker links, in worker
// order. Closing one simulates that worker's death.
func (cl *Cluster) Conns() []net.Conn { return cl.conns }

// Close tears the cluster down and waits until every worker goroutine has
// exited — the leak-free shutdown the chaos suite asserts on.
func (cl *Cluster) Close() {
	for _, c := range cl.conns {
		c.Close()
	}
	cl.ln.Close()
	cl.wg.Wait()
}
