package netexchange

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmap"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parallel"
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
	// BitVectorBits sizes the filter; 0 picks 8× the divisor cardinality.
	BitVectorBits int
	// BatchSize is the tuples-per-frame packing of every shuffle
	// (default exec.DefaultBatchSize).
	BatchSize int
	// HBS sizes worker hash tables (default 2).
	HBS float64
	// MorselTuples is the work-queue grain of the dividend shuffle; 0 picks
	// 4× the batch size.
	MorselTuples int
	// WorkerBudget, when positive, is shipped in every job header: each
	// worker bounds its local division to this many bytes, spooling its
	// partition through division.DivideRecursive instead of building
	// unbounded in-memory tables. Budget and depth-cap failures come back
	// as WorkerError wrapping the typed division sentinels.
	WorkerBudget int64
	// Progress, when set, receives human-readable summary lines.
	Progress func(format string, args ...any)
}

// LinkStats account one coordinator↔worker connection.
type LinkStats struct {
	BytesOut   int64 // wire bytes sent, frame overhead included
	BytesIn    int64
	FramesOut  int64
	FramesIn   int64
	RoundTrips int64 // write-phase→read-phase turns completed on the link
}

// Result is the outcome of a distributed division. Network mirrors the
// in-process parallel package's accounting so the two exchanges compare cell
// for cell; the byte counts here are real frames on a real transport, not a
// model.
type Result struct {
	Quotient []tuple.Tuple
	Network  parallel.NetworkStats
	Workers  []parallel.WorkerStats
	Links    []LinkStats
	// DividendBytes is the wire cost of dividend batch frames alone — the
	// quantity bit-vector filtering exists to reduce.
	DividendBytes int64
	// FilterBytes is the wire cost of shipping the bit vectors back, the
	// price paid for that reduction.
	FilterBytes int64
	Elapsed     time.Duration
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

// link is the coordinator's view of one worker connection. Each protocol
// phase has exactly one goroutine touching a link, with barriers between
// phases, so the plain stats fields need no synchronization.
type link struct {
	id   int
	conn net.Conn
	fr   *frameReader

	stats       LinkStats
	filterWords []uint64
	filterWire  int64 // wire bytes of the filter frame

	tuplesOut int64 // divisor + dividend + collect tuples sent
	tuplesIn  int64 // candidate + quotient tuples received

	out    []tuple.Tuple
	wstats parallel.WorkerStats
}

// wrap attributes err to this link's worker unless it is nil, already
// attributed, or a bare cancellation.
func (l *link) wrap(err error) error {
	if err == nil {
		return nil
	}
	var we *WorkerError
	if errors.As(err, &we) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &WorkerError{Worker: l.id, Err: err}
}

// control sends one control frame, counting it.
func (l *link) control(h FrameHeader, payload []byte) error {
	n, err := writeControlFrame(l.conn, h, payload)
	if err != nil {
		return err
	}
	l.stats.BytesOut += n
	l.stats.FramesOut++
	return nil
}

// read pulls one frame, counting it, and converts a peer-reported error.
func (l *link) read() (FrameHeader, []byte, int64, error) {
	h, payload, wire, err := l.fr.next()
	if err != nil {
		return h, nil, 0, err
	}
	l.stats.BytesIn += wire
	l.stats.FramesIn++
	if h.Type == frameError {
		return h, nil, 0, errRemote(payload)
	}
	return h, payload, wire, nil
}

// foldBatcher folds a frameBatcher's outbound traffic into the link stats.
func (l *link) foldBatcher(fb *frameBatcher) {
	l.stats.BytesOut += fb.bytes
	l.stats.FramesOut += fb.frames
	l.tuplesOut += fb.tuples
}

// openAndSeed runs phases A and B on this link: send the job header and the
// divisor share, then (when the worker was elected a filter sender) read the
// bit vector back.
func (l *link) openAndSeed(j jobHeader, cluster []tuple.Tuple, batchSize int) error {
	if err := l.control(FrameHeader{Type: frameOpen}, appendJobHeader(nil, j)); err != nil {
		return err
	}
	fb := newFrameBatcher(l.conn, j.Divisor, frameDivisorBatch, 0, batchSize)
	defer fb.release()
	for _, d := range cluster {
		if err := fb.add(d); err != nil {
			return err
		}
	}
	if err := fb.flush(); err != nil {
		return err
	}
	l.foldBatcher(fb)
	if err := l.control(FrameHeader{Type: frameDivisorEnd}, nil); err != nil {
		return err
	}
	if !j.SendFilter {
		return nil
	}
	h, payload, wire, err := l.read()
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
	recv := exec.NewBatch(qs, exec.DefaultBatchSize)
	defer recv.Release()
	k := uint64(len(pending))
	for {
		h, payload, _, err := l.read()
		if err != nil {
			return err
		}
		switch h.Type {
		case frameCandidate:
			if int(h.Phase) != myPhase {
				return fmt.Errorf("%w: candidate tagged phase %d from the phase-%d worker",
					ErrCorruptFrame, h.Phase, myPhase)
			}
			if err := aliasBatch(recv, qs, h, payload); err != nil {
				return err
			}
			for i, n := 0, recv.Len(); i < n; i++ {
				t := append(tuple.Tuple(nil), recv.Tuple(i)...)
				dest := int(qs.HashAll(t) % k)
				pending[dest][myPhase] = append(pending[dest][myPhase], t)
				l.tuplesIn++
			}
		case frameCandidateEnd:
			l.stats.RoundTrips++
			return nil
		default:
			return fmt.Errorf("%w: frame type %d during candidate phase", ErrCorruptFrame, h.Type)
		}
	}
}

// shipCollect runs the second half of phase D on this link: re-ship this
// destination's slice of the candidate set, phase tags preserved.
func (l *link) shipCollect(qs *tuple.Schema, byPhase [][]tuple.Tuple, batchSize int) error {
	for p, tuples := range byPhase {
		if len(tuples) == 0 {
			continue
		}
		fb := newFrameBatcher(l.conn, qs, frameCollectBatch, uint16(p), batchSize)
		for _, t := range tuples {
			if err := fb.add(t); err != nil {
				fb.release()
				return err
			}
		}
		if err := fb.flush(); err != nil {
			fb.release()
			return err
		}
		l.foldBatcher(fb)
		fb.release()
	}
	return l.control(FrameHeader{Type: frameCollectEnd}, nil)
}

// readQuotient runs phase E on this link: collect the worker's final
// quotient share and its stats.
func (l *link) readQuotient(qs *tuple.Schema) error {
	recv := exec.NewBatch(qs, exec.DefaultBatchSize)
	defer recv.Release()
	for {
		h, payload, _, err := l.read()
		if err != nil {
			return err
		}
		switch h.Type {
		case frameQuotientBatch:
			if err := aliasBatch(recv, qs, h, payload); err != nil {
				return err
			}
			for i, n := 0, recv.Len(); i < n; i++ {
				l.out = append(l.out, append(tuple.Tuple(nil), recv.Tuple(i)...))
				l.tuplesIn++
			}
		case frameQuotientEnd:
			dividend, divisor, quotient, err := decodeWorkerStats(payload)
			if err != nil {
				return err
			}
			l.wstats = parallel.WorkerStats{
				DividendTuples: dividend,
				DivisorTuples:  divisor,
				QuotientTuples: quotient,
			}
			l.stats.RoundTrips++
			return nil
		default:
			return fmt.Errorf("%w: frame type %d during quotient phase", ErrCorruptFrame, h.Type)
		}
	}
}

// Divide runs one distributed division over the given worker links, one
// worker per connection (each peer must be running ServeWorker). On success
// the connections stay open for the next job; on failure — including
// cancellation and a worker dying mid-query — every blocked read or write is
// poisoned via connection deadlines, so Divide returns promptly with a typed
// error and no goroutine of its own left behind. The connections are NOT
// usable after a failure.
func Divide(ctx context.Context, sp division.Spec, cfg Config, conns []net.Conn) (*Result, error) {
	start := time.Now()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	nw := len(conns)
	if nw == 0 {
		return nil, fmt.Errorf("netexchange: no worker connections")
	}
	if nw > 1<<16-1 {
		return nil, fmt.Errorf("netexchange: %d workers exceed the wire limit", nw)
	}
	strategy := strategyQuotient
	switch cfg.Strategy {
	case division.QuotientPartitioning:
	case division.DivisorPartitioning:
		strategy = strategyDivisor
	default:
		return nil, fmt.Errorf("netexchange: unknown partitioning strategy %v", cfg.Strategy)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = exec.DefaultBatchSize
	}
	if cfg.HBS <= 0 {
		cfg.HBS = 2
	}
	if cfg.MorselTuples <= 0 {
		cfg.MorselTuples = 4 * cfg.BatchSize
	}
	if cfg.WorkerBudget < 0 {
		cfg.WorkerBudget = 0
	}
	cfg.Progress = obs.SerializeProgress(cfg.Progress)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := parallel.NewFirstError(cancel)

	// The watchdog is the no-hang guarantee: any failure (or caller
	// cancellation) poisons every connection's blocked I/O with an already-
	// expired deadline. finished flips before the success return's deferred
	// cancel, so completed jobs keep their links clean for reuse.
	var finished atomic.Bool
	go func() {
		<-ctx.Done()
		if finished.Load() {
			return
		}
		for _, c := range conns {
			c.SetDeadline(time.Now()) //nolint:errcheck // poisoning best-effort
		}
	}()

	divisor, err := division.DistinctDivisor(exec.NewContextScan(ctx, sp.Divisor), division.Env{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workers: make([]parallel.WorkerStats, nw),
		Links:   make([]LinkStats, nw),
	}
	if len(divisor) == 0 {
		// An empty divisor yields an empty quotient; nothing crosses the wire.
		finished.Store(true)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	ds := sp.Dividend.Schema()
	ss := sp.Divisor.Schema()
	qs := sp.QuotientSchema()

	// Replicate or cluster the divisor exactly like the in-process package:
	// under divisor partitioning a candidate is in the quotient iff every
	// phase reported it.
	place := division.PlaceDivisor(divisor, cfg.Strategy, nw)
	filterBits := 0
	if cfg.BitVectorFilter {
		filterBits = division.FilterBits(cfg.BitVectorBits, len(divisor))
	}

	links := make([]*link, nw)
	for i, c := range conns {
		links[i] = &link{id: i, conn: c, fr: &frameReader{r: c}}
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
			HBS:         cfg.HBS,
			Budget:      cfg.WorkerBudget,
			Dividend:    ds,
			Divisor:     ss,
			DivisorCols: sp.DivisorCols,
		}
		wg.Add(1)
		go func(l *link, j jobHeader, cluster []tuple.Tuple) {
			defer wg.Done()
			fe.Set(l.wrap(l.openAndSeed(j, cluster, cfg.BatchSize)))
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
				return nil, l.wrap(err)
			}
			bv.Or(part)
			res.FilterBytes += l.filterWire
		}
	}

	// Phase C: ship the dividend through the in-process package's shuffle.
	if err := shipDividend(ctx, sp, cfg, links, bv, res, fe); err != nil {
		fe.Set(err)
		return nil, fe.Err()
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
				fe.Set(l.wrap(l.readCandidates(qs, place.Phase[l.id], pending)))
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
				fe.Set(l.wrap(l.shipCollect(qs, byPhase, cfg.BatchSize)))
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
			fe.Set(l.wrap(l.readQuotient(qs)))
		}(l)
	}
	wg.Wait()
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}

	for i, l := range links {
		res.Workers[i] = l.wstats
		res.Links[i] = l.stats
		res.Quotient = append(res.Quotient, l.out...)
		res.Network.TuplesShipped += l.tuplesOut + l.tuplesIn
		res.Network.BytesShipped += l.stats.BytesOut + l.stats.BytesIn
	}

	var bytesOut, frames int64
	for _, l := range links {
		bytesOut += l.stats.BytesOut
		frames += l.stats.FramesOut + l.stats.FramesIn
	}
	obs.Default.Counter("net.bytes_out").Add(bytesOut)
	obs.Default.Counter("net.frames").Add(frames)
	obs.Default.Counter("net.filter_drops").Add(res.Network.TuplesFiltered)

	if cfg.Progress != nil {
		cfg.Progress("netexchange %s: %d workers, %d tuples / %d bytes on the wire, %d filtered",
			cfg.Strategy, nw, res.Network.TuplesShipped, res.Network.BytesShipped, res.Network.TuplesFiltered)
		for i, l := range links {
			cfg.Progress("link %d: out %dB/%df in %dB/%df round-trips %d quotient %d",
				i, l.stats.BytesOut, l.stats.FramesOut, l.stats.BytesIn, l.stats.FramesIn,
				l.stats.RoundTrips, l.wstats.QuotientTuples)
		}
	}

	finished.Store(true)
	res.Elapsed = time.Since(start)
	return res, nil
}

// linkDepth is how many full dividend batches may queue for one link writer:
// enough to keep the writer busy while the producers route, few enough to
// bound coordinator memory per link.
const linkDepth = 4

// shipDividend is phase C. The parallel package's Shuffle routes the
// dividend — bit-vector filter first, then the partitioning hash — from
// morsel producers (or its single fallback reader, for sources that hide
// splitting) to one linkWriter per link, so the scan, serialization and the
// wire overlap. Each writer is the only goroutine touching its connection;
// its totals fold into the link once it has been joined, and the
// dividendEnd frames follow that barrier.
func shipDividend(ctx context.Context, sp division.Spec, cfg Config, links []*link,
	bv *bitmap.Bitmap, res *Result, fe *parallel.FirstError) error {
	sh := parallel.NewShuffle(sp, cfg.Strategy, bv, parallel.ShuffleOptions{
		Sites:        len(links),
		Depth:        linkDepth,
		Producers:    min(runtime.GOMAXPROCS(0), 8),
		BatchSize:    cfg.BatchSize,
		MorselTuples: cfg.MorselTuples,
	})
	writers := make([]*linkWriter, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		w := &linkWriter{l: l, size: cfg.BatchSize}
		writers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, fe, sh, i)
		}()
	}
	st := sh.Run(ctx, fe)
	wg.Wait()
	sh.Release()
	for _, w := range writers {
		w.l.stats.BytesOut += w.bytes
		w.l.stats.FramesOut += w.frames
		w.l.tuplesOut += w.tuples
		res.DividendBytes += w.bytes
	}
	res.Network.TuplesFiltered = st.Filtered
	if err := fe.Err(); err != nil {
		return err
	}
	for _, l := range links {
		if err := l.control(FrameHeader{Type: frameDividendEnd}, nil); err != nil {
			return l.wrap(err)
		}
	}
	obs.Default.Counter("net.pipeline.producers").Add(int64(st.Producers))
	obs.Default.Counter("net.pipeline.morsels").Add(int64(st.Morsels))
	obs.Default.Counter("net.pipeline.stalls").Add(st.Stalls)
	return nil
}

// linkWriter writes one link's share of the shuffled dividend. A full batch
// goes out as one zero-copy frame. Each producer's trailing partial batch is
// merged with the others into full frames first, so the link carries
// ceil(tuples/BatchSize) dividend frames however many producers routed to
// it. After a write error the writer keeps draining and recycling batches —
// a producer must never block on a dead link — but stops touching the
// connection.
type linkWriter struct {
	l      *link
	size   int
	failed bool

	bytes, frames, tuples int64 // writer-private until joined
}

func (w *linkWriter) run(ctx context.Context, fe *parallel.FirstError, sh *parallel.Shuffle, dest int) {
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

// write sends b as one dividend frame. A failure after the shared context
// was cancelled reports the cancellation, not the poisoned-deadline noise
// the watchdog induced.
func (w *linkWriter) write(ctx context.Context, fe *parallel.FirstError, b *exec.Batch) {
	if w.failed {
		return
	}
	n, err := writeRawFrame(w.l.conn, FrameHeader{Type: frameDividendBatch, Count: uint32(b.Len())}, b.Raw())
	if err != nil {
		w.failed = true
		if cerr := ctx.Err(); cerr != nil {
			fe.Set(cerr)
		} else {
			fe.Set(w.l.wrap(err))
		}
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
