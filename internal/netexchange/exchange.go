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
	"repro/internal/hashtab"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tuple"
)

// jobHeader.Strategy values.
const (
	strategyQuotient = byte(0)
	strategyDivisor  = byte(1)
)

// ShipMode selects the dividend shipping engine for phase C.
type ShipMode int

const (
	// ShipPipelined (the default) overlaps the dividend scan, frame
	// serialization, and the wire: morsel-driven producers feed per-link
	// double-buffered shipper goroutines, so worker absorption runs
	// concurrently with the coordinator's scan (DESIGN.md §15).
	ShipPipelined ShipMode = iota
	// ShipPhased is the strictly sequential single-goroutine shipper: one
	// scan serializes and writes every link in turn. Kept as the measured
	// baseline the latency sweep compares against.
	ShipPhased
)

func (m ShipMode) String() string {
	if m == ShipPhased {
		return "phased"
	}
	return "pipelined"
}

// Config tunes a distributed division. The zero value of every field is
// "use the default"; Strategy defaults to quotient partitioning and Ship to
// pipelined shipping.
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
	// Ship selects the phase C engine; both modes produce identical
	// per-link frame and byte totals (asserted by TestPipelinedMatchesPhased),
	// only the overlap differs.
	Ship ShipMode
	// Producers bounds the morsel-scan goroutines of pipelined shipping;
	// 0 picks GOMAXPROCS capped at 8.
	Producers int
	// MorselTuples is the work-queue grain of pipelined shipping; 0 picks
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

// firstErr implements first-error-wins propagation (the parallel package's
// pattern): the first failure cancels the shared context so every other
// participant unwinds, and their secondary errors are discarded.
type firstErr struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func (f *firstErr) set(err error) {
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

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

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
	divBytes    int64 // wire bytes of dividend batch frames

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

// collectDistinct reads the divisor once at the coordinator, eliminating
// duplicates.
func collectDistinct(ctx context.Context, sp division.Spec) ([]tuple.Tuple, error) {
	tab := hashtab.NewForExpected(sp.Divisor.Schema(), 256, 2)
	var out []tuple.Tuple
	err := exec.ForEach(exec.NewContextScan(ctx, sp.Divisor), func(t tuple.Tuple) error {
		if e, created := tab.GetOrInsert(t); created {
			out = append(out, e.Tuple)
		}
		return nil
	})
	return out, err
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
	if cfg.Producers <= 0 {
		cfg.Producers = runtime.GOMAXPROCS(0)
		if cfg.Producers > 8 {
			cfg.Producers = 8
		}
	}
	if cfg.WorkerBudget < 0 {
		cfg.WorkerBudget = 0
	}
	cfg.Progress = obs.SerializeProgress(cfg.Progress)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstErr{cancel: cancel}

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

	divisor, err := collectDistinct(ctx, sp)
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

	// Partition (or replicate) the divisor. Divisor partitioning numbers the
	// non-empty clusters as phases, exactly like the in-process package: a
	// candidate is in the quotient iff every phase reported it.
	clusters := make([][]tuple.Tuple, nw)
	phaseOf := make([]int, nw)
	numPhases := 0
	if strategy == strategyDivisor {
		for _, d := range divisor {
			c := int(tuple.HashBytes(d) % uint64(nw))
			clusters[c] = append(clusters[c], d)
		}
		for i := range clusters {
			if len(clusters[i]) > 0 {
				phaseOf[i] = numPhases
				numPhases++
			} else {
				phaseOf[i] = -1
			}
		}
	} else {
		for i := range clusters {
			clusters[i] = divisor
			phaseOf[i] = -1
		}
	}
	filterBits := 0
	if cfg.BitVectorFilter {
		filterBits = cfg.BitVectorBits
		if filterBits <= 0 {
			filterBits = 8*len(divisor) + 1
		}
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
			Phase:       phaseOf[i],
			NumPhases:   numPhases,
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
			fe.set(l.wrap(l.openAndSeed(j, cluster, cfg.BatchSize)))
		}(l, j, clusters[i])
	}
	wg.Wait()
	if ferr := fe.get(); ferr != nil {
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

	// Phase C: ship the dividend. Routing matches the in-process
	// partitioner in both engines: quotient partitioning routes on the
	// quotient attributes, divisor partitioning reuses the divisor hash
	// that clustered the divisor. Pipelined shipping (the default)
	// overlaps scan, serialization, and the wire; the phased engine keeps
	// the strictly sequential shipper as the measured baseline. Per-link
	// stats folding happens behind the engine's barrier either way, so
	// LinkStats and NetworkStats are identical across the two.
	routeCols := sp.QuotientCols()
	if strategy == strategyDivisor {
		routeCols = nil
	}
	rt := division.NewRouter(sp.Dividend.Schema(), sp.DivisorCols, routeCols, bv, nw)
	var filtered int64
	var shipErr error
	if cfg.Ship == ShipPhased {
		filtered, shipErr = shipDividendPhased(ctx, sp, cfg, links, rt, res)
	} else {
		filtered, shipErr = shipDividendPipelined(ctx, sp, cfg, links, rt, res, fe)
	}
	if shipErr != nil {
		fe.set(shipErr)
		return nil, fe.get()
	}

	// Phase D, divisor partitioning only: gather every worker's phase-tagged
	// candidates, then — full barrier — repartition them on the quotient
	// attributes and ship each destination its slice. This is the second
	// distributed round; the barrier is what keeps a single writer per link.
	if strategy == strategyDivisor {
		pending := make([][][]tuple.Tuple, nw)
		for d := range pending {
			pending[d] = make([][]tuple.Tuple, numPhases)
		}
		for _, l := range links {
			wg.Add(1)
			go func(l *link) {
				defer wg.Done()
				fe.set(l.wrap(l.readCandidates(qs, phaseOf[l.id], pending)))
			}(l)
		}
		wg.Wait()
		if ferr := fe.get(); ferr != nil {
			return nil, ferr
		}
		for i, l := range links {
			wg.Add(1)
			go func(l *link, byPhase [][]tuple.Tuple) {
				defer wg.Done()
				fe.set(l.wrap(l.shipCollect(qs, byPhase, cfg.BatchSize)))
			}(l, pending[i])
		}
		wg.Wait()
		if ferr := fe.get(); ferr != nil {
			return nil, ferr
		}
	}

	// Phase E: collect each worker's final quotient share and stats.
	for _, l := range links {
		wg.Add(1)
		go func(l *link) {
			defer wg.Done()
			fe.set(l.wrap(l.readQuotient(qs)))
		}(l)
	}
	wg.Wait()
	if ferr := fe.get(); ferr != nil {
		return nil, ferr
	}

	for i, l := range links {
		res.Workers[i] = l.wstats
		res.Links[i] = l.stats
		res.Quotient = append(res.Quotient, l.out...)
		res.Network.TuplesShipped += l.tuplesOut + l.tuplesIn
		res.Network.BytesShipped += l.stats.BytesOut + l.stats.BytesIn
	}
	res.Network.TuplesFiltered = filtered

	var bytesOut, frames int64
	for _, l := range links {
		bytesOut += l.stats.BytesOut
		frames += l.stats.FramesOut + l.stats.FramesIn
	}
	obs.Default.Counter("net.bytes_out").Add(bytesOut)
	obs.Default.Counter("net.frames").Add(frames)
	obs.Default.Counter("net.filter_drops").Add(filtered)

	if cfg.Progress != nil {
		cfg.Progress("netexchange %s: %d workers, %d tuples / %d bytes on the wire, %d filtered",
			cfg.Strategy, nw, res.Network.TuplesShipped, res.Network.BytesShipped, filtered)
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

// shipDividendPhased is the strictly sequential phase C engine: one
// goroutine scans the dividend, drops filtered tuples before serialization,
// and write-combines the rest into per-link frames; it is kept as the
// overlap-free baseline. Arenas are released on every exit, error paths
// included.
func shipDividendPhased(ctx context.Context, sp division.Spec, cfg Config, links []*link,
	rt division.Router, res *Result) (int64, error) {
	ds := sp.Dividend.Schema()
	shippers := make([]*frameBatcher, len(links))
	for i, l := range links {
		shippers[i] = newFrameBatcher(l.conn, ds, frameDividendBatch, 0, cfg.BatchSize)
	}
	var filtered int64
	shipErr := exec.ForEach(exec.NewContextScan(ctx, sp.Dividend), func(t tuple.Tuple) error {
		d, ok := rt.Dest(t)
		if !ok {
			filtered++
			return nil
		}
		if err := shippers[d].add(t); err != nil {
			return links[d].wrap(err)
		}
		return nil
	})
	for i, l := range links {
		if shipErr == nil {
			if err := shippers[i].flush(); err != nil {
				shipErr = l.wrap(err)
			}
		}
		l.foldBatcher(shippers[i])
		l.divBytes = shippers[i].bytes
		res.DividendBytes += shippers[i].bytes
		shippers[i].release()
		if shipErr == nil {
			if err := l.control(FrameHeader{Type: frameDividendEnd}, nil); err != nil {
				shipErr = l.wrap(err)
			}
		}
	}
	return filtered, shipErr
}

// linkShipper is one link's write pipeline in pipelined shipping: producers
// append routed tuples into the current arena under a short lock; a full
// arena is handed to the writer goroutine through a depth-1 channel while
// the spare arena (double buffering) takes over, so serialization of the
// next frame overlaps the wire write of the previous one. The writer is the
// only goroutine touching the connection, preserving the single-writer
// discipline of the phased protocol; its byte/frame/tuple totals fold into
// the link only after it has been joined. Exactly like the phased batcher,
// a full arena carries BatchSize tuples and the trailing partial ships
// last, so frames-per-link and bytes-per-link are identical across engines.
type linkShipper struct {
	l    *link
	size int

	mu     sync.Mutex
	cur    *exec.Batch
	stalls int64 // arena hand-offs that blocked on the writer (backpressure)

	full chan *exec.Batch
	free chan *exec.Batch
	wg   sync.WaitGroup

	failed atomic.Bool
	bytes  int64 // writer-goroutine private until wg.Wait
	frames int64
	tuples int64
}

func newLinkShipper(l *link, schema *tuple.Schema, size int) *linkShipper {
	s := &linkShipper{
		l:    l,
		size: size,
		cur:  exec.NewBatch(schema, size),
		full: make(chan *exec.Batch, 1),
		// Capacity 2 so the writer can always recycle both arenas without
		// blocking, even after finish() has pushed the trailing partial.
		free: make(chan *exec.Batch, 2),
	}
	s.free <- exec.NewBatch(schema, size)
	return s
}

// start launches the writer goroutine. After a write error the writer keeps
// draining and recycling arenas — producers must never hang on the free
// channel — but stops touching the broken connection. A write failure after
// the shared context was cancelled reports the cancellation, not the
// poisoned-deadline noise the watchdog induced.
func (s *linkShipper) start(ctx context.Context, fe *firstErr) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for b := range s.full {
			if !s.failed.Load() && b.Len() > 0 {
				n, err := writeRawFrame(s.l.conn, FrameHeader{
					Type: frameDividendBatch, Count: uint32(b.Len()),
				}, b.Raw())
				if err != nil {
					s.failed.Store(true)
					if cerr := ctx.Err(); cerr != nil {
						fe.set(cerr)
					} else {
						fe.set(s.l.wrap(err))
					}
				} else {
					s.bytes += n
					s.frames++
					s.tuples += int64(b.Len())
				}
			}
			b.Reset()
			s.free <- b
		}
	}()
}

// add appends one routed tuple, handing the arena to the writer when full.
// Safe for concurrent producers; a hand-off blocks only while both arenas
// are ahead of the writer, which is the backpressure bounding coordinator
// memory at two arenas per link.
func (s *linkShipper) add(t tuple.Tuple) {
	s.mu.Lock()
	s.cur.Append(t)
	if s.cur.Len() >= s.size {
		b := s.cur
		select {
		case s.full <- b:
		default:
			s.stalls++
			s.full <- b
		}
		s.cur = <-s.free
	}
	s.mu.Unlock()
}

// finish pushes the trailing partial arena and closes the pipeline. Call
// only after every producer has stopped.
func (s *linkShipper) finish() {
	s.mu.Lock()
	b := s.cur
	s.cur = nil
	s.mu.Unlock()
	if b != nil {
		s.full <- b
	}
	close(s.full)
}

// wait joins the writer; the shipper's totals are stable afterwards.
func (s *linkShipper) wait() { s.wg.Wait() }

// release returns the arenas to the batch pool. Call after wait.
func (s *linkShipper) release() {
	if s.cur != nil {
		s.cur.Release()
		s.cur = nil
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

// shipDividendPipelined is the overlapped phase C engine: morsel producers
// (exec.SplitMorsels over the dividend, with a single-scanner fallback for
// sources that hide splitting) route tuples into per-link linkShippers whose
// writer goroutines overlap serialization with the wire. Stats folding —
// and the dividendEnd control frames — happen behind the producers+writers
// barrier, so the accounting stays byte-identical to the phased engine.
func shipDividendPipelined(ctx context.Context, sp division.Spec, cfg Config, links []*link,
	rt division.Router, res *Result, fe *firstErr) (int64, error) {
	ds := sp.Dividend.Schema()
	shippers := make([]*linkShipper, len(links))
	for i, l := range links {
		shippers[i] = newLinkShipper(l, ds, cfg.BatchSize)
		shippers[i].start(ctx, fe)
	}

	perTuple := func(t tuple.Tuple, dropped *int64) {
		if d, ok := rt.Dest(t); ok {
			shippers[d].add(t)
		} else {
			*dropped++
		}
	}

	var filtered atomic.Int64
	var producers sync.WaitGroup
	nProducers := 1
	morsels, splittable := exec.SplitMorsels(sp.Dividend, cfg.MorselTuples)
	if splittable {
		nProducers = cfg.Producers
		if nProducers > len(morsels) {
			nProducers = len(morsels)
		}
		if nProducers < 1 {
			nProducers = 1
		}
		var next atomic.Int64
		for p := 0; p < nProducers; p++ {
			producers.Add(1)
			go func() {
				defer producers.Done()
				scratch := exec.NewBatch(ds, cfg.BatchSize)
				defer scratch.Release()
				var dropped int64
				defer func() { filtered.Add(dropped) }()
				for {
					if err := ctx.Err(); err != nil {
						fe.set(err)
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(morsels) {
						return
					}
					if i+1 < len(morsels) {
						if pf, ok := morsels[i+1].(exec.Prefetchable); ok {
							pf.Prefetch()
						}
					}
					err := exec.DrainMorsel(morsels[i], scratch, func(b *exec.Batch) error {
						if err := ctx.Err(); err != nil {
							return err
						}
						for k, bn := 0, b.Len(); k < bn; k++ {
							perTuple(b.Tuple(k), &dropped)
						}
						return nil
					})
					if err != nil {
						fe.set(err)
						return
					}
				}
			}()
		}
	} else {
		// Wrappers that hide operator capabilities (instrumentation probes,
		// fault injectors) fall back to one scanning producer; the per-link
		// writers still overlap serialization with the wire.
		producers.Add(1)
		go func() {
			defer producers.Done()
			var dropped int64
			defer func() { filtered.Add(dropped) }()
			err := exec.ForEach(exec.NewContextScan(ctx, sp.Dividend), func(t tuple.Tuple) error {
				perTuple(t, &dropped)
				return nil
			})
			fe.set(err)
		}()
	}
	producers.Wait()

	// Barrier: producers are done. Push the trailing partials, join every
	// writer, then fold each shipper into its link — single-goroutine stats
	// arithmetic, exactly like the phased engine's fold.
	for _, s := range shippers {
		s.finish()
	}
	var stalls int64
	for i, s := range shippers {
		s.wait()
		l := links[i]
		l.stats.BytesOut += s.bytes
		l.stats.FramesOut += s.frames
		l.tuplesOut += s.tuples
		l.divBytes = s.bytes
		res.DividendBytes += s.bytes
		stalls += s.stalls
		s.release()
	}
	if err := fe.get(); err != nil {
		return filtered.Load(), err
	}
	for _, l := range links {
		if err := l.control(FrameHeader{Type: frameDividendEnd}, nil); err != nil {
			return filtered.Load(), l.wrap(err)
		}
	}
	obs.Default.Counter("net.pipeline.producers").Add(int64(nProducers))
	obs.Default.Counter("net.pipeline.morsels").Add(int64(len(morsels)))
	obs.Default.Counter("net.pipeline.stalls").Add(stalls)
	return filtered.Load(), nil
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
