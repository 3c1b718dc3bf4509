// Package parallel adapts hash-division to a shared-nothing multi-processor
// system, following Section 6 of the paper. Processors are goroutines with
// private hash tables; the interconnection network is a set of channels whose
// traffic (messages, tuples, bytes) is accounted so the bit-vector-filtering
// claim can be quantified.
//
// Two layouts are implemented, mirroring §3.4's partitioning strategies:
//
//   - Quotient partitioning: "the divisor table must be replicated in the
//     main memory of all participating processors. After replication, all
//     local hash-division operators work completely independently of each
//     other." The quotient is the concatenation of the workers' outputs.
//   - Divisor partitioning: divisor and dividend are partitioned with the
//     same function on the divisor attributes; workers tag their quotient
//     tuples with their network address and a collection site "divides the
//     set of all incoming tuples over the set of processor network
//     addresses."
//
// Bit vector filtering (Babb 1979) can be enabled for the dividend shuffle:
// tuples whose divisor attributes hash to an empty filter bit are dropped
// before shipping and never cross the interconnect, as §6 proposes for
// Transcript tuples of an optics course.
//
// The dividend data path is selected by Config.Path. The default, PathMorsel,
// is morsel-driven: the dividend splits into independently scannable morsels
// that per-worker producer goroutines pull from a shared queue, partition
// through write-combining buffers, and ship worker-to-worker — no single
// goroutine touches every tuple (see morsel.go). That Shuffle is also the
// dividend exchange of package netexchange, whose link writers consume it
// instead of workers. PathSharedTable replaces the exchange entirely with one
// shared quotient table updated by atomic CAS (single-node fast path); it
// ships nothing, by construction.
package parallel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// Path selects the dividend data path of a parallel division.
type Path int

const (
	// PathMorsel (the default) splits the dividend into morsels pulled by
	// per-worker producer goroutines from a shared queue; tuples are
	// partitioned through write-combining buffers and shipped
	// worker-to-worker with no central coordinator on the data path.
	PathMorsel Path = iota
	// PathSharedTable is the single-node fast path: workers absorb morsels
	// into one shared quotient table (atomic-CAS chains and bitmap bits)
	// instead of exchanging tuples. Requires quotient partitioning — the
	// divisor table is global, which is exactly the quotient-partitioning
	// replication taken to its shared-memory limit.
	PathSharedTable
)

func (p Path) String() string {
	switch p {
	case PathMorsel:
		return "morsel"
	case PathSharedTable:
		return "shared-table"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// ConfigError reports a Config field that fails validation.
type ConfigError struct {
	Field  string // the Config field name
	Value  any    // the rejected value
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("parallel: invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Config tunes a parallel division.
type Config struct {
	Workers  int
	Strategy division.PartitionStrategy
	// Path selects the dividend data path; the zero value is PathMorsel.
	Path Path
	// BitVectorFilter drops dividend tuples that cannot match any divisor
	// tuple before they are shipped. Purely an optimization: false
	// positives still pass and are discarded at the worker.
	BitVectorFilter bool
	// BitVectorBits sizes the filter; 0 picks 8× the divisor cardinality.
	BitVectorBits int
	// ChannelDepth is the per-worker channel buffer (default 64).
	ChannelDepth int
	// HBS sizes worker hash tables (default 2).
	HBS float64
	// BatchSize is the shuffle packet size in tuples (default 128): each
	// sender packs a destination's tuples into one exec.Batch arena per
	// send. Per-tuple and per-byte network statistics are unaffected.
	BatchSize int
	// MorselTuples is the morsel grain (default 4096 tuples).
	MorselTuples int
	// ExpectedQuotient sizes the shared quotient table for PathSharedTable
	// (default 4096 buckets when 0); a wrong estimate costs chain length,
	// never correctness. Ignored by the other paths, whose worker tables
	// grow dynamically.
	ExpectedQuotient int
	// Progress, when set, receives human-readable lines about the shuffle
	// and per-worker outcomes. DivideContext serializes all calls behind a
	// mutex, so the sink needs no locking even when divisions run
	// concurrently.
	Progress func(format string, args ...any)
	// Trace, when set, collects per-worker spans (rows, wall time, input
	// statistics) under Trace.Root() for EXPLAIN ANALYZE-style reporting.
	// Worker counters are NOT folded into span deltas — workers run
	// concurrently and exec.Counters is not thread-safe — so parallel spans
	// carry rows and wall time only.
	Trace *obs.Tracer
}

// NetworkStats count interconnect traffic.
type NetworkStats struct {
	TuplesShipped  int64 // dividend + divisor + quotient tuples sent
	BytesShipped   int64
	TuplesFiltered int64 // dividend tuples dropped by the bit vector filter
}

// WorkerStats describe one processor's share of the work.
type WorkerStats struct {
	DividendTuples int64 // dividend tuples received
	DivisorTuples  int64 // divisor tuples in the local divisor table
	QuotientTuples int64 // quotient tuples produced locally
}

// Result is the outcome of a parallel division.
type Result struct {
	Quotient []tuple.Tuple
	Network  NetworkStats
	Workers  []WorkerStats
	Elapsed  time.Duration
}

// Divide runs the parallel hash-division described by cfg.
func Divide(sp division.Spec, cfg Config) (*Result, error) {
	return DivideContext(context.Background(), sp, cfg)
}

// Validate rejects malformed configurations with a *ConfigError naming the
// offending field. Zero values remain "use the default" for the tunables
// (ChannelDepth, HBS, BatchSize, MorselTuples, BitVectorBits,
// ExpectedQuotient); negative values and a missing worker count are errors,
// not silently corrected.
func (cfg Config) Validate() error {
	if cfg.Workers < 1 {
		return &ConfigError{Field: "Workers", Value: cfg.Workers, Reason: "must be at least 1"}
	}
	switch cfg.Strategy {
	case division.QuotientPartitioning, division.DivisorPartitioning:
	default:
		return &ConfigError{Field: "Strategy", Value: cfg.Strategy, Reason: "unknown partitioning strategy"}
	}
	switch cfg.Path {
	case PathMorsel, PathSharedTable:
	default:
		return &ConfigError{Field: "Path", Value: cfg.Path, Reason: "unknown data path"}
	}
	if cfg.Path == PathSharedTable && cfg.Strategy != division.QuotientPartitioning {
		return &ConfigError{Field: "Path", Value: cfg.Path,
			Reason: "shared-table path requires quotient partitioning (the divisor table is global, not partitioned)"}
	}
	if cfg.BitVectorBits < 0 {
		return &ConfigError{Field: "BitVectorBits", Value: cfg.BitVectorBits, Reason: "must not be negative"}
	}
	if cfg.ChannelDepth < 0 {
		return &ConfigError{Field: "ChannelDepth", Value: cfg.ChannelDepth, Reason: "must not be negative"}
	}
	if cfg.HBS < 0 {
		return &ConfigError{Field: "HBS", Value: cfg.HBS, Reason: "must not be negative"}
	}
	if cfg.BatchSize < 0 {
		return &ConfigError{Field: "BatchSize", Value: cfg.BatchSize, Reason: "must not be negative"}
	}
	if cfg.MorselTuples < 0 {
		return &ConfigError{Field: "MorselTuples", Value: cfg.MorselTuples, Reason: "must not be negative"}
	}
	if cfg.ExpectedQuotient < 0 {
		return &ConfigError{Field: "ExpectedQuotient", Value: cfg.ExpectedQuotient, Reason: "must not be negative"}
	}
	return nil
}

// DivideContext is Divide under a context: cancellation (or a timeout on
// ctx) stops the producers and every worker promptly, the first error wins
// — later cancellation-induced errors never mask the root cause — and no
// goroutine or quotient memory outlives the call. A panic in a worker is
// recovered into an *exec.PanicError and treated like any other failure.
func DivideContext(ctx context.Context, sp division.Spec, cfg Config) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ChannelDepth == 0 {
		cfg.ChannelDepth = 64
	}
	if cfg.HBS == 0 {
		cfg.HBS = 2
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = shuffleBatch
	}
	if cfg.MorselTuples == 0 {
		cfg.MorselTuples = defaultMorselTuples
	}
	cfg.Progress = obs.SerializeProgress(cfg.Progress)
	var res *Result
	var err error
	if cfg.Path == PathSharedTable {
		res, err = divideSharedTable(ctx, sp, cfg)
	} else {
		res, err = divideExchange(ctx, sp, cfg)
	}
	obs.Default.Counter("parallel.divisions").Inc()
	if err != nil {
		obs.Default.Counter("parallel.division_errors").Inc()
		return nil, err
	}
	obs.Default.Counter("parallel.tuples_shipped").Add(res.Network.TuplesShipped)
	return res, nil
}

// strategySpan opens the per-division span the worker spans attach under;
// nil without a tracer. The name formatting stays behind the nil check so
// untraced divisions allocate nothing.
func strategySpan(cfg Config) *obs.Span {
	if cfg.Trace == nil {
		return nil
	}
	return cfg.Trace.Root().Child("parallel "+cfg.Strategy.String(), "parallel")
}

// workerSpanName names worker i's profile span.
func workerSpanName(i int) string { return fmt.Sprintf("worker %d", i) }

// report emits the shuffle summary and per-worker outcome lines.
func report(cfg Config, res *Result, workers []*worker) {
	if cfg.Progress == nil {
		return
	}
	cfg.Progress("parallel %s: shipped %d tuples (%d bytes), filtered %d",
		cfg.Strategy, res.Network.TuplesShipped, res.Network.BytesShipped,
		res.Network.TuplesFiltered)
	for _, w := range workers {
		cfg.Progress("worker %d: dividend=%d divisor=%d quotient=%d",
			w.id, w.stats.DividendTuples, w.stats.DivisorTuples, w.stats.QuotientTuples)
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

// buildBitVector hashes every divisor tuple into a Babb filter.
func buildBitVector(divisor []tuple.Tuple, bits int) *bitmap.Bitmap {
	bv := bitmap.New(division.FilterBits(bits, len(divisor)))
	for _, d := range divisor {
		division.SetFilterBit(bv, d)
	}
	return bv
}

// shuffleBatch is the default unit of interconnect transfer: tuples travel
// in exec.Batch packets, not one network message each (the per-tuple
// statistics are still exact). Config.BatchSize overrides it.
const shuffleBatch = 128

// worker consumes dividend batches from its shuffle destination, runs local
// hash-division, and appends its quotient to out. Absorbed batches go back
// to the shuffle for reuse.
type worker struct {
	id      int
	stats   WorkerStats
	out     []tuple.Tuple
	divisor []tuple.Tuple
	span    *obs.Span // per-worker profile span; nil without a tracer
}

// run executes the local hash-division on a division.Core: build the
// divisor table, absorb the dividend stream batch by batch, scan the
// quotient table. It returns promptly with ctx.Err() once ctx is cancelled,
// and converts a panic anywhere in the worker into an *exec.PanicError
// instead of crashing the process.
func (w *worker) run(ctx context.Context, sp division.Spec, hbs float64, sh *Shuffle) (err error) {
	defer exec.RecoverPanic(&err)
	if w.span != nil {
		start := time.Now()
		defer func() {
			w.span.Record(1, w.stats.QuotientTuples, 0, time.Since(start), exec.Counters{})
			w.span.Notef("dividend=%d divisor=%d", w.stats.DividendTuples, w.stats.DivisorTuples)
		}()
	}
	// The worker's divisor cardinality is known exactly (the coordinator
	// shipped it), so the divisor table is pre-sized and never grows.
	core := division.NewCore(sp.Dividend.Schema(), sp.Divisor.Schema(), sp.DivisorCols, division.CoreOptions{
		DivisorCapacity:  len(w.divisor),
		ExpectedQuotient: 256,
		HBS:              hbs,
	})
	for _, d := range w.divisor {
		if err := core.AddDivisor(d); err != nil {
			return err
		}
	}
	w.stats.DivisorTuples = core.DivisorCount()

	in := sh.Dest(w.id)
	for {
		select {
		case batch, ok := <-in:
			if !ok {
				return core.Scan(func(t tuple.Tuple) error {
					w.out = append(w.out, t)
					w.stats.QuotientTuples++
					return nil
				})
			}
			err := core.AbsorbBatch(batch)
			sh.Recycle(batch)
			w.stats.DividendTuples = core.Stats().DividendTuples
			if err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// divideExchange is §6's shared-nothing division. The coordinator places the
// divisor on the workers — replicated under quotient partitioning, clustered
// under divisor partitioning — and shuffles the dividend to them; each
// worker divides its share. The quotient is the concatenation of the
// workers' outputs, or, under divisor partitioning, the collection over
// their phase-tagged candidates.
func divideExchange(ctx context.Context, sp division.Spec, cfg Config) (*Result, error) {
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
	var bv *bitmap.Bitmap
	if cfg.BitVectorFilter {
		bv = buildBitVector(divisor, cfg.BitVectorBits)
	}
	place := division.PlaceDivisor(divisor, cfg.Strategy, cfg.Workers)

	root := strategySpan(cfg)
	sh := NewShuffle(sp, cfg.Strategy, bv, ShuffleOptions{
		Sites:        cfg.Workers,
		Depth:        cfg.ChannelDepth,
		Producers:    cfg.Workers,
		BatchSize:    cfg.BatchSize,
		MorselTuples: cfg.MorselTuples,
		Span:         root,
	})
	sWidth := int64(sp.Divisor.Schema().Width())
	workers := make([]*worker, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		// Ship each processor its divisor share.
		res.Network.TuplesShipped += int64(len(place.Clusters[i]))
		res.Network.BytesShipped += int64(len(place.Clusters[i])) * sWidth
		w := &worker{id: i, divisor: place.Clusters[i]}
		if root != nil {
			w.span = root.Child(workerSpanName(i), "worker")
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.Set(w.run(ctx, sp, cfg.HBS, sh))
		}()
	}
	st := sh.Run(ctx, fe)
	wg.Wait()
	sh.Release()
	obs.Default.Counter("parallel.morsels").Add(int64(st.Morsels))
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}
	res.Network.TuplesShipped += st.Shipped
	res.Network.BytesShipped += st.Shipped * int64(sp.Dividend.Schema().Width())
	res.Network.TuplesFiltered = st.Filtered

	// The workers' outputs travel to the coordinator: network traffic too.
	qs := sp.QuotientSchema()
	qWidth := int64(qs.Width())
	var collection *division.PhaseCollector
	if cfg.Strategy == division.DivisorPartitioning {
		collection = division.NewPhaseCollector(qs, place.Phases, 256, cfg.HBS)
	}
	for i, w := range workers {
		res.Workers[i] = w.stats
		res.Network.TuplesShipped += int64(len(w.out))
		res.Network.BytesShipped += int64(len(w.out)) * qWidth
		if collection == nil {
			res.Quotient = append(res.Quotient, w.out...)
			continue
		}
		for _, q := range w.out {
			collection.Add(q, place.Phase[i])
		}
	}
	if collection != nil {
		err = collection.Scan(func(q tuple.Tuple) error {
			res.Quotient = append(res.Quotient, q)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	report(cfg, res, workers)
	res.Elapsed = time.Since(start)
	return res, nil
}

// ReadInstance adapts in-memory tuple slices to a division.Spec; convenience
// for benchmarks and examples.
func ReadInstance(dividendSchema *tuple.Schema, dividend []tuple.Tuple,
	divisorSchema *tuple.Schema, divisor []tuple.Tuple, divisorCols []int) division.Spec {
	return division.Spec{
		Dividend:    exec.NewMemScan(dividendSchema, dividend),
		Divisor:     exec.NewMemScan(divisorSchema, divisor),
		DivisorCols: divisorCols,
	}
}
