// Package parallel adapts hash-division to a shared-nothing multi-processor
// system, following Section 6 of the paper. Processors are goroutines with
// private hash tables; the interconnection network is the exchange of package
// netexchange run over in-process pipes, so its traffic (tuples, frames,
// bytes) is exactly what the same division puts on a TCP wire, and the
// bit-vector-filtering claim can be quantified.
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
// The dividend data path is netexchange.DividePipes: the one coordinator
// and the one worker loop of the distributed exchange, over in-process
// links. Morsel producers partition the dividend through write-combining
// buffers and each worker absorbs its destination's batches in place, so no
// single goroutine touches every tuple.
package parallel

import (
	"context"
	"fmt"

	"repro/internal/division"
	"repro/internal/netexchange"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// The exchange's result and error types, under this package's names.
type (
	ConfigError  = netexchange.ConfigError
	NetworkStats = netexchange.NetworkStats
	WorkerStats  = netexchange.WorkerStats
	Result       = netexchange.Result
)

// Config tunes a parallel division.
type Config struct {
	Workers  int
	Strategy division.PartitionStrategy
	// BitVectorFilter drops dividend tuples that cannot match any divisor
	// tuple before they are shipped. Purely an optimization: false
	// positives still pass and are discarded at the worker.
	BitVectorFilter bool
	// BatchSize is the shuffle packet size in tuples (default
	// exec.DefaultBatchSize): each sender packs a destination's tuples into
	// one exec.Batch arena per send, accounted as one frame.
	BatchSize int
	// MorselTuples is the morsel grain (default 4× the batch size).
	MorselTuples int
	// Trace, when set, collects per-worker spans (rows, wall time, input
	// statistics) under Trace.Root() for EXPLAIN ANALYZE-style reporting.
	// Worker counters are NOT folded into span deltas — workers run
	// concurrently and exec.Counters is not thread-safe — so parallel spans
	// carry rows and wall time only.
	Trace *obs.Tracer
}

// exchange is the exchange configuration cfg runs.
func (cfg Config) exchange() netexchange.Config {
	return netexchange.Config{
		Strategy:        cfg.Strategy,
		BitVectorFilter: cfg.BitVectorFilter,
		BatchSize:       cfg.BatchSize,
		MorselTuples:    cfg.MorselTuples,
	}
}

// Divide runs the parallel hash-division described by cfg.
func Divide(sp division.Spec, cfg Config) (*Result, error) {
	return DivideContext(context.Background(), sp, cfg)
}

// Validate rejects a configuration for dividing dividends laid out by ds
// with a *ConfigError naming the offending field: the worker count, which
// must be at least 1 and fit the wire's job header
// (netexchange.MaxWorkers), and the exchange's own validation
// (netexchange.Config.Validate). Zero values remain "use the default" for
// the tunables; negative values and a missing worker count are errors, not
// silently corrected.
func (cfg Config) Validate(ds *tuple.Schema) error {
	if cfg.Workers < 1 {
		return &ConfigError{Field: "Workers", Value: cfg.Workers, Reason: "must be at least 1"}
	}
	if cfg.Workers > netexchange.MaxWorkers {
		return &ConfigError{Field: "Workers", Value: cfg.Workers,
			Reason: fmt.Sprintf("exceeds the wire's limit of %d workers", netexchange.MaxWorkers)}
	}
	return cfg.exchange().Validate(ds)
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
	if err := cfg.Validate(sp.Dividend.Schema()); err != nil {
		return nil, err
	}
	var root *obs.Span
	if cfg.Trace != nil {
		root = cfg.Trace.Root().Child("parallel "+cfg.Strategy.String(), "parallel")
	}
	res, err := netexchange.DividePipes(ctx, sp, cfg.exchange(), cfg.Workers, root)
	obs.Default.Counter("parallel.divisions").Inc()
	if err != nil {
		obs.Default.Counter("parallel.division_errors").Inc()
		return nil, err
	}
	obs.Default.Counter("parallel.morsels").Add(int64(res.Shuffle.Morsels))
	obs.Default.Counter("parallel.tuples_shipped").Add(res.Network.TuplesShipped)
	return res, nil
}
