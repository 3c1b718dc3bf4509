package parallel

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// fallbackDepth is how many batches the fallback reader of a non-splittable
// dividend buffers for the shared-table workers: deep enough that the single
// reader rarely waits for them.
const fallbackDepth = 64

// divideSharedTable is the shared-memory fast path (quotient partitioning
// only — enforced by Config.Validate): one shared quotient table, divisor
// bits set by atomic CAS, no partitioning and no shipping. WorkerStats
// report each worker's absorbed dividend share and scanned quotient share;
// DivisorTuples stays 0 because the divisor table is shared, not
// replicated or partitioned.
func divideSharedTable(ctx context.Context, sp division.Spec, cfg Config, root *obs.Span) (*Result, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := exec.NewFirstError(cancel)

	divisor, err := division.DistinctDivisor(exec.NewContextScan(ctx, sp.Divisor), division.Env{})
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: make([]WorkerStats, cfg.Workers)}
	if len(divisor) == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	st, err := division.NewSharedTable(sp, divisor, cfg.ExpectedQuotient)
	if err != nil {
		return nil, err
	}

	spans := make([]*obs.Span, cfg.Workers)
	if root != nil {
		root.Notef("path=shared-table divisor=%d buckets=%d", st.DivisorCount(), st.NumBuckets())
		for i := range spans {
			spans[i] = root.Child(fmt.Sprintf("worker %d", i), "worker")
		}
	}
	morselTuples := cmp.Or(cfg.MorselTuples, 4*cmp.Or(cfg.BatchSize, exec.DefaultBatchSize))
	var wg sync.WaitGroup
	src := exec.NewMorselSource(ctx, sp.Dividend, morselTuples, fallbackDepth, &wg, fe)
	if root != nil {
		root.Notef("%s", src)
	}
	obs.Default.Counter("parallel.morsels").Add(int64(src.Morsels()))
	// Each worker pulls morsels and absorbs them straight into the shared
	// table.
	absorb := func(i int) (err error) {
		defer exec.RecoverPanic(&err)
		var stats division.SharedStats
		start := time.Now()
		scratch := exec.NewBatch(sp.Dividend.Schema(), morselTuples)
		defer scratch.Release()
		err = src.Drain(ctx, scratch, func(b *exec.Batch) error {
			st.AbsorbBatch(b, &stats)
			return ctx.Err()
		})
		res.Workers[i].DividendTuples = stats.Dividend
		if spans[i] != nil {
			spans[i].Record(1, 0, 0, time.Since(start), exec.Counters{})
			spans[i].Notef("shared absorb: dividend=%d candidates-created=%d", stats.Dividend, stats.Candidates)
		}
		return err
	}
	for i := range res.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.Set(absorb(i))
		}()
	}
	wg.Wait() // the happens-before edge making plain bitmap reads safe below
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}

	// Step 3: each worker scans a disjoint bucket range for complete
	// candidates; disjoint ranges touch disjoint chains, so the scan needs
	// no synchronization.
	nb := st.NumBuckets()
	per := (nb + cfg.Workers - 1) / cfg.Workers
	outs := make([][]tuple.Tuple, cfg.Workers)
	scan := func(i int) (err error) {
		defer exec.RecoverPanic(&err)
		start := time.Now()
		err = st.ScanBuckets(min(i*per, nb), min((i+1)*per, nb), func(t tuple.Tuple) error {
			outs[i] = append(outs[i], t)
			res.Workers[i].QuotientTuples++
			return ctx.Err()
		})
		if spans[i] != nil {
			spans[i].Record(0, res.Workers[i].QuotientTuples, 0, time.Since(start), exec.Counters{})
		}
		return err
	}
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.Set(scan(i))
		}()
	}
	wg.Wait()
	if ferr := fe.Err(); ferr != nil {
		return nil, ferr
	}
	for _, out := range outs {
		res.Quotient = append(res.Quotient, out...)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
