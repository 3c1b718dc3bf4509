package parallel

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/netexchange"
	"repro/internal/storage"
	"repro/internal/workload"
)

// exchangeSource is one way to produce a dividend: morsels of a memory
// scan, page-range morsels of a heap file, or the shuffle's single fallback
// reader behind a wrapper that hides splitting.
type exchangeSource struct {
	name string
	spec func(t *testing.T, rk workload.Rekeyed) (division.Spec, *buffer.Pool)
}

var exchangeSources = []exchangeSource{
	{"memscan", func(_ *testing.T, rk workload.Rekeyed) (division.Spec, *buffer.Pool) {
		return rekeyedSpec(rk), nil
	}},
	{"tablescan", func(t *testing.T, rk workload.Rekeyed) (division.Spec, *buffer.Pool) {
		t.Helper()
		pool := buffer.New(64 * disk.PaperPageSize)
		f := storage.NewFile(pool, disk.NewDevice("heap", disk.PaperPageSize), rk.DividendSchema, "dividend")
		ap := f.NewAppender()
		for _, tp := range rk.Dividend {
			if _, err := ap.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := ap.Close(); err != nil {
			t.Fatal(err)
		}
		sp := rekeyedSpec(rk)
		sp.Dividend = exec.NewTableScan(f, false)
		return sp, pool
	}},
	{"fallback", func(_ *testing.T, rk workload.Rekeyed) (division.Spec, *buffer.Pool) {
		sp := rekeyedSpec(rk)
		sp.Dividend = exec.Opaque(sp.Dividend)
		return sp, nil
	}},
}

func rekeyedSpec(rk workload.Rekeyed) division.Spec {
	return readInstance(rk.DividendSchema, rk.Dividend, rk.DivisorSchema, rk.Divisor, rk.DivisorCols)
}

// TestExchangeParity is the one parity table of the exchange: every cell of
// {pipe, loopback TCP} × {memscan, tablescan, fallback} × both strategies ×
// filter off/on × 1 and 3 workers × int, composite and CHAR keys divides to
// division.Reference's quotient, and within a row (transports × sources)
// NetworkStats, LinkStats, WorkerStats, DividendBytes and FilterBytes are
// identical: routing is deterministic, and both transports account the
// frames a wire carries. No goroutine outlives an in-process division. The
// morsel grain is below the frame size, so producers end with partial
// batches per link; a link still carries its n_i dividend tuples in
// ceil(n_i/BatchSize) frames of 20 bytes' overhead each. Each row runs its
// transports as subtests: pipe, tcp, and tcp-budget (the TCP cells under a
// worker budget).
func TestExchangeParity(t *testing.T) {
	const batchSize, frame = 16, 20
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      12,
		QuotientCandidates: 90,
		FullFraction:       0.4,
		MatchFraction:      0.7,
		NoisePerCandidate:  6,
		Shuffle:            true,
		Seed:               77,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []workload.KeyShape{workload.IntKey, workload.CompositeKey, workload.CharKey} {
		rk := inst.Rekey(shape)
		ref, err := division.Reference(rekeyedSpec(rk))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatal("reference quotient is empty; the instance tests nothing")
		}
		width := int64(rk.DividendSchema.Width())
		qs := rekeyedSpec(rk).QuotientSchema()
		for _, strategy := range []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning} {
			for _, filter := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					cfg := Config{
						Workers:         workers,
						Strategy:        strategy,
						BitVectorFilter: filter,
						BatchSize:       batchSize,
						MorselTuples:    48,
					}
					t.Run(fmt.Sprintf("%v/%v/filter=%v/workers=%d", shape, strategy, filter, workers), func(t *testing.T) {
						// The pipe cells run first, before the TCP cluster's
						// goroutines exist, so no goroutine may outlive them.
						var cl *netexchange.Cluster
						transports := []struct {
							name   string
							divide func(division.Spec, netexchange.Config) (*Result, error)
						}{
							{"pipe", func(sp division.Spec, _ netexchange.Config) (*Result, error) { return Divide(sp, cfg) }},
							{"tcp", func(sp division.Spec, ec netexchange.Config) (*Result, error) {
								return netexchange.Divide(context.Background(), sp, ec, cl.Conns())
							}},
							{"tcp-budget", func(sp division.Spec, ec netexchange.Config) (*Result, error) {
								ec.WorkerBudget = 16 << 10
								return netexchange.Divide(context.Background(), sp, ec, cl.Conns())
							}},
						}
						var want *Result
						for _, tr := range transports {
							if tr.name != "pipe" && cl == nil {
								var err error
								if cl, err = netexchange.StartLocalCluster(workers); err != nil {
									t.Fatal(err)
								}
								defer cl.Close()
							}
							t.Run(tr.name, func(t *testing.T) {
								for _, src := range exchangeSources {
									sp, pool := src.spec(t, rk)
									before := runtime.NumGoroutine()
									got, err := tr.divide(sp, cfg.exchange())
									if err != nil {
										t.Fatalf("%s: %v", src.name, err)
									}
									if tr.name == "pipe" {
										leakcheck.Goroutines(t, before)
									}
									if !division.EqualTupleSets(qs, got.Quotient, ref) {
										t.Fatalf("%s: quotient of %d tuples, reference has %d", src.name, len(got.Quotient), len(ref))
									}
									if pool != nil && pool.FixedFrames() != 0 {
										t.Errorf("%s: %d frames still fixed", src.name, pool.FixedFrames())
									}
									if filter && got.Network.TuplesFiltered == 0 {
										t.Errorf("%s: filter dropped no noise tuple", src.name)
									}
									if tr.name == "tcp-budget" {
										continue // the spilling workers' accounting is their own
									}
									var dividendBytes int64
									for _, w := range got.Workers {
										n := w.DividendTuples
										dividendBytes += (n+batchSize-1)/batchSize*frame + n*width
									}
									if got.DividendBytes != dividendBytes {
										t.Errorf("%s: DividendBytes %d, want Σ ceil(n_i/%d)×%d + n_i×%d = %d",
											src.name, got.DividendBytes, batchSize, frame, width, dividendBytes)
									}
									if want == nil {
										want = got
										continue
									}
									if got.Network != want.Network {
										t.Errorf("%s: NetworkStats diverge:\ngot   %+v\nfirst %+v", src.name, got.Network, want.Network)
									}
									if !reflect.DeepEqual(got.Links, want.Links) {
										t.Errorf("%s: LinkStats diverge:\ngot   %+v\nfirst %+v", src.name, got.Links, want.Links)
									}
									if !reflect.DeepEqual(got.Workers, want.Workers) {
										t.Errorf("%s: WorkerStats diverge:\ngot   %+v\nfirst %+v", src.name, got.Workers, want.Workers)
									}
									if got.DividendBytes != want.DividendBytes || got.FilterBytes != want.FilterBytes {
										t.Errorf("%s: dividend/filter bytes %d/%d, first %d/%d", src.name,
											got.DividendBytes, got.FilterBytes, want.DividendBytes, want.FilterBytes)
									}
								}
							})
						}
					})
				}
			}
		}
	}
}
