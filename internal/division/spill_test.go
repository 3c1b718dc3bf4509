package division

import (
	"context"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// spillShape is divload's server-spill query as the server runs it: 2000
// candidates over 16 divisor tuples held in flat catalog arenas and scanned
// through a context, a 64 KB grant split by SplitGrant, and a fresh pool and
// 1 KB temp device per query.
type spillShape struct {
	dividend, divisor []byte
	rows              int
}

func newSpillShape(tb testing.TB) spillShape {
	tb.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      16,
		QuotientCandidates: 2000,
		FullFraction:       0.5,
		MatchFraction:      0.5,
		NoisePerCandidate:  2,
		Shuffle:            true,
		Seed:               2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return spillShape{dividend: packRows(inst.Dividend), divisor: packRows(inst.Divisor), rows: len(inst.Dividend)}
}

func packRows(ts []tuple.Tuple) []byte {
	var out []byte
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

func (s spillShape) divide(ropts RecursiveOptions, trace *obs.Tracer, counters *exec.Counters) ([]tuple.Tuple, RecursiveStats, error) {
	poolBytes, tableBytes := SplitGrant(64 << 10)
	ctx := context.Background()
	sp := Spec{
		Dividend:    exec.NewContextScan(ctx, exec.NewArenaScan(workload.TranscriptSchema, s.dividend)),
		Divisor:     exec.NewContextScan(ctx, exec.NewArenaScan(workload.CourseSchema, s.divisor)),
		DivisorCols: []int{1},
	}
	env := Env{
		Pool:            buffer.New(poolBytes),
		TempDev:         disk.NewDevice("spill", disk.PaperRunPageSize),
		MemoryBudget:    tableBytes,
		ExpectedDivisor: len(s.divisor) / workload.CourseSchema.Width(),
		Counters:        counters,
		Trace:           trace,
	}
	return DivideRecursive(sp, env, QuotientPartitioning, ropts)
}

// passWall sums, over every re-partitioning span under s, the span's wall
// time minus its children's: the time spent in partitioning passes alone.
func passWall(s *obs.Span) time.Duration {
	var d time.Duration
	for _, c := range s.Children() {
		d += passWall(c)
	}
	if s.Kind() == "recursive-partition" {
		d += s.Wall()
		for _, c := range s.Children() {
			d -= c.Wall()
		}
	}
	return d
}

// quotientOrder digests the quotient in emitted order: the server returns
// rows in this order.
func quotientOrder(ts []tuple.Tuple) uint64 {
	h := fnv.New64a()
	for _, t := range ts {
		h.Write(t)
	}
	return h.Sum64()
}

// TestSpillShapeMatchesRecorded pins the server-spill query's statistics,
// cost counters and quotient order — the unseeded first query and a query
// seeded with its candidate count, as the server's plan cache runs them — to
// the values recorded before the partitioning loops became one batch pass.
func TestSpillShapeMatchesRecorded(t *testing.T) {
	sh := newSpillShape(t)
	for _, tc := range []struct {
		name     string
		seeded   bool
		stats    RecursiveStats
		counters exec.Counters
		order    uint64
	}{
		{
			name: "unseeded",
			stats: RecursiveStats{Attempts: 9, Overflowed: 1, WastedTuples: 1019, Candidates: 2000,
				DividendTuples: 27931, Repartitions: 1, MaxDepth: 1, Cells: 8, SpilledPartitions: 8,
				SpillBytes: 456704, DivisorLeaves: 1, MaxQuotientCells: 8},
			counters: exec.Counters{Comp: 81849, Hash: 79937, Bit: 26802},
			order:    0x2e706d1348914c30,
		},
		{
			name: "seeded", seeded: true,
			stats: RecursiveStats{Attempts: 6, SkippedAttempts: 1, Candidates: 2000,
				DividendTuples: 27931, Repartitions: 1, MaxDepth: 1, Cells: 6, SpilledPartitions: 6,
				SpillBytes: 457728, DivisorLeaves: 1, MaxQuotientCells: 6},
			counters: exec.Counters{Comp: 86095, Hash: 79905, Bit: 25931},
			order:    0xd4309ac7965f9c88,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ropts RecursiveOptions
			if tc.seeded {
				_, st, err := sh.divide(RecursiveOptions{}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				ropts.SeedCandidates = st.Candidates
			}
			var counters exec.Counters
			q, st, err := sh.divide(ropts, nil, &counters)
			if err != nil {
				t.Fatal(err)
			}
			if st != tc.stats || counters != tc.counters || quotientOrder(q) != tc.order {
				t.Errorf("got stats %+v, counters %+v, order %#x;\nrecorded %+v, %+v, %#x",
					st, counters, quotientOrder(q), tc.stats, tc.counters, tc.order)
			}
		})
	}
}

// BenchmarkSpillDivide runs the server-spill query, seeded as the server's
// plan cache seeds it, with tracing on. It reports ns per dividend tuple
// for the whole division and, from the repartition span's wall time minus
// its cells', for the partitioning pass alone.
func BenchmarkSpillDivide(b *testing.B) {
	sh := newSpillShape(b)
	_, st, err := sh.divide(RecursiveOptions{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	ropts := RecursiveOptions{SeedCandidates: st.Candidates}
	var pass time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer()
		if _, _, err := sh.divide(ropts, tr, nil); err != nil {
			b.Fatal(err)
		}
		pass += passWall(tr.Root())
	}
	tuples := float64(b.N) * float64(sh.rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
	b.ReportMetric(float64(pass.Nanoseconds())/tuples, "partition-ns/tuple")
}
