package reldiv

// One benchmark per paper table, plus ablation benches for the design
// choices DESIGN.md calls out. Simulated-I/O and counted-CPU milliseconds
// are attached as custom metrics (sim-io-ms/op, counted-cpu-ms/op) so the
// paper-style cost figures appear alongside Go wall time.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/netexchange"
	"repro/internal/parallel"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// BenchmarkTable1CostUnits exercises the cost-unit pricing path (Table 1).
func BenchmarkTable1CostUnits(b *testing.B) {
	u := costmodel.PaperUnits()
	c := exec.Counters{Comp: 1000, Hash: 500, Move: 10, Bit: 2000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.CostMS(u.Comp, u.Hash, u.Move, u.Bit) <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// BenchmarkTable2Analytic regenerates the full analytical grid (Table 2).
func BenchmarkTable2Analytic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := costmodel.Table2()
		if len(rows) != 9 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkTable3IOModel exercises the Table 3 I/O pricing on a live scan.
func BenchmarkTable3IOModel(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(25, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	pool := buffer.New(buffer.PaperPoolBytes)
	rel, err := workload.Load(pool, inst, disk.PaperPageSize)
	if err != nil {
		b.Fatal(err)
	}
	cost := disk.PaperCost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Drain(exec.NewTableScan(rel.Dividend, false)); err != nil {
			b.Fatal(err)
		}
		_ = rel.DividendDev.Stats().TotalCostMS(cost)
	}
}

// BenchmarkTable4 reruns the experimental grid, one sub-benchmark per
// (algorithm, |S|, |Q|) cell, reporting the deterministic paper-style costs
// as custom metrics.
func BenchmarkTable4(b *testing.B) {
	cfg := bench.PaperConfig()
	for _, s := range []int{25, 100, 400} {
		for _, q := range []int{25, 100, 400} {
			for _, alg := range division.Algorithms {
				name := fmt.Sprintf("S=%d/Q=%d/%s", s, q, alg)
				b.Run(name, func(b *testing.B) {
					var last bench.Cell
					for i := 0; i < b.N; i++ {
						cell, err := bench.RunCell(alg, s, q, cfg)
						if err != nil {
							b.Fatal(err)
						}
						last = cell
					}
					b.ReportMetric(last.SimulatedIO, "sim-io-ms/op")
					b.ReportMetric(last.CountedCPUMS, "counted-cpu-ms/op")
				})
			}
		}
	}
}

// BenchmarkTable4AnalyticGeometry is the grid under the §4.6 page geometry
// (5 dividend tuples per page), the regime where the paper's "within ~10%"
// claim lives. Reduced sizes keep it affordable.
func BenchmarkTable4AnalyticGeometry(b *testing.B) {
	cfg := bench.AnalyticGeometryConfig()
	for _, sq := range [][2]int{{25, 25}, {100, 100}} {
		for _, alg := range division.Algorithms {
			name := fmt.Sprintf("S=%d/Q=%d/%s", sq[0], sq[1], alg)
			b.Run(name, func(b *testing.B) {
				var last bench.Cell
				for i := 0; i < b.N; i++ {
					cell, err := bench.RunCell(alg, sq[0], sq[1], cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = cell
				}
				b.ReportMetric(last.TotalMS(), "paper-total-ms/op")
			})
		}
	}
}

// BenchmarkDuplicateSweep measures the duplicate-handling claim (hash-
// division ignores duplicates; all other algorithms pay preprocessing).
func BenchmarkDuplicateSweep(b *testing.B) {
	cfg := bench.AnalyticGeometryConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.DuplicateSweep(25, 100, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDilutionSweep measures the §4.6 speculation workloads.
func BenchmarkDilutionSweep(b *testing.B) {
	cfg := bench.AnalyticGeometryConfig()
	for i := 0; i < b.N; i++ {
		if _, err := bench.DilutionSweep(50, 200, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpec(b *testing.B, inst *workload.Instance) division.Spec {
	b.Helper()
	return division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

// BenchmarkEarlyEmit ablates the §3.3 streaming modification against the
// stop-and-go original.
func BenchmarkEarlyEmit(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts division.HashDivisionOptions
	}{
		{"stop-and-go", division.HashDivisionOptions{}},
		{"early-emit", division.HashDivisionOptions{EarlyEmit: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op := division.NewHashDivision(benchSpec(b, inst), division.Env{}, mode.opts)
				if _, err := exec.Drain(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortEarlyAgg ablates duplicate elimination inside the sort
// (no intermediate run contains duplicates) against deduplicating after the
// sort, on a dividend with 4× duplication.
func BenchmarkSortEarlyAgg(b *testing.B) {
	cfg := workload.PaperCase(25, 100, 1)
	cfg.DuplicateFactor = 4
	inst, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := []int{0, 1}
	newEnv := func() (*buffer.Pool, *disk.Device) {
		return buffer.New(1 << 20), disk.NewDevice("runs", disk.PaperRunPageSize)
	}
	b.Run("dedup-inside-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool, dev := newEnv()
			s := exec.NewSort(exec.NewMemScan(workload.TranscriptSchema, inst.Dividend), exec.SortConfig{
				Keys: keys, Dedup: true, MemoryBytes: 16 * 1024, Pool: pool, TempDev: dev,
			})
			n, err := exec.Drain(s)
			if err != nil {
				b.Fatal(err)
			}
			if n != 2500 {
				b.Fatalf("dedup kept %d", n)
			}
		}
	})
	b.Run("dedup-after-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool, dev := newEnv()
			s := exec.NewSort(exec.NewMemScan(workload.TranscriptSchema, inst.Dividend), exec.SortConfig{
				Keys: keys, MemoryBytes: 16 * 1024, Pool: pool, TempDev: dev,
			})
			d := exec.NewHashDedup(s, nil)
			n, err := exec.Drain(d)
			if err != nil {
				b.Fatal(err)
			}
			if n != 2500 {
				b.Fatalf("dedup kept %d", n)
			}
		}
	})
}

// BenchmarkHashLoad ablates the average-bucket-size parameter hbs (§4.6 uses
// 2): longer chains trade memory for comparisons. comp/op counts the
// comparisons of the paper's chains (Table 1 Comp units), which grow with
// hbs; ns/op is the walk over the physical index, four times finer, so it
// grows far less.
func BenchmarkHashLoad(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, hbs := range []float64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hbs=%g", hbs), func(b *testing.B) {
			var c exec.Counters
			for i := 0; i < b.N; i++ {
				env := division.Env{HBS: hbs, ExpectedDivisor: 100, ExpectedQuotient: 400, Counters: &c}
				op := division.NewHashDivision(benchSpec(b, inst), env, division.HashDivisionOptions{})
				if _, err := exec.Drain(op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Comp)/float64(b.N), "comp/op")
		})
	}
}

// BenchmarkPartitioning compares the two §3.4 overflow strategies of
// recursive hash-division at one 10 KB budget. The budget overflows the
// quotient table, and half of it is too small for the 100-tuple divisor
// table, so divisor partitioning re-clusters the divisor and runs its
// collection phase.
func BenchmarkPartitioning(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env := division.Env{
					Pool:         buffer.New(1 << 20),
					TempDev:      disk.NewDevice("temp", disk.PaperRunPageSize),
					MemoryBudget: 10 << 10,
				}
				q, st, err := division.DivideRecursive(benchSpec(b, inst), env, strat, division.RecursiveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if len(q) != 400 {
					b.Fatalf("quotient = %d", len(q))
				}
				if strat == division.DivisorPartitioning && st.DivisorLeaves < 2 {
					b.Fatalf("the divisor was not re-clustered: %+v", st)
				}
			}
		})
	}
}

// BenchmarkParallelWorkers measures §6 scaling for both strategies.
func BenchmarkParallelWorkers(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 2000, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", strat, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := parallel.Divide(benchSpec(b, inst), parallel.Config{
						Workers: workers, Strategy: strat,
					})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Quotient) != 2000 {
						b.Fatalf("quotient = %d", len(res.Quotient))
					}
				}
			})
		}
	}
}

// BenchmarkAbsorbPaths reports wall-clock ns per dividend tuple for each
// in-memory hash-division path on the Zipf-1.5 |S| = |Q| = 400 cell, the
// input of divload's morsel-zipf and wire-zipf workloads: the serial
// HashDivision operator (also on the two-column composite-key layout, whose
// probes take the compiled closure kernels), two in-process exchange workers
// over pipes (morsel), and two netexchange workers over loopback TCP. The
// parallel paths run with the bit-vector filter, as divload does.
// serial-durable is the serial operator on durable-mixed's instance instead,
// workload.PaperCase(100, 400, 2), with the divisor-sized table reldiv.Divide
// builds. As in divload's morsel-zipf, whose relations keep their rows in one
// arena, the rows are packed into arenas once, outside the timer, and every
// path scans them zero-copy (exec.NewArenaScan), so the scan copies nothing
// and the absorb, the shuffle or the wire is what the figure measures.
func BenchmarkAbsorbPaths(b *testing.B) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      400,
		QuotientCandidates: 400,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  5,
		CourseZipfS:        1.5,
		Shuffle:            true,
		Seed:               1,
	})
	if err != nil {
		b.Fatal(err)
	}
	durable, err := workload.Generate(workload.PaperCase(100, 400, 2))
	if err != nil {
		b.Fatal(err)
	}
	r := inst.Rekey(workload.CompositeKey)
	dividend, divisor := packArena(inst.Dividend), packArena(inst.Divisor)
	rDividend, rDivisor := packArena(r.Dividend), packArena(r.Divisor)
	dDividend, dDivisor := packArena(durable.Dividend), packArena(durable.Divisor)
	spec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewArenaScan(workload.TranscriptSchema, dividend),
			Divisor:     exec.NewArenaScan(workload.CourseSchema, divisor),
			DivisorCols: []int{1},
		}
	}
	cluster, err := netexchange.StartLocalCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	paths := []struct {
		name   string
		inst   *workload.Instance
		divide func(*testing.B) []tuple.Tuple
	}{
		{"serial", inst, func(b *testing.B) []tuple.Tuple {
			q, err := division.Run(division.AlgHashDivision, spec(), division.Env{})
			if err != nil {
				b.Fatal(err)
			}
			return q
		}},
		{"serial-composite", inst, func(b *testing.B) []tuple.Tuple {
			q, err := division.Run(division.AlgHashDivision, division.Spec{
				Dividend:    exec.NewArenaScan(r.DividendSchema, rDividend),
				Divisor:     exec.NewArenaScan(r.DivisorSchema, rDivisor),
				DivisorCols: r.DivisorCols,
			}, division.Env{})
			if err != nil {
				b.Fatal(err)
			}
			return q
		}},
		{"serial-durable", durable, func(b *testing.B) []tuple.Tuple {
			q, err := division.Run(division.AlgHashDivision, division.Spec{
				Dividend:    exec.NewArenaScan(workload.TranscriptSchema, dDividend),
				Divisor:     exec.NewArenaScan(workload.CourseSchema, dDivisor),
				DivisorCols: []int{1},
			}, division.Env{ExpectedDivisor: len(durable.Divisor)})
			if err != nil {
				b.Fatal(err)
			}
			return q
		}},
		{"morsel", inst, func(b *testing.B) []tuple.Tuple {
			res, err := parallel.Divide(spec(), parallel.Config{
				Workers: 2, Strategy: division.QuotientPartitioning, BitVectorFilter: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Quotient
		}},
		{"netexchange", inst, func(b *testing.B) []tuple.Tuple {
			res, err := netexchange.Divide(context.Background(), spec(), netexchange.Config{
				Strategy: division.QuotientPartitioning, BitVectorFilter: true,
			}, cluster.Conns())
			if err != nil {
				b.Fatal(err)
			}
			return res.Quotient
		}},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if q := p.divide(b); len(q) != len(p.inst.QuotientIDs) {
					b.Fatalf("quotient = %d, want %d", len(q), len(p.inst.QuotientIDs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p.inst.Dividend)), "ns/tuple")
		})
	}
}

// packArena lays rows out back to back, the batch layout exec.NewArenaScan
// scans.
func packArena(rows []tuple.Tuple) []byte {
	var arena []byte
	for _, t := range rows {
		arena = append(arena, t...)
	}
	return arena
}

// BenchmarkBitVectorFilter ablates Babb filtering on a noisy dividend (most
// tuples match nothing and can be dropped before shipping).
func BenchmarkBitVectorFilter(b *testing.B) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      100,
		QuotientCandidates: 500,
		FullFraction:       0.5,
		MatchFraction:      0.3,
		NoisePerCandidate:  50,
		Shuffle:            true,
		Seed:               1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, filter := range []bool{false, true} {
		name := "filter=off"
		if filter {
			name = "filter=on"
		}
		b.Run(name, func(b *testing.B) {
			var net parallel.NetworkStats
			for i := 0; i < b.N; i++ {
				res, err := parallel.Divide(benchSpec(b, inst), parallel.Config{
					Workers: 4, Strategy: division.QuotientPartitioning, BitVectorFilter: filter,
				})
				if err != nil {
					b.Fatal(err)
				}
				net = res.Network
			}
			b.ReportMetric(float64(net.BytesShipped), "net-bytes/op")
			b.ReportMetric(float64(net.TuplesFiltered), "filtered/op")
		})
	}
}

// BenchmarkPublicAPI measures the end-to-end façade.
func BenchmarkPublicAPI(b *testing.B) {
	orders := NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products := NewRelation("products", Int64Col("product"))
	for p := 0; p < 50; p++ {
		products.MustInsert(p)
	}
	for c := 0; c < 200; c++ {
		for p := 0; p < 50; p++ {
			orders.MustInsert(c, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Divide(orders, products, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if q.NumRows() != 200 {
			b.Fatalf("quotient = %d", q.NumRows())
		}
	}
}

// BenchmarkSnapshotDivide is durable-mixed's read without its writer: a
// consistent Snapshot of the Table 4 |S|=100, |Q|=400 transcript (40 k rows,
// a 640 KB heap over the store's 256 KB pool, so most pages miss) and then
// hash-division of the snapshot relations. Each step reports its wall time
// per dividend row.
func BenchmarkSnapshotDivide(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 2))
	if err != nil {
		b.Fatal(err)
	}
	store, err := OpenDurableStore(disk.NewDevice("wal", disk.PaperPageSize), disk.NewDevice("data", disk.PaperPageSize), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for _, tab := range []struct {
		name string
		cols []Column
		s    *tuple.Schema
		rows []tuple.Tuple
	}{
		{"transcript", []Column{Int64Col("student_id"), Int64Col("course_no")}, workload.TranscriptSchema, inst.Dividend},
		{"courses", []Column{Int64Col("course_no")}, workload.CourseSchema, inst.Divisor},
	} {
		rows := make([][]any, len(tab.rows))
		for i, tp := range tab.rows {
			rows[i] = tab.s.Row(tp)
		}
		t, err := store.CreateTable(tab.name, tab.cols...)
		if err == nil {
			err = t.InsertRows(rows)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	opts := &Options{Algorithm: HashDivision}
	var snap, div time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rels, err := store.Snapshot("transcript", "courses")
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		q, err := Divide(rels["transcript"], rels["courses"], nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		snap += t1.Sub(t0)
		div += time.Since(t1)
		if q.NumRows() != 400 {
			b.Fatalf("quotient = %d", q.NumRows())
		}
	}
	perRow := float64(b.N) * float64(len(inst.Dividend))
	b.ReportMetric(float64(snap.Nanoseconds())/perRow, "snapshot-ns/row")
	b.ReportMetric(float64(div.Nanoseconds())/perRow, "divide-ns/row")
}

// BenchmarkBatchVsTuple is the PR's headline ablation: hash-division over
// the Table 4 (|S|=100, |Q|=400) workload on the classic tuple path vs the
// vectorized batch path at several batch sizes. The two paths report
// identical Counters; only wall clock differs. `go test -bench BatchVsTuple`
// prints the comparison; speedup/op makes the ratio explicit.
func BenchmarkBatchVsTuple(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 1))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, batchSize int, tupleAtATime bool) {
		for i := 0; i < b.N; i++ {
			sp := benchSpec(b, inst)
			if tupleAtATime {
				sp.Dividend = exec.Opaque(sp.Dividend)
				sp.Divisor = exec.Opaque(sp.Divisor)
			}
			env := division.Env{
				Pool:      buffer.New(1 << 20),
				TempDev:   disk.NewDevice("temp", disk.PaperRunPageSize),
				BatchSize: batchSize,
			}
			n, err := exec.Drain(division.NewHashDivision(sp, env, division.HashDivisionOptions{}))
			if err != nil {
				b.Fatal(err)
			}
			if n != 400 {
				b.Fatalf("quotient = %d", n)
			}
		}
	}
	b.Run("tuple", func(b *testing.B) { run(b, 0, true) })
	for _, bs := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) { run(b, bs, false) })
	}
}

// BenchmarkBatchAblationGrid runs the full bench.BatchAblation grid once per
// iteration and reports the batch-1024 speedups as custom metrics — the same
// numbers `divbench batch -json` persists to BENCH_divbench.json.
func BenchmarkBatchAblationGrid(b *testing.B) {
	if testing.Short() {
		b.Skip("full ablation grid is slow")
	}
	cfg := bench.PaperConfig()
	var cells []bench.AblationCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = bench.BatchAblation(cfg, []int{100}, []int{1024}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		b.ReportMetric(c.Speedup, fmt.Sprintf("speedup-s%d-q%d-bs%d", c.S, c.Q, c.BatchSize))
	}
}
