// Command divbench regenerates every table of the paper and runs the
// extension experiments.
//
// Usage:
//
//	divbench table1                  # Table 1: cost units
//	divbench table2                  # Table 2: analytical costs vs paper
//	divbench table3                  # Table 3: experimental cost parameters
//	divbench table4 [flags]          # Table 4: measured grid
//	divbench sweep  [flags]          # §4.6 dilution speculation
//	divbench overflow [flags]        # §3.4 hash table overflow, recursive partitioning
//	divbench parallel [flags]        # §6 multi-processor scaling
//	divbench distributed [flags]     # §6 shared-nothing division over real transport
//	divbench spill [flags]           # out-of-core memory-pressure sweep
//	divbench serve [flags]           # concurrent query server / load generator
//	divbench example                 # Figure 2 worked example, step by step
//
// table4 flags:
//
//	-sizes 25,100,400   grid sizes for |S| and |Q|
//	-geometry paper     "paper" (8 KB pages) or "analytic" (5 R/page)
//	-measured           report measured CPU instead of counted CPU
//	-json               also merge results into BENCH_divbench.json
//	-profile            also merge a traced per-operator profile section
//
// batch flags (batch-vs-tuple execution ablation):
//
//	-sizes 100,400            grid sizes for |S| and |Q|
//	-batchsizes 64,256,1024   batch sizes to sweep
//	-reps 3                   repetitions (min wall clock wins)
//	-geometry paper           page geometry
//	-json                     also merge results into BENCH_divbench.json
//
// parallel flags (§6 multi-processor scaling):
//
//	-s 100 -q 400 -noise 5   workload shape
//	-workers 1,2,4,8         worker counts to sweep
//	-reps 3                  repetitions (min wall clock wins)
//	-json                    merge a parallel_scaling section into BENCH_divbench.json
//	-check                   exit nonzero unless morsel@4 workers beats serial
//	                         (skipped when GOMAXPROCS < 2)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		fmt.Print(bench.FormatTable1(costmodel.PaperUnits()))
	case "table2":
		if len(args) > 0 && args[0] == "-ceil" {
			// The faithful ⌈log⌉ reading of the sort formula, diverging
			// from the paper's printed numbers only at |S|=|Q|=400.
			rows := costmodel.Table2With(costmodel.CeilPasses)
			fmt.Println("Table 2 under ceil merge passes (see DESIGN.md):")
			fmt.Printf("%4s %4s", "|S|", "|Q|")
			for _, n := range costmodel.ColumnNames {
				fmt.Printf(" %14s", n)
			}
			fmt.Println()
			for _, row := range rows {
				fmt.Printf("%4d %4d", row.S, row.Q)
				for _, c := range row.Costs {
					fmt.Printf(" %14.0f", c)
				}
				fmt.Println()
			}
			return
		}
		fmt.Print(bench.FormatTable2())
	case "table3":
		fmt.Print(bench.FormatTable3(disk.PaperCost()))
	case "table4":
		err = runTable4(args)
	case "batch":
		err = runBatch(args)
	case "sweep":
		err = runSweep(args)
	case "duplicates":
		err = runDuplicates(args)
	case "crossover":
		err = runCrossover(args)
	case "overflow":
		err = runOverflow(args)
	case "parallel":
		err = runParallel(args)
	case "distributed":
		err = runDistributed(args)
	case "io":
		err = runIO(args)
	case "wal":
		err = runWAL(args)
	case "spill":
		err = runSpill(args)
	case "serve":
		err = runServe(args)
	case "example":
		err = runExample()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "divbench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "divbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: divbench <command> [flags]

commands:
  table1    Table 1 cost units
  table2    Table 2 analytical costs (ours vs paper)
  table3    Table 3 experimental cost parameters
  table4    Table 4 experimental grid (-sizes, -geometry, -measured, -json)
  batch     batch-vs-tuple execution ablation (-sizes, -batchsizes, -reps, -json)
  sweep     dilution sweep: hash-division when R != QxS
  duplicates duplicate-handling sweep: preprocessing costs vs hash-division
  crossover analytic cost-vs-|R| series and overflow cost model
  overflow  hash table overflow / recursive partitioning
  parallel  multi-processor scaling (-workers, -reps, -json, -check)
  distributed shared-nothing division over real TCP transport with bit-vector
            wire filtering (-sizes, -workers, -zipf, -noise, -forked, -json, -check)
  io        buffer-pool sharding and read-ahead overlap (-pages, -shards, -json, -check)
  wal       WAL group-commit throughput sweep (-appenders, -windows, -json, -check)
  spill     out-of-core memory-pressure sweep (-budgets, -strategy, -reps, -json, -check)
  serve     concurrent query server: -addr to listen, or a closed-loop client
            sweep (-clients, -queries, -mem, -grant, -json, -check)
  example   the paper's Figure 2 worked example`)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func configFor(geometry string) (bench.Config, error) {
	switch geometry {
	case "paper":
		return bench.PaperConfig(), nil
	case "analytic":
		return bench.AnalyticGeometryConfig(), nil
	default:
		return bench.Config{}, fmt.Errorf("unknown geometry %q (want paper or analytic)", geometry)
	}
}

// benchJSONFile is the merged results file the -json flags write. Each
// command owns one top-level section, so regenerating the ablation does not
// discard a previously recorded grid (and vice versa).
const benchJSONFile = "BENCH_divbench.json"

// writeJSONSection merges one named section into the results file,
// preserving every other section. A missing or unparsable file starts
// fresh.
func writeJSONSection(path, section string, v any) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			doc = map[string]json.RawMessage{}
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	doc[section] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// table4JSONCell is one (workload, algorithm) measurement in the JSON dump.
type table4JSONCell struct {
	S            int     `json:"s"`
	Q            int     `json:"q"`
	R            int     `json:"r"`
	Algorithm    string  `json:"algorithm"`
	NsOp         int64   `json:"ns_op"`          // measured pipeline wall clock
	CountedCPUMS float64 `json:"counted_cpu_ms"` // Table 1-priced operation counts
	SimIOMS      float64 `json:"sim_io_ms"`      // Table 3-priced device statistics
}

func runTable4(args []string) error {
	fs := flag.NewFlagSet("table4", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "25,100,400", "comma-separated |S|/|Q| grid sizes")
	geometry := fs.String("geometry", "paper", "page geometry: paper (8 KB) or analytic (5 R/page)")
	measured := fs.Bool("measured", false, "report measured CPU instead of counted CPU")
	jsonOut := fs.Bool("json", false, "merge results into "+benchJSONFile)
	profileOut := fs.Bool("profile", false, "merge a traced per-operator profile section into "+benchJSONFile)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	cfg, err := configFor(*geometry)
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := bench.Table4(cfg, sizes)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable4(rows, !*measured))
	fmt.Printf("(grid of %d cells in %v; geometry=%s)\n", len(rows)*6, time.Since(start).Round(time.Millisecond), *geometry)
	if *jsonOut {
		var cells []table4JSONCell
		for _, row := range rows {
			for _, c := range row.Cells {
				cells = append(cells, table4JSONCell{
					S: c.S, Q: c.Q, R: c.R, Algorithm: c.Alg.String(),
					NsOp:         c.MeasuredCPU.Nanoseconds(),
					CountedCPUMS: c.CountedCPUMS,
					SimIOMS:      c.SimulatedIO,
				})
			}
		}
		section := map[string]any{"geometry": *geometry, "cells": cells}
		if err := writeJSONSection(benchJSONFile, "table4", section); err != nil {
			return err
		}
		fmt.Printf("(wrote table4 section to %s)\n", benchJSONFile)
	}
	if *profileOut {
		n := sizes[len(sizes)-1]
		section, err := profileSection(n)
		if err != nil {
			return err
		}
		if err := writeJSONSection(benchJSONFile, "profile", section); err != nil {
			return err
		}
		fmt.Printf("(wrote profile section at |S|=|Q|=%d to %s)\n", n, benchJSONFile)
	}
	return nil
}

// profileSection runs every algorithm once at the largest grid size with
// tracing enabled and returns its per-operator span tree. Wall-clock times
// are excluded (Tree(false)), so the section is deterministic across runs:
// only operation counts, row counts, and the span shapes are recorded.
func profileSection(n int) (map[string]any, error) {
	inst, err := workload.Generate(workload.PaperCase(n, n, 1))
	if err != nil {
		return nil, err
	}
	algs := make([]map[string]any, 0, len(division.Algorithms))
	for _, alg := range division.Algorithms {
		counters := &exec.Counters{}
		tr := obs.NewTracer()
		env := division.Env{
			Pool:     buffer.New(4 << 20),
			TempDev:  disk.NewDevice("temp", disk.PaperRunPageSize),
			Counters: counters,
			Trace:    tr,
		}
		sp := division.Spec{
			Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
			Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
			DivisorCols: []int{1},
		}
		op, err := division.New(alg, sp, env)
		if err != nil {
			return nil, err
		}
		qts, err := exec.Collect(op)
		if err != nil {
			return nil, err
		}
		prof := tr.Profile(counters)
		algs = append(algs, map[string]any{
			"algorithm":     alg.String(),
			"quotient_rows": len(qts),
			"counters":      *counters,
			"tree":          prof.Tree(false),
		})
	}
	return map[string]any{"s": n, "q": n, "r": len(inst.Dividend), "algorithms": algs}, nil
}

func runBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "100,400", "comma-separated |S|/|Q| grid sizes")
	batchFlag := fs.String("batchsizes", "64,256,1024", "comma-separated batch sizes to sweep")
	reps := fs.Int("reps", 3, "repetitions per cell; minimum wall clock wins")
	geometry := fs.String("geometry", "paper", "page geometry: paper (8 KB) or analytic (5 R/page)")
	jsonOut := fs.Bool("json", false, "merge results into "+benchJSONFile)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	batchSizes, err := parseSizes(*batchFlag)
	if err != nil {
		return err
	}
	cfg, err := configFor(*geometry)
	if err != nil {
		return err
	}
	start := time.Now()
	cells, err := bench.BatchAblation(cfg, sizes, batchSizes, *reps)
	if err != nil {
		return err
	}
	fmt.Printf("Batch-vs-tuple hash-division ablation (geometry=%s, reps=%d, min wall clock):\n", *geometry, *reps)
	fmt.Print(bench.FormatAblation(cells))
	fmt.Printf("(%d cells in %v)\n", len(cells), time.Since(start).Round(time.Millisecond))
	if *jsonOut {
		section := map[string]any{"geometry": *geometry, "reps": *reps, "cells": cells}
		if err := writeJSONSection(benchJSONFile, "batch_ablation", section); err != nil {
			return err
		}
		fmt.Printf("(wrote batch_ablation section to %s)\n", benchJSONFile)
	}
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	s := fs.Int("s", 50, "|S| divisor tuples")
	q := fs.Int("q", 200, "quotient candidates")
	geometry := fs.String("geometry", "analytic", "page geometry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := configFor(*geometry)
	if err != nil {
		return err
	}
	points, err := bench.DilutionSweep(*s, *q, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Dilution sweep (|S|=%d, candidates=%d): total ms, counted CPU + simulated I/O\n", *s, *q)
	fmt.Printf("%-22s", "workload")
	for _, c := range points[0].Cells {
		fmt.Printf(" %14s", c.Alg)
	}
	fmt.Println()
	for _, p := range points {
		fmt.Printf("full=%.1f noise=%-2d      ", p.FullFraction, p.Noise)
		for _, c := range p.Cells {
			fmt.Printf(" %14.0f", c.TotalMS())
		}
		fmt.Println()
	}
	fmt.Println("(§4.6: once R != QxS, hash-division discards non-matching tuples early and wins)")
	return nil
}

func runDuplicates(args []string) error {
	fs := flag.NewFlagSet("duplicates", flag.ContinueOnError)
	s := fs.Int("s", 25, "|S| divisor tuples")
	q := fs.Int("q", 100, "quotient candidates")
	geometry := fs.String("geometry", "analytic", "page geometry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := configFor(*geometry)
	if err != nil {
		return err
	}
	points, err := bench.DuplicateSweep(*s, *q, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Duplicate sweep (|S|=%d, |Q|=%d, duplicate handling ON): total ms\n", *s, *q)
	fmt.Printf("%-8s", "dup")
	for _, c := range points[0].Cells {
		fmt.Printf(" %14s", c.Alg)
	}
	fmt.Println()
	for _, p := range points {
		fmt.Printf("%-8d", p.DuplicateFactor)
		for _, c := range p.Cells {
			fmt.Printf(" %14.0f", c.TotalMS())
		}
		fmt.Println()
	}
	fmt.Println("(hash-division ignores duplicates; sort-based methods pay growing sort costs,")
	fmt.Println(" hash aggregation pays a memory-hungry duplicate elimination first)")
	return nil
}

func runCrossover(args []string) error {
	fs := flag.NewFlagSet("crossover", flag.ContinueOnError)
	s := fs.Int("s", 25, "|S| divisor tuples")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rValues := []int{500, 1000, 5000, 10000, 50000, 100000, 500000}
	series := costmodel.CostSeries(*s, rValues)
	fmt.Printf("Analytical cost vs |R| at |S|=%d (ms; |Q| = |R|/|S|)\n", *s)
	fmt.Printf("%10s", "|R|")
	for _, n := range costmodel.ColumnNames {
		fmt.Printf(" %14s", n)
	}
	fmt.Printf(" %14s\n", "naive/hashdiv")
	for _, pt := range series {
		fmt.Printf("%10d", pt.R)
		for _, c := range pt.Costs {
			fmt.Printf(" %14.0f", c)
		}
		fmt.Printf(" %14.2f\n", pt.Costs[0]/pt.Costs[5])
	}
	fmt.Println("\nQuotient-partitioned hash-division overhead (§3.4 extension, |R| = 10000):")
	p := costmodel.PaperParams(*s, 10000 / *s)
	for _, k := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("  k=%-3d %14.0f ms\n", k, p.PartitionedHashDivisionCost(k))
	}
	fmt.Println("\nOut-of-core analytic model (|S|=|Q|=400): recursive partitioning vs restart loop")
	big := costmodel.PaperParams(400, 400)
	fmt.Printf("  %8s %14s %14s %8s\n", "budget", "recursive ms", "restart ms", "ratio")
	for _, b := range []float64{64, 32, 16, 8, 4, 2} {
		rec := big.RecursiveHashDivisionCost(b, 8)
		restart := big.RestartEscalationCost(b, 64)
		fmt.Printf("  %7.0fp %14.0f %14.0f %8.2f\n", b, rec, restart, restart/rec)
	}
	fmt.Println("(each budget halving costs the restart loop another abandoned full scan;")
	fmt.Println(" DESIGN.md §12 records the same comparison measured on real tables)")
	return nil
}

func runOverflow(args []string) error {
	fs := flag.NewFlagSet("overflow", flag.ContinueOnError)
	budgetKB := fs.Int("budget", 16, "hash table memory budget in KB")
	candidates := fs.Int("q", 2000, "quotient candidates")
	s := fs.Int("s", 10, "|S|")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inst, err := workload.Generate(workload.PaperCase(*s, *candidates, 1))
	if err != nil {
		return err
	}
	env := testEnvForCmd()
	sp := division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
	fmt.Printf("Hash table overflow: |S|=%d, |Q|=%d, |R|=%d, budget=%d KB\n",
		*s, *candidates, len(inst.Dividend), *budgetKB)
	env.MemoryBudget = *budgetKB * 1024
	if _, err := exec.Collect(division.NewHashDivision(sp, env, division.HashDivisionOptions{})); err != nil {
		fmt.Printf("plain hash-division: %v\n", err)
	} else {
		fmt.Println("plain hash-division: fits the budget")
	}
	qts, st, err := division.DivideRecursive(sp, env, division.QuotientPartitioning, division.RecursiveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("quotient tuples: %d (expected %d)\n", len(qts), len(inst.QuotientIDs))
	fmt.Printf("recursive quotient partitioning: %d cells, depth %d, %d spilled partitions (§3.4)\n",
		st.Cells, st.MaxDepth, st.SpilledPartitions)
	return nil
}

// parallelScalingPoint is one measurement in the parallel_scaling section.
type parallelScalingPoint struct {
	Strategy string  `json:"strategy"`
	Workers  int     `json:"workers"`
	Ns       int64   `json:"ns"`      // min wall clock over reps
	Speedup  float64 `json:"speedup"` // serial_ns / ns
}

func runParallel(args []string) error {
	fs := flag.NewFlagSet("parallel", flag.ContinueOnError)
	s := fs.Int("s", 100, "|S|")
	q := fs.Int("q", 400, "quotient candidates")
	noise := fs.Int("noise", 5, "non-matching tuples per candidate")
	workersFlag := fs.String("workers", "1,2,4,8", "comma-separated worker counts")
	reps := fs.Int("reps", 3, "repetitions per point; minimum wall clock wins")
	jsonOut := fs.Bool("json", false, "merge a parallel_scaling section into "+benchJSONFile)
	check := fs.Bool("check", false, "exit nonzero unless the morsel path at 4 workers beats the serial baseline (skipped when GOMAXPROCS < 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workerCounts, err := parseSizes(*workersFlag)
	if err != nil {
		return err
	}
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      *s,
		QuotientCandidates: *q,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  *noise,
		Shuffle:            true,
		Seed:               1,
	})
	if err != nil {
		return err
	}
	spec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
			Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
			DivisorCols: []int{1},
		}
	}

	// Serial baseline: batch-at-a-time hash-division, min wall over reps —
	// the denominator every speedup is measured against.
	serialNs := int64(0)
	for r := 0; r < *reps; r++ {
		op, err := division.New(division.AlgHashDivision, spec(), division.Env{
			ExpectedDivisor:  *s,
			ExpectedQuotient: *q,
		})
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := exec.Drain(op); err != nil {
			return err
		}
		if ns := time.Since(start).Nanoseconds(); r == 0 || ns < serialNs {
			serialNs = ns
		}
	}

	fmt.Printf("Parallel hash-division scaling (§6): |S|=%d, candidates=%d, |R|=%d, GOMAXPROCS=%d\n",
		*s, *q, len(inst.Dividend), runtime.GOMAXPROCS(0))
	fmt.Printf("serial batch hash-division baseline: %s (min of %d)\n",
		time.Duration(serialNs).Round(time.Microsecond), *reps)
	fmt.Printf("%-24s %8s %10s %8s %12s\n", "strategy", "workers", "elapsed", "speedup", "bytes")

	var points []parallelScalingPoint
	for _, strategy := range []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning} {
		for _, workers := range workerCounts {
			best := int64(0)
			var bytes int64
			for r := 0; r < *reps; r++ {
				res, err := parallel.Divide(spec(), parallel.Config{
					Workers:  workers,
					Strategy: strategy,
				})
				if err != nil {
					return err
				}
				bytes = res.Network.BytesShipped
				if ns := res.Elapsed.Nanoseconds(); r == 0 || ns < best {
					best = ns
				}
			}
			p := parallelScalingPoint{
				Strategy: strategy.String(),
				Workers:  workers,
				Ns:       best,
				Speedup:  float64(serialNs) / float64(best),
			}
			points = append(points, p)
			fmt.Printf("%-24s %8d %10s %8.2f %12d\n",
				p.Strategy, workers,
				time.Duration(best).Round(time.Microsecond), p.Speedup, bytes)
		}
	}

	if *jsonOut {
		section := map[string]any{
			"s":          *s,
			"q":          *q,
			"r":          len(inst.Dividend),
			"reps":       *reps,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"serial_ns":  serialNs,
			"points":     points,
		}
		if err := writeJSONSection(benchJSONFile, "parallel_scaling", section); err != nil {
			return err
		}
		fmt.Printf("(wrote parallel_scaling section to %s)\n", benchJSONFile)
	}

	if *check {
		if runtime.GOMAXPROCS(0) < 2 {
			fmt.Println("(-check skipped: GOMAXPROCS < 2, no parallelism available)")
			return nil
		}
		var morsel4 *parallelScalingPoint
		for i := range points {
			p := &points[i]
			if p.Strategy == division.QuotientPartitioning.String() && p.Workers == 4 {
				morsel4 = p
			}
		}
		if morsel4 == nil {
			return fmt.Errorf("parallel -check: no morsel point at 4 workers (add 4 to -workers)")
		}
		if morsel4.Speedup <= 1 {
			return fmt.Errorf("parallel -check: morsel path at 4 workers is not faster than serial (speedup %.2f)", morsel4.Speedup)
		}
		fmt.Printf("(-check passed: morsel speedup at 4 workers = %.2f)\n", morsel4.Speedup)
	}
	return nil
}

func runExample() error {
	// Figure 2: Courses {Database1, Database2}; Transcript {(Ann,
	// Database1), (Barb, Database2), (Ann, Database2), (Barb, Optics)}.
	ds := tuple.NewSchema(tuple.CharField("student", 8), tuple.CharField("course", 12))
	ss := tuple.NewSchema(tuple.CharField("course", 12))
	transcript := []tuple.Tuple{
		ds.MustMake("Ann", "Database1"),
		ds.MustMake("Barb", "Database2"),
		ds.MustMake("Ann", "Database2"),
		ds.MustMake("Barb", "Optics"),
	}
	courses := []tuple.Tuple{ss.MustMake("Database1"), ss.MustMake("Database2")}

	fmt.Println("Figure 2 worked example: students who have taken all database courses")
	fmt.Println("Courses (divisor):")
	for i, c := range courses {
		fmt.Printf("  divisor number %d: %s\n", i, ss.Format(c))
	}
	fmt.Println("Transcript (dividend):")
	for _, t := range transcript {
		fmt.Printf("  %s\n", ds.Format(t))
	}
	sp := division.Spec{
		Dividend:    exec.NewMemScan(ds, transcript),
		Divisor:     exec.NewMemScan(ss, courses),
		DivisorCols: []int{1},
	}
	for _, alg := range []division.Algorithm{
		division.AlgNaive, division.AlgSortAggJoin, division.AlgHashAggJoin, division.AlgHashDivision,
	} {
		qts, err := division.Run(alg, sp, testEnvForCmd())
		if err != nil {
			return err
		}
		qs := sp.QuotientSchema()
		var names []string
		for _, q := range qts {
			names = append(names, qs.Char(q, 0))
		}
		fmt.Printf("%-14s -> quotient %v\n", alg, names)
	}
	fmt.Println("(Barb, Optics) has no divisor match and is discarded; only Ann's bit map is all ones.")
	return nil
}

func testEnvForCmd() division.Env {
	return division.Env{
		Pool:    buffer.New(4 << 20),
		TempDev: disk.NewDevice("temp", disk.PaperRunPageSize),
	}
}
