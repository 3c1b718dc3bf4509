package main

// divbench spill — the memory-pressure sweep behind the out-of-core
// division work. One storage-backed workload is divided repeatedly while
// the per-query memory budget shrinks from 100% of the input's on-device
// footprint down to 1%, measuring what recursive grace partitioning costs
// as the tables stop fitting:
//
//   - at 100% everything fits: one in-memory attempt, zero spill;
//   - as the budget crosses the table footprint, overflowing cells are
//     re-partitioned recursively (fresh hash salt per depth) and child
//     partitions stage through buffer-pool-backed spill files;
//   - at 1% the recursion is several levels deep, yet the runtime should
//     grow by a bounded constant factor per budget halving — the smooth
//     degradation a restart-on-overflow loop cannot deliver (DESIGN.md §12
//     records the measured comparison).
//
// Every point verifies the quotient exactly against the generator's ground
// truth, so the sweep is a correctness harness as much as a benchmark.
// Results merge into the memory_pressure section of BENCH_divbench.json,
// preserving sibling sections byte-for-byte. -check gates CI on the sweep:
// exact quotients everywhere, at least one spilled point, zero spill at the
// full budget, and smooth runtime growth.

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// spillPoint is one budget level in the memory_pressure section.
type spillPoint struct {
	Pct         int   `json:"pct"`          // budget as % of input bytes
	BudgetBytes int   `json:"budget_bytes"` // the absolute budget
	Ns          int64 `json:"ns"`           // recursive division, min wall clock over reps

	QuotientRows     int   `json:"quotient_rows"`
	Attempts         int   `json:"attempts"`
	Overflowed       int   `json:"overflowed"`
	WastedTuples     int64 `json:"wasted_tuples"`
	Repartitions     int   `json:"repartitions"`
	MaxDepth         int   `json:"max_depth"`
	Cells            int   `json:"cells"`
	MemResidentCells int   `json:"mem_resident_cells"`
	SpilledParts     int   `json:"spilled_partitions"`
	SpillBytes       int64 `json:"spill_bytes"`
}

// spillCheckMaxStepRatio bounds the runtime growth per sweep step (the
// budgets roughly halve step to step). The loosest legitimate step is the
// first one that spills: it pays the whole in-memory-to-out-of-core
// transition — a write and a read of most of the input — at once, which
// lands around 3.5x on the reference workload. spillCheckMaxTotalRatio
// bounds the tightest budget against the full one; the point of recursive
// partitioning is that five further halvings add no comparable cliff. Both
// compare against a noise floor so microsecond-scale points do not trip
// the gate on scheduler jitter.
const (
	spillCheckMaxStepRatio  = 4.0
	spillCheckMaxTotalRatio = 8.0
	spillCheckNoiseFloor    = 500 * time.Microsecond
)

func runSpill(args []string) error {
	fs := flag.NewFlagSet("spill", flag.ContinueOnError)
	s := fs.Int("s", 16, "|S| divisor tuples")
	q := fs.Int("q", 2000, "quotient candidates")
	noise := fs.Int("noise", 2, "non-matching tuples per candidate")
	dup := fs.Int("dup", 1, "dividend duplicate factor")
	budgetsFlag := fs.String("budgets", "100,50,25,10,5,2,1", "comma-separated budgets as % of input bytes, largest first")
	strategyFlag := fs.String("strategy", "quotient", "partition strategy: quotient or divisor")
	reps := fs.Int("reps", 3, "repetitions per point; minimum wall clock wins")
	jsonOut := fs.Bool("json", false, "merge a memory_pressure section into "+benchJSONFile)
	check := fs.Bool("check", false, "exit nonzero unless quotients are exact at every budget, at least one point spills, the full budget does not, and runtime grows smoothly as the budget shrinks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budgets, err := parseSizes(*budgetsFlag)
	if err != nil {
		return err
	}
	if len(budgets) == 0 {
		return fmt.Errorf("spill: empty budget list")
	}
	for _, pct := range budgets {
		if pct < 1 || pct > 100 {
			return fmt.Errorf("spill: budget %d%% out of [1,100]", pct)
		}
	}
	var strategy division.PartitionStrategy
	switch *strategyFlag {
	case "quotient":
		strategy = division.QuotientPartitioning
	case "divisor":
		strategy = division.DivisorPartitioning
	default:
		return fmt.Errorf("spill: unknown strategy %q (want quotient or divisor)", *strategyFlag)
	}

	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      *s,
		QuotientCandidates: *q,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  *noise,
		DuplicateFactor:    *dup,
		Shuffle:            true,
		Seed:               7,
	})
	if err != nil {
		return err
	}

	// The input lives in heap files, so the sweep exercises the same scan
	// path — table scans through the buffer pool — the spill files use.
	pool := buffer.New(4 << 20)
	rel, err := workload.Load(pool, inst, disk.PaperPageSize)
	if err != nil {
		return err
	}
	inputBytes := int(rel.Dividend.BytesOnDevice() + rel.Divisor.BytesOnDevice())
	tempDev := disk.NewDevice("spilltemp", disk.PaperPageSize)
	env := division.Env{Pool: pool, TempDev: tempDev}
	spec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewTableScan(rel.Dividend, false),
			Divisor:     exec.NewTableScan(rel.Divisor, false),
			DivisorCols: []int{1},
		}
	}

	fmt.Printf("Memory-pressure sweep (%s partitioning): |S|=%d, candidates=%d, |R|=%d, input=%d bytes\n",
		*strategyFlag, *s, *q, len(inst.Dividend), inputBytes)
	fmt.Printf("%5s %10s %10s %6s %5s %6s %6s %10s\n",
		"pct", "budget", "elapsed", "depth", "cells", "spill", "resid", "spill B")

	spillBase := storage.LiveSpillFiles()
	var points []spillPoint
	for _, pct := range budgets {
		budget := inputBytes * pct / 100
		if budget < 1 {
			budget = 1
		}
		p := spillPoint{Pct: pct, BudgetBytes: budget}
		env.MemoryBudget = budget
		for r := 0; r < *reps; r++ {
			start := time.Now()
			qts, st, err := division.DivideRecursive(spec(), env, strategy, division.RecursiveOptions{})
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return fmt.Errorf("spill: budget %d%% (%d bytes): %w", pct, budget, err)
			}
			if err := verifyQuotient(spec().QuotientSchema(), qts, inst.QuotientIDs); err != nil {
				return fmt.Errorf("spill: budget %d%% (%d bytes): %w", pct, budget, err)
			}
			if r == 0 || ns < p.Ns {
				p.Ns = ns
				p.QuotientRows = len(qts)
				p.Attempts = st.Attempts
				p.Overflowed = st.Overflowed
				p.WastedTuples = st.WastedTuples
				p.Repartitions = st.Repartitions
				p.MaxDepth = st.MaxDepth
				p.Cells = st.Cells
				p.MemResidentCells = st.MemResidentCells
				p.SpilledParts = st.SpilledPartitions
				p.SpillBytes = st.SpillBytes
			}
		}
		if live := storage.LiveSpillFiles(); live != spillBase {
			return fmt.Errorf("spill: budget %d%%: %d spill files leaked", pct, live-spillBase)
		}

		fmt.Printf("%4d%% %10d %10s %6d %5d %6d %6d %10d\n",
			pct, budget, time.Duration(p.Ns).Round(time.Microsecond),
			p.MaxDepth, p.Cells, p.SpilledParts, p.MemResidentCells, p.SpillBytes)
		points = append(points, p)
	}

	if *jsonOut {
		section := map[string]any{
			"s":           *s,
			"q":           *q,
			"r":           len(inst.Dividend),
			"noise":       *noise,
			"dup":         *dup,
			"strategy":    *strategyFlag,
			"input_bytes": inputBytes,
			"reps":        *reps,
			"points":      points,
		}
		if err := writeJSONSection(benchJSONFile, "memory_pressure", section); err != nil {
			return err
		}
		fmt.Printf("(wrote memory_pressure section to %s)\n", benchJSONFile)
	}

	if *check {
		if err := checkSpillSweep(points); err != nil {
			return fmt.Errorf("spill -check: %w", err)
		}
		fmt.Println("(-check passed: exact quotients, spill engaged, smooth degradation)")
	}
	return nil
}

// verifyQuotient compares the division result against the generator's
// ground-truth student ids, exactly.
func verifyQuotient(qs *tuple.Schema, qts []tuple.Tuple, want []int64) error {
	if len(qts) != len(want) {
		return fmt.Errorf("quotient has %d rows, want %d", len(qts), len(want))
	}
	got := make([]int64, len(qts))
	for i, t := range qts {
		got[i] = qs.Int64(t, 0)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("quotient id %d at rank %d, want %d", got[i], i, want[i])
		}
	}
	return nil
}

// checkSpillSweep is the CI gate over a completed sweep. Quotient
// exactness is enforced point by point during the run; here the gate is
// about the shape of the curve: the full budget must not spill, some
// tighter budget must, and the runtime must degrade smoothly — each step
// (roughly a budget halving) bounded by a constant factor, and the
// tightest point bounded against the full-budget baseline.
func checkSpillSweep(points []spillPoint) error {
	if len(points) < 2 {
		return fmt.Errorf("need at least 2 budget points, got %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Pct >= points[i-1].Pct {
			return fmt.Errorf("budgets must be strictly decreasing (%d%% after %d%%)", points[i].Pct, points[i-1].Pct)
		}
	}
	full := points[0]
	if full.Pct == 100 && full.SpillBytes != 0 {
		return fmt.Errorf("full budget spilled %d bytes; the sweep should start in memory", full.SpillBytes)
	}
	spilled := false
	for _, p := range points {
		if p.SpillBytes > 0 && p.SpilledParts > 0 {
			spilled = true
		}
	}
	if !spilled {
		return fmt.Errorf("no budget point spilled; tighten the budget list or grow the workload")
	}
	floor := spillCheckNoiseFloor.Nanoseconds()
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if prev.Ns < floor && cur.Ns < floor {
			continue // both under the noise floor: ratios are meaningless
		}
		base := prev.Ns
		if base < floor {
			base = floor
		}
		if ratio := float64(cur.Ns) / float64(base); ratio > spillCheckMaxStepRatio {
			return fmt.Errorf("runtime jumped %.2fx from %d%% to %d%% budget (limit %.1fx): not smooth",
				ratio, prev.Pct, cur.Pct, spillCheckMaxStepRatio)
		}
	}
	base := full.Ns
	if base < floor {
		base = floor
	}
	last := points[len(points)-1]
	if ratio := float64(last.Ns) / float64(base); ratio > spillCheckMaxTotalRatio {
		return fmt.Errorf("tightest budget (%d%%) is %.2fx the full budget (limit %.1fx)",
			last.Pct, ratio, spillCheckMaxTotalRatio)
	}
	return nil
}
