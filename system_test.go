package reldiv

// System-level integration test: one realistic workload pushed through every
// layer of the repository — workload generation, the storage engine, a
// covering B+-tree index, all six algorithms, partitioned and parallel
// hash-division, the optimizer rewrite — all under a constrained buffer
// pool, all required to agree with the brute-force reference.

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rewrite"
	"repro/internal/workload"
)

func TestFullSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("system test in short mode")
	}
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      40,
		QuotientCandidates: 300,
		FullFraction:       0.4,
		MatchFraction:      0.8,
		NoisePerCandidate:  3,
		DuplicateFactor:    2,
		Shuffle:            true,
		Seed:               99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth.
	memSpec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
			Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
			DivisorCols: []int{1},
		}
	}
	ref, err := division.Reference(memSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(inst.QuotientIDs) {
		t.Fatalf("reference %d vs generator ground truth %d", len(ref), len(inst.QuotientIDs))
	}
	qs := memSpec().QuotientSchema()

	// Storage engine with a deliberately small pool: everything must work
	// under eviction pressure.
	pool := buffer.New(64 * 1024)
	rel, err := workload.Load(pool, inst, disk.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)
	// assertNoFixed flags the exact stage that pinned a frame, rather than
	// only discovering the leak after all five stages ran.
	assertNoFixed := func(stage string) {
		t.Helper()
		if n := pool.FixedFrames(); n != 0 {
			t.Fatalf("%s left %d frames fixed", stage, n)
		}
	}
	env := division.Env{Pool: pool, TempDev: tempDev, SortBytes: 16 * 1024}
	storageSpec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewTableScan(rel.Dividend, false),
			Divisor:     exec.NewTableScan(rel.Divisor, true),
			DivisorCols: []int{1},
		}
	}

	// 1. Every general algorithm over the storage engine.
	for _, alg := range []division.Algorithm{
		division.AlgNaive, division.AlgSortAggJoin,
		division.AlgHashAggJoin, division.AlgHashDivision,
	} {
		got, err := division.Run(alg, storageSpec(), env)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !division.EqualTupleSets(qs, got, ref) {
			t.Errorf("%v: wrong quotient (%d vs %d)", alg, len(got), len(ref))
		}
		assertNoFixed(alg.String())
	}

	// 2. Covering-index naive division: bulk-load a B+-tree on (student,
	// course) from the sorted dividend and divide off the index.
	idxDev := disk.NewDevice("idx", 4096)
	sortOp := exec.NewSort(exec.NewTableScan(rel.Dividend, false), exec.SortConfig{
		Keys: []int{0, 1}, MemoryBytes: 16 * 1024, Pool: pool, TempDev: tempDev,
	})
	sorted, err := exec.Collect(sortOp)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]btree.Entry, len(sorted))
	for i, tp := range sorted {
		entries[i] = btree.Entry{Key: tp}
	}
	idx, err := btree.BulkLoad(pool, idxDev, workload.TranscriptSchema, entries, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	divisorSorted := exec.NewSort(exec.NewTableScan(rel.Divisor, true), exec.SortConfig{
		Keys: []int{0}, MemoryBytes: 16 * 1024, Pool: pool, TempDev: tempDev,
	})
	idxSpec := division.Spec{
		Dividend:    exec.NewIndexKeyScan(idx, workload.TranscriptSchema, nil, nil),
		Divisor:     divisorSorted,
		DivisorCols: []int{1},
	}
	got, err := exec.Collect(division.NewNaivePreSorted(idxSpec, env))
	if err != nil {
		t.Fatal(err)
	}
	if !division.EqualTupleSets(qs, got, ref) {
		t.Errorf("indexed naive: wrong quotient (%d vs %d)", len(got), len(ref))
	}
	assertNoFixed("indexed naive division")

	// 3. Recursive divisor-partitioned hash-division under a budget.
	budgetEnv := env
	budgetEnv.MemoryBudget = 24 * 1024
	qts, st, err := division.DivideRecursive(storageSpec(), budgetEnv,
		division.DivisorPartitioning, division.RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !division.EqualTupleSets(qs, qts, ref) {
		t.Errorf("adaptive (%d,%d): wrong quotient", st.DivisorLeaves, st.MaxQuotientCells)
	}
	assertNoFixed("adaptive partitioned hash-division")

	// 4. Parallel execution with bit-vector filtering.
	res, err := parallel.Divide(memSpec(), parallel.Config{
		Workers: 4, Strategy: division.DivisorPartitioning, BitVectorFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !division.EqualTupleSets(qs, res.Quotient, ref) {
		t.Error("parallel: wrong quotient")
	}
	if res.Network.TuplesFiltered == 0 {
		t.Error("bit vector filtered nothing despite noise tuples")
	}
	assertNoFixed("parallel division")

	// 5. The optimizer path: aggregate plan, rewritten plan, same answer.
	transcript := rewrite.NewRel("transcript", workload.TranscriptSchema, func() exec.Operator {
		return exec.NewTableScan(rel.Dividend, false)
	})
	courses := rewrite.NewRel("courses", workload.CourseSchema, func() exec.Operator {
		return exec.NewTableScan(rel.Divisor, true)
	})
	plan := &rewrite.CountEqCard{
		Input: &rewrite.GroupCount{
			Input:     &rewrite.SemiJoin{Left: transcript, Right: courses, LeftCols: []int{1}, RightCols: []int{0}},
			GroupCols: []int{0},
		},
		Of: courses,
	}
	// NOTE: the aggregate plan counts duplicated (student, course) pairs
	// twice, so with a duplicated dividend only the REWRITTEN plan is
	// correct — another face of the paper's duplicate-handling point.
	rewritten, changed := rewrite.Rewrite(plan)
	if !changed {
		t.Fatal("rewrite did not fire")
	}
	op, err := rewrite.Compile(rewritten, env)
	if err != nil {
		t.Fatal(err)
	}
	rwRows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if !division.EqualTupleSets(qs, rwRows, ref) {
		t.Error("rewritten plan: wrong quotient")
	}

	// 6. Observability: the public API bumps the process-wide registry, and
	// EXPLAIN ANALYZE profiles the same workload without changing the answer.
	before := obs.Default.Snapshot()
	dividendRel := NewRelation("transcript", Int64Col("student"), Int64Col("course"))
	for _, tp := range inst.Dividend {
		dividendRel.MustInsert(
			workload.TranscriptSchema.Int64(tp, 0), workload.TranscriptSchema.Int64(tp, 1))
	}
	divisorRel := NewRelation("courses", Int64Col("course"))
	for _, tp := range inst.Divisor {
		divisorRel.MustInsert(workload.CourseSchema.Int64(tp, 0))
	}
	quotient, err := Divide(dividendRel, divisorRel, []string{"course"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quotient.NumRows() != len(ref) {
		t.Errorf("public Divide: %d rows, want %d", quotient.NumRows(), len(ref))
	}
	after := obs.Default.Snapshot()
	if d := after["reldiv.divisions"] - before["reldiv.divisions"]; d != 1 {
		t.Errorf("reldiv.divisions advanced by %d, want 1", d)
	}
	if d := after["reldiv.quotient_rows"] - before["reldiv.quotient_rows"]; d != int64(len(ref)) {
		t.Errorf("reldiv.quotient_rows advanced by %d, want %d", d, len(ref))
	}
	if after["parallel.divisions"] < 1 {
		t.Error("parallel.divisions never advanced despite stage 4")
	}

	analyzed, prof, err := ExplainAnalyze(dividendRel, divisorRel, []string{"course"},
		&Options{Algorithm: HashDivision})
	if err != nil {
		t.Fatal(err)
	}
	if analyzed.NumRows() != len(ref) {
		t.Errorf("ExplainAnalyze: %d rows, want %d", analyzed.NumRows(), len(ref))
	}
	if prof == nil || prof.Root == nil {
		t.Fatal("ExplainAnalyze returned no profile")
	}
	if sum := prof.SumSelf(); sum != prof.Total {
		t.Errorf("profile selves sum to %+v, total is %+v", sum, prof.Total)
	}
	spans := 0
	prof.Walk(func(s *obs.Span, depth int) { spans++ })
	if spans < 4 {
		t.Errorf("profile has only %d spans; expected the phase tree", spans)
	}

	// Nothing may stay pinned in the pool after all of this.
	if pool.FixedFrames() != 0 {
		t.Errorf("system test leaked %d fixed frames", pool.FixedFrames())
	}
}
