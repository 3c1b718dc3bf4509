package division

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tuple"
)

var (
	transcriptSchema = tuple.NewSchema(tuple.Int64Field("student"), tuple.Int64Field("course"))
	courseSchema     = tuple.NewSchema(tuple.Int64Field("course"))
)

// makeSpec builds a Spec over in-memory relations of (student, course) ÷
// (course).
func makeSpec(dividend [][2]int64, divisor []int64) Spec {
	dts := make([]tuple.Tuple, len(dividend))
	for i, r := range dividend {
		dts[i] = transcriptSchema.MustMake(r[0], r[1])
	}
	sts := make([]tuple.Tuple, len(divisor))
	for i, v := range divisor {
		sts[i] = courseSchema.MustMake(v)
	}
	return Spec{
		Dividend:    exec.NewMemScan(transcriptSchema, dts),
		Divisor:     exec.NewMemScan(courseSchema, sts),
		DivisorCols: []int{1},
	}
}

func testEnv() Env {
	return Env{
		Pool:    buffer.New(1 << 20),
		TempDev: disk.NewDevice("temp", disk.PaperRunPageSize),
	}
}

// budgetEnv is testEnv with a hash-table budget.
func budgetEnv(budget int) Env {
	env := testEnv()
	env.MemoryBudget = budget
	return env
}

func quotientIDs(t *testing.T, s *tuple.Schema, ts []tuple.Tuple) []int64 {
	t.Helper()
	sorted := SortTuples(s, ts)
	out := make([]int64, len(sorted))
	for i, tp := range sorted {
		out[i] = s.Int64(tp, 0)
	}
	return out
}

func TestSpecValidate(t *testing.T) {
	good := makeSpec([][2]int64{{1, 1}}, []int64{1})
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := good
	bad.DivisorCols = []int{0, 1}
	if err := bad.Validate(); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad = good
	bad.DivisorCols = []int{5}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range column accepted")
	}
	bad = good
	bad.DivisorCols = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty divisor columns accepted")
	}
	// No quotient columns left.
	oneCol := Spec{
		Dividend:    exec.NewMemScan(courseSchema, nil),
		Divisor:     exec.NewMemScan(courseSchema, nil),
		DivisorCols: []int{0},
	}
	if err := oneCol.Validate(); err == nil {
		t.Error("spec without quotient columns accepted")
	}
	// Kind mismatch.
	charSchema := tuple.NewSchema(tuple.CharField("c", 8))
	mismatch := Spec{
		Dividend:    exec.NewMemScan(transcriptSchema, nil),
		Divisor:     exec.NewMemScan(charSchema, nil),
		DivisorCols: []int{1},
	}
	if err := mismatch.Validate(); err == nil {
		t.Error("kind mismatch accepted")
	}
}

// TestFigure2Example reproduces the paper's worked example (§3.2): Courses =
// {Database1, Database2}, Transcript = {(Ann, Database1), (Barb, Database2),
// (Ann, Database2), (Barb, Optics)}; the quotient is exactly {Ann}.
func TestFigure2Example(t *testing.T) {
	const (
		ann, barb        = 1, 2
		db1, db2, optics = 101, 102, 999
	)
	dividend := [][2]int64{{ann, db1}, {barb, db2}, {ann, db2}, {barb, optics}}
	divisor := []int64{db1, db2}

	for _, alg := range Algorithms {
		if alg.AssumesMatchingDividend() {
			// Optics violates the no-join variants' precondition; see
			// TestNoJoinVariantsNeedSemiJoin.
			continue
		}
		sp := makeSpec(dividend, divisor)
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ids := quotientIDs(t, sp.QuotientSchema(), got)
		if len(ids) != 1 || ids[0] != ann {
			t.Errorf("%v: quotient = %v, want [Ann]", alg, ids)
		}
	}
}

// TestNoJoinVariantsNeedSemiJoin documents the §2.2 precondition: on the
// restricted-divisor example the no-join aggregation variants over-count
// (Barb's Optics course makes her count reach |S|) and wrongly include Barb —
// exactly why the paper inserts a semi-join before the aggregate function.
func TestNoJoinVariantsNeedSemiJoin(t *testing.T) {
	dividend := [][2]int64{{1, 101}, {2, 102}, {1, 102}, {2, 999}}
	divisor := []int64{101, 102}
	for _, alg := range []Algorithm{AlgSortAgg, AlgHashAgg} {
		if !alg.AssumesMatchingDividend() {
			t.Fatalf("%v should declare its precondition", alg)
		}
		sp := makeSpec(dividend, divisor)
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ids := quotientIDs(t, sp.QuotientSchema(), got)
		if len(ids) != 2 {
			t.Errorf("%v: expected the documented over-count [1 2], got %v", alg, ids)
		}
	}
	// The with-join variants fix it.
	for _, alg := range []Algorithm{AlgSortAggJoin, AlgHashAggJoin} {
		sp := makeSpec(dividend, divisor)
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ids := quotientIDs(t, sp.QuotientSchema(), got)
		if len(ids) != 1 || ids[0] != 1 {
			t.Errorf("%v: quotient = %v, want [1]", alg, ids)
		}
	}
}

// TestHashDivisionFigure1Steps walks the Figure 1 state on the Figure 2
// data: two divisor numbers assigned, (Barb, Optics) discarded for lack of a
// divisor match, and only Ann's bit map free of zeros.
func TestHashDivisionFigure1Steps(t *testing.T) {
	sp := makeSpec([][2]int64{{1, 101}, {2, 102}, {1, 102}, {2, 999}}, []int64{101, 102})
	hd := NewHashDivision(sp, Env{}, HashDivisionOptions{})
	if err := hd.Open(); err != nil {
		t.Fatal(err)
	}
	defer hd.Close()
	if hd.DivisorCount() != 2 {
		t.Errorf("divisor count = %d, want 2", hd.DivisorCount())
	}
	// Quotient table holds both candidates (Ann and Barb entered), but only
	// Ann survives step 3.
	if got := hd.core.quotientTable.Len(); got != 2 {
		t.Errorf("quotient table has %d candidates, want 2 (Ann and Barb)", got)
	}
	q, err := hd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if id := sp.QuotientSchema().Int64(q, 0); id != 1 {
		t.Errorf("quotient tuple = %d, want Ann (1)", id)
	}
	if _, err := hd.Next(); err == nil {
		t.Error("expected EOF after the single quotient tuple")
	}
}

func TestAllAlgorithmsAgreeOnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nS := 1 + rng.Intn(8)
		nQ := 1 + rng.Intn(12)
		divisor := make([]int64, nS)
		for i := range divisor {
			divisor[i] = int64(100 + i)
		}
		noisy := trial%2 == 0
		var dividend [][2]int64
		for q := 0; q < nQ; q++ {
			// Each student takes a random subset of courses plus noise.
			for _, c := range divisor {
				if rng.Float64() < 0.7 {
					dividend = append(dividend, [2]int64{int64(q), c})
				}
			}
			if noisy && rng.Float64() < 0.5 {
				dividend = append(dividend, [2]int64{int64(q), 999}) // non-matching
			}
		}
		rng.Shuffle(len(dividend), func(i, j int) {
			dividend[i], dividend[j] = dividend[j], dividend[i]
		})

		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			t.Fatal(err)
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		for _, alg := range Algorithms {
			if noisy && alg.AssumesMatchingDividend() {
				continue // precondition violated by the 999 tuples
			}
			got, err := Run(alg, makeSpec(dividend, divisor), testEnv())
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			if !EqualTupleSets(qs, got, ref) {
				t.Fatalf("trial %d %v: got %v, want %v", trial, alg,
					quotientIDs(t, qs, got), quotientIDs(t, qs, ref))
			}
		}
	}
}

func TestDuplicatesInInputs(t *testing.T) {
	// Dividend and divisor both duplicated; quotient must be unaffected.
	dividend := [][2]int64{
		{1, 101}, {1, 101}, {1, 102}, {1, 102}, {1, 102},
		{2, 101}, {2, 101}, // student 2 misses course 102
	}
	divisor := []int64{101, 102, 101, 102, 102}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	qs := makeSpec(dividend, divisor).QuotientSchema()
	if ids := quotientIDs(t, qs, ref); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("reference on duplicates = %v", ids)
	}
	for _, alg := range Algorithms {
		got, err := Run(alg, makeSpec(dividend, divisor), testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !EqualTupleSets(qs, got, ref) {
			t.Errorf("%v mishandles duplicates: %v", alg, quotientIDs(t, qs, got))
		}
	}
}

// Hash-division must tolerate duplicates even when told inputs are unique —
// "duplicates in the dividend are ignored automatically since they map to
// the same bit in the same bit map."
func TestHashDivisionDuplicateInsensitive(t *testing.T) {
	dividend := [][2]int64{{1, 101}, {1, 101}, {1, 102}, {2, 101}}
	divisor := []int64{101, 102, 101}
	env := testEnv()
	env.AssumeUniqueInputs = true // hash-division ignores this flag
	sp := makeSpec(dividend, divisor)
	got, err := Run(AlgHashDivision, sp, env)
	if err != nil {
		t.Fatal(err)
	}
	ids := quotientIDs(t, sp.QuotientSchema(), got)
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("quotient = %v, want [1]", ids)
	}
}

func TestEmptyInputs(t *testing.T) {
	for _, alg := range Algorithms {
		// Empty divisor: empty quotient by the package contract.
		sp := makeSpec([][2]int64{{1, 101}}, nil)
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v empty divisor: %v", alg, err)
		}
		if len(got) != 0 {
			t.Errorf("%v: empty divisor gave %d tuples", alg, len(got))
		}
		// Empty dividend.
		sp = makeSpec(nil, []int64{101})
		got, err = Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v empty dividend: %v", alg, err)
		}
		if len(got) != 0 {
			t.Errorf("%v: empty dividend gave %d tuples", alg, len(got))
		}
	}
}

func TestMultiColumnQuotientAndDivisor(t *testing.T) {
	// Dividend (a, b, x, y) ÷ divisor (x, y): quotient is (a, b).
	ds := tuple.NewSchema(
		tuple.Int64Field("a"), tuple.Int64Field("b"),
		tuple.Int64Field("x"), tuple.Int64Field("y"))
	ss := tuple.NewSchema(tuple.Int64Field("x"), tuple.Int64Field("y"))
	var dts []tuple.Tuple
	// (1,1) pairs with both divisor tuples; (2,2) with only one.
	dts = append(dts,
		ds.MustMake(1, 1, 10, 20),
		ds.MustMake(1, 1, 11, 21),
		ds.MustMake(2, 2, 10, 20),
	)
	sts := []tuple.Tuple{ss.MustMake(10, 20), ss.MustMake(11, 21)}
	for _, alg := range Algorithms {
		sp := Spec{
			Dividend:    exec.NewMemScan(ds, dts),
			Divisor:     exec.NewMemScan(ss, sts),
			DivisorCols: []int{2, 3},
		}
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		qs := sp.QuotientSchema()
		if len(got) != 1 || qs.Int64(got[0], 0) != 1 || qs.Int64(got[0], 1) != 1 {
			t.Errorf("%v: quotient = %v", alg, got)
		}
	}
}

func TestCharColumns(t *testing.T) {
	// String-typed quotient attribute like the paper's student names.
	ds := tuple.NewSchema(tuple.CharField("student", 8), tuple.CharField("course", 12))
	ss := tuple.NewSchema(tuple.CharField("course", 12))
	// No Optics row here so every algorithm's precondition holds; the
	// restricted-divisor case is covered by TestNoJoinVariantsNeedSemiJoin.
	dts := []tuple.Tuple{
		ds.MustMake("Ann", "Database1"),
		ds.MustMake("Barb", "Database2"),
		ds.MustMake("Ann", "Database2"),
	}
	sts := []tuple.Tuple{ss.MustMake("Database1"), ss.MustMake("Database2")}
	for _, alg := range Algorithms {
		sp := Spec{
			Dividend:    exec.NewMemScan(ds, dts),
			Divisor:     exec.NewMemScan(ss, sts),
			DivisorCols: []int{1},
		}
		got, err := Run(alg, sp, testEnv())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		qs := sp.QuotientSchema()
		if len(got) != 1 || qs.Char(got[0], 0) != "Ann" {
			t.Errorf("%v: quotient = %v", alg, got)
		}
	}
}

func TestEarlyEmitStreamsSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var dividend [][2]int64
	divisor := []int64{101, 102, 103}
	for q := 0; q < 30; q++ {
		for _, c := range divisor {
			if rng.Float64() < 0.8 {
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	sp := makeSpec(dividend, divisor)
	hd := NewHashDivision(sp, testEnv(), HashDivisionOptions{EarlyEmit: true})
	got, err := exec.Collect(hd)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(sp.QuotientSchema(), got, ref) {
		t.Errorf("early emit = %v, want %v",
			quotientIDs(t, sp.QuotientSchema(), got), quotientIDs(t, sp.QuotientSchema(), ref))
	}
}

func TestEarlyEmitProducesBeforeEOF(t *testing.T) {
	// With the completing tuple first, early emit must yield the quotient
	// tuple before the dividend is exhausted.
	dividend := [][2]int64{{1, 101}, {1, 102}, {2, 101}, {2, 999}, {3, 101}}
	sp := makeSpec(dividend, []int64{101, 102})
	hd := NewHashDivision(sp, Env{}, HashDivisionOptions{EarlyEmit: true})
	if err := hd.Open(); err != nil {
		t.Fatal(err)
	}
	defer hd.Close()
	q, err := hd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.QuotientSchema().Int64(q, 0); got != 1 {
		t.Errorf("first streamed quotient = %d, want 1", got)
	}
}

// TestPartitionedEqualsUnpartitioned: recursive division under either
// strategy returns plain hash-division's quotient, non-divisor noise
// discarded, at a budget of the plain tables' peak, where it must not
// partition, and at a half, a third and a seventh of it, where it must.
func TestPartitionedEqualsUnpartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var dividend [][2]int64
	divisor := make([]int64, 12)
	for i := range divisor {
		divisor[i] = int64(100 + i)
	}
	for q := 0; q < 60; q++ {
		for _, c := range divisor {
			if rng.Float64() < 0.85 {
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
		dividend = append(dividend, [2]int64{int64(q), 888})
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	qs := makeSpec(dividend, divisor).QuotientSchema()
	env := testEnv()
	env.ExpectedDivisor = len(divisor)
	plain := NewHashDivision(makeSpec(dividend, divisor), env, HashDivisionOptions{})
	want, err := exec.Collect(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !EqualTupleSets(qs, want, ref) {
		t.Fatalf("plain hash-division gave %v, reference %v", quotientIDs(t, qs, want), quotientIDs(t, qs, ref))
	}
	peak := plain.Stats().PeakTableBytes

	for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		for _, k := range []int{1, 2, 3, 7} {
			env.MemoryBudget = peak / k
			t.Run(fmt.Sprintf("%v/peak-over-%d", strategy, k), func(t *testing.T) {
				got, st, err := DivideRecursive(makeSpec(dividend, divisor), env, strategy, RecursiveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !EqualTupleSets(qs, got, want) {
					t.Errorf("got %v, want %v", quotientIDs(t, qs, got), quotientIDs(t, qs, want))
				}
				partitioned := st.Repartitions > 0 || st.DivisorLeaves > 1
				if partitioned != (k > 1) {
					t.Errorf("partitioned = %v at 1/%d of the peak: %+v", partitioned, k, st)
				}
			})
		}
	}
}

func TestMemoryBudgetTriggersError(t *testing.T) {
	var dividend [][2]int64
	divisor := make([]int64, 50)
	for i := range divisor {
		divisor[i] = int64(i)
		for q := 0; q < 100; q++ {
			dividend = append(dividend, [2]int64{int64(q), int64(i)})
		}
	}
	sp := makeSpec(dividend, divisor)
	hd := NewHashDivision(sp, Env{MemoryBudget: 2048}, HashDivisionOptions{})
	_, err := exec.Collect(hd)
	if err == nil {
		t.Fatal("expected budget error")
	}
}

func TestRunOnStorageFiles(t *testing.T) {
	// End to end over the real storage engine instead of memory scans.
	pool := buffer.New(buffer.PaperPoolBytes)
	dataDev := disk.NewDevice("data", disk.PaperPageSize)
	tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)

	dividendFile := newStorageRelation(t, pool, dataDev, transcriptSchema, "transcript")
	divisorFile := newStorageRelation(t, pool, dataDev, courseSchema, "courses")

	rng := rand.New(rand.NewSource(31))
	var memDividend [][2]int64
	divisor := []int64{201, 202, 203, 204}
	for _, c := range divisor {
		if _, err := divisorFile.Append(courseSchema.MustMake(c)); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 200; q++ {
		for _, c := range divisor {
			if rng.Float64() < 0.9 {
				memDividend = append(memDividend, [2]int64{int64(q), c})
				if _, err := dividendFile.Append(transcriptSchema.MustMake(q, c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ref, err := Reference(makeSpec(memDividend, divisor))
	if err != nil {
		t.Fatal(err)
	}

	env := Env{Pool: pool, TempDev: tempDev}
	for _, alg := range Algorithms {
		sp := Spec{
			Dividend:    exec.NewTableScan(dividendFile, false),
			Divisor:     exec.NewTableScan(divisorFile, true),
			DivisorCols: []int{1},
		}
		got, err := Run(alg, sp, env)
		if err != nil {
			t.Fatalf("%v on storage: %v", alg, err)
		}
		if !EqualTupleSets(sp.QuotientSchema(), got, ref) {
			t.Errorf("%v on storage: wrong quotient (%d vs %d tuples)", alg, len(got), len(ref))
		}
	}
	if pool.FixedFrames() != 0 {
		t.Errorf("algorithms leaked %d fixed frames", pool.FixedFrames())
	}
}

func newStorageRelation(t *testing.T, pool *buffer.Pool, dev *disk.Device, schema *tuple.Schema, name string) *storage.File {
	t.Helper()
	return storage.NewFile(pool, dev, schema, name)
}

func TestCountersAccumulate(t *testing.T) {
	var c exec.Counters
	env := testEnv()
	env.Counters = &c
	sp := makeSpec([][2]int64{{1, 101}, {1, 102}, {2, 101}}, []int64{101, 102})
	if _, err := Run(AlgHashDivision, sp, env); err != nil {
		t.Fatal(err)
	}
	if c.Hash == 0 || c.Bit == 0 {
		t.Errorf("hash-division counters = %+v", c)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	sp := makeSpec([][2]int64{{1, 101}}, []int64{101})
	if _, err := New(Algorithm(99), sp, Env{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
