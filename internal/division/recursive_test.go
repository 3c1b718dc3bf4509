package division

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// skewedWorkload builds a duplicate-heavy dividend whose course column is
// Zipf-distributed: a handful of popular courses soak up most enrollments,
// the shape that defeats a single partitioning pass. Students 0..full-1 take
// every course (the guaranteed quotient); the rest enroll Zipf-randomly.
func skewedWorkload(students, full, courses, dupFactor int, seed int64) ([][2]int64, []int64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(courses-1))
	divisor := make([]int64, courses)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	var dividend [][2]int64
	add := func(s, c int64) {
		for d := 0; d < dupFactor; d++ {
			dividend = append(dividend, [2]int64{s, c})
		}
	}
	for s := 0; s < students; s++ {
		if s < full {
			for c := 0; c < courses; c++ {
				add(int64(s), int64(c))
			}
			continue
		}
		n := 1 + rng.Intn(courses)
		for i := 0; i < n; i++ {
			add(int64(s), int64(zipf.Uint64()))
		}
	}
	rng.Shuffle(len(dividend), func(i, j int) {
		dividend[i], dividend[j] = dividend[j], dividend[i]
	})
	return dividend, divisor
}

// TestRecursiveMatchesReferenceUnderPressure is the out-of-core property
// test: recursive division must agree with the brute-force reference on a
// skewed, duplicate-heavy workload across the whole budget range, for both
// partitioning strategies — and at 100% budget it must never touch disk.
func TestRecursiveMatchesReferenceUnderPressure(t *testing.T) {
	dividend, divisor := skewedWorkload(400, 25, 10, 3, 42)
	inputBytes := len(dividend) * transcriptSchema.Width()
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	qs := makeSpec(dividend, divisor).QuotientSchema()

	for _, pct := range []int{1, 5, 25, 100} {
		budget := inputBytes * pct / 100
		for _, strat := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
			t.Run(fmt.Sprintf("budget=%d%%/%v", pct, strat), func(t *testing.T) {
				live := storage.LiveSpillFiles()
				got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(budget), strat, RecursiveOptions{})
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				if !EqualTupleSets(qs, got, ref) {
					t.Fatalf("budget %d: quotient mismatch: got %d tuples, want %d (stats %+v)",
						budget, len(got), len(ref), st)
				}
				if pct == 100 && (st.SpillBytes != 0 || st.SpilledPartitions != 0) {
					t.Fatalf("full budget still spilled: %+v", st)
				}
				if pct == 1 && st.Repartitions == 0 {
					t.Fatalf("1%% budget did not re-partition: %+v", st)
				}
				if after := storage.LiveSpillFiles(); after != live {
					t.Fatalf("spill files leaked: %d -> %d", live, after)
				}
			})
		}
	}
}

// TestRecursiveHybridResidency pins the hybrid policy: at a budget that
// forces re-partitioning but a fan-out that makes children smaller than the
// budget, some cells must stay memory-resident while others spill. A
// duplicate-free dividend with wide candidates (table footprint ≈ 2× input)
// drives the fan-out high enough for that to happen.
func TestRecursiveHybridResidency(t *testing.T) {
	divisor := []int64{0, 1}
	var dividend [][2]int64
	for s := 0; s < 2000; s++ {
		dividend = append(dividend, [2]int64{int64(s), 0})
		if s%3 != 0 { // every third student is incomplete
			dividend = append(dividend, [2]int64{int64(s), 1})
		}
	}
	got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(8<<10), QuotientPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref) {
		t.Fatalf("quotient mismatch under hybrid residency (stats %+v)", st)
	}
	if st.SpilledPartitions == 0 {
		t.Fatalf("expected some partitions to spill at 5%% budget: %+v", st)
	}
	if st.MemResidentCells == 0 {
		t.Fatalf("expected some cells to stay memory-resident (hybrid): %+v", st)
	}
	if st.MaxDepth < 1 {
		t.Fatalf("expected at least one recursion level: %+v", st)
	}
}

// TestRecursiveDepthCapTypedError pins the skew backstop: when every
// dividend tuple shares one quotient value and the divisor table alone
// exceeds the budget, no amount of quotient-side partitioning helps; the
// recursion must stop at the depth cap with ErrPartitionDepth — and leak no
// spill files on the way out.
func TestRecursiveDepthCapTypedError(t *testing.T) {
	divisor := make([]int64, 10)
	var dividend [][2]int64
	for c := range divisor {
		divisor[c] = int64(c)
		dividend = append(dividend, [2]int64{1, int64(c)})
	}
	live := storage.LiveSpillFiles()
	// Budget above the raw divisor bytes (so the hopeless-divisor precheck
	// passes) but below the divisor table's footprint: every cell overflows.
	_, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(300), QuotientPartitioning, RecursiveOptions{})
	if !errors.Is(err, ErrPartitionDepth) {
		t.Fatalf("want ErrPartitionDepth, got %v (stats %+v)", err, st)
	}
	if after := storage.LiveSpillFiles(); after != live {
		t.Fatalf("spill files leaked on error: %d -> %d", live, after)
	}
}

// TestRecursiveNoBudgetIsPlainDivision pins the degenerate path: without a
// budget the operator is plain hash-division — one attempt, no partitioning.
func TestRecursiveNoBudgetIsPlainDivision(t *testing.T) {
	dividend, divisor := skewedWorkload(50, 5, 6, 2, 3)
	got, st, err := DivideRecursive(makeSpec(dividend, divisor), testEnv(), DivisorPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref) {
		t.Fatal("quotient mismatch without budget")
	}
	if st.Attempts != 1 || st.Repartitions != 0 || st.SpillBytes != 0 {
		t.Fatalf("no-budget run should be a single in-memory attempt: %+v", st)
	}
}

// TestRecursiveEmptyInputs: an empty divisor, an empty dividend, or both
// give an empty quotient under either strategy, even at a budget that would
// partition anything larger.
func TestRecursiveEmptyInputs(t *testing.T) {
	for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		for _, tc := range []struct {
			name     string
			dividend [][2]int64
			divisor  []int64
		}{
			{"divisor", [][2]int64{{1, 101}}, nil},
			{"dividend", nil, []int64{101}},
			{"both", nil, nil},
		} {
			t.Run(fmt.Sprintf("%v/empty-%s", strategy, tc.name), func(t *testing.T) {
				got, _, err := DivideRecursive(makeSpec(tc.dividend, tc.divisor), budgetEnv(256), strategy, RecursiveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 0 {
					t.Errorf("quotient %v", got)
				}
			})
		}
	}
}

// TestRecursiveSpillNeedsTempDev: a division that must spill but has no
// pool or temp device reports ErrMemoryBudget instead of exceeding the
// budget.
func TestRecursiveSpillNeedsTempDev(t *testing.T) {
	var dividend [][2]int64
	divisor := []int64{1, 2, 3}
	for q := 0; q < 3000; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	_, _, err := DivideRecursive(makeSpec(dividend, divisor), Env{MemoryBudget: 4096}, QuotientPartitioning, RecursiveOptions{})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget without a temp device, got %v", err)
	}
}

// TestRecursiveAttemptFitsWherePlainFits pins the attempt sizing: a cell's
// quotient table is pre-sized for at most the candidates the budget can
// hold, but never above plain hash-division's expectation. With more than
// the default 1024 candidates and a budget equal to plain hash-division's
// peak, pre-sizing to the budget would give the attempt a larger bucket
// array than the plain run and overflow where the plain tables fit.
func TestRecursiveAttemptFitsWherePlainFits(t *testing.T) {
	divisor := make([]int64, 16)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	var dividend [][2]int64
	for q := 0; q < 2000; q++ {
		for _, c := range divisor {
			if q%2 == 0 || c != 0 { // odd candidates miss course 0
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
	}
	env := testEnv()
	env.ExpectedDivisor = len(divisor)
	plain := NewHashDivision(makeSpec(dividend, divisor), env, HashDivisionOptions{})
	want, err := exec.Collect(plain)
	if err != nil {
		t.Fatal(err)
	}
	env.MemoryBudget = plain.Stats().PeakTableBytes
	got, st, err := DivideRecursive(makeSpec(dividend, divisor), env, QuotientPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, want) {
		t.Fatalf("quotient mismatch: %d vs %d tuples", len(got), len(want))
	}
	if st.Attempts != 1 || st.Overflowed != 0 || st.SpilledPartitions != 0 {
		t.Fatalf("budget of %d bytes fits plain hash-division but the recursive attempt overflowed: %+v",
			env.MemoryBudget, st)
	}
}

// TestAdaptiveReportsWaste pins the overflow accounting of recursive
// divisor partitioning: abandoned attempts are counted, their absorbed
// tuples reported, and the totals land on the obs registry.
func TestAdaptiveReportsWaste(t *testing.T) {
	dividend, divisor := skewedWorkload(400, 25, 10, 3, 11)
	inputBytes := len(dividend) * transcriptSchema.Width()
	before := obs.Default.Get("division.attempts.overflowed")
	beforeWaste := obs.Default.Get("division.attempts.wasted_tuples")

	got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(inputBytes*5/100), DivisorPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref) {
		t.Fatal("adaptive quotient mismatch")
	}
	if st.Overflowed == 0 || st.WastedTuples == 0 {
		t.Fatalf("expected abandoned attempts to be reported: %+v", st)
	}
	if st.Attempts <= st.Overflowed {
		t.Fatalf("attempts must include the successful ones: %+v", st)
	}
	if st.DivisorLeaves < 1 || st.MaxQuotientCells < 1 {
		t.Fatalf("grid must be at least 1x1: %+v", st)
	}
	if got := obs.Default.Get("division.attempts.overflowed") - before; got < int64(st.Overflowed) {
		t.Fatalf("division.attempts.overflowed grew by %d, want at least %d", got, st.Overflowed)
	}
	if got := obs.Default.Get("division.attempts.wasted_tuples") - beforeWaste; got < st.WastedTuples {
		t.Fatalf("division.attempts.wasted_tuples grew by %d, want at least %d", got, st.WastedTuples)
	}
}

// TestRecursiveSeededRerunSkipsDoomedAttempt pins the plan-cache feedback
// loop: an unseeded run over an input whose tables exceed the budget must
// abandon its first in-memory attempt (paying a full scan for nothing), but a
// rerun seeded with that run's observed statistics must skip the doomed
// attempt entirely — no overflow, no wasted tuples, identical quotient.
func TestRecursiveSeededRerunSkipsDoomedAttempt(t *testing.T) {
	dividend, divisor := skewedWorkload(400, 25, 10, 3, 7)
	budget := len(dividend) * transcriptSchema.Width() / 8
	sp := func() Spec { return makeSpec(dividend, divisor) }
	ref, err := Reference(sp())
	if err != nil {
		t.Fatal(err)
	}
	qs := sp().QuotientSchema()

	cold, st1, err := DivideRecursive(sp(), budgetEnv(budget), QuotientPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(qs, cold, ref) {
		t.Fatalf("cold run quotient mismatch (stats %+v)", st1)
	}
	if st1.Overflowed == 0 || st1.WastedTuples == 0 {
		t.Fatalf("workload not sized to overflow the root attempt: %+v", st1)
	}
	if st1.Candidates == 0 || st1.DividendTuples == 0 {
		t.Fatalf("cold run recorded no feedback statistics: %+v", st1)
	}

	warm, st2, err := DivideRecursive(sp(), budgetEnv(budget), QuotientPartitioning,
		RecursiveOptions{SeedCandidates: st1.Candidates})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(qs, warm, ref) {
		t.Fatalf("seeded run quotient mismatch (stats %+v)", st2)
	}
	if st2.SkippedAttempts == 0 {
		t.Fatalf("seeded run did not skip the doomed root attempt: %+v", st2)
	}
	if st2.Overflowed != 0 || st2.WastedTuples != 0 {
		t.Fatalf("seeded run still wasted an attempt: %+v", st2)
	}

	// A seed that predicts a comfortable fit must leave the run untouched.
	fit, st3, err := DivideRecursive(sp(), budgetEnv(64<<20), QuotientPartitioning,
		RecursiveOptions{SeedCandidates: st1.Candidates})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(qs, fit, ref) || st3.SkippedAttempts != 0 || st3.Overflowed != 0 {
		t.Fatalf("fitting seed changed behavior: %+v", st3)
	}
}
