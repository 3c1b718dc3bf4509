package division

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// adaptiveCheck divides under budget with recursive divisor partitioning and
// returns the effective grid: the divisor-side leaves and the largest
// quotient-side leaf count within any of them.
func adaptiveCheck(t *testing.T, dividend [][2]int64, divisor []int64, budget int) (kd, kq int) {
	t.Helper()
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	qts, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(budget), DivisorPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := makeSpec(dividend, divisor).QuotientSchema()
	if !EqualTupleSets(qs, qts, ref) {
		t.Fatalf("adaptive quotient wrong: %d vs %d tuples", len(qts), len(ref))
	}
	return st.DivisorLeaves, st.MaxQuotientCells
}

func TestAdaptiveNoBudgetStaysUnpartitioned(t *testing.T) {
	dividend := [][2]int64{{1, 101}, {1, 102}}
	divisor := []int64{101, 102}
	kd, kq := adaptiveCheck(t, dividend, divisor, 0)
	if kd != 1 || kq != 1 {
		t.Errorf("grid = (%d,%d), want (1,1)", kd, kq)
	}
}

func TestAdaptiveGrowsQuotientSide(t *testing.T) {
	// Small divisor, many candidates: the quotient table overflows.
	var dividend [][2]int64
	divisor := []int64{1, 2, 3}
	for q := 0; q < 3000; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	kd, kq := adaptiveCheck(t, dividend, divisor, 32*1024)
	if kd != 1 {
		t.Errorf("kd = %d, want 1 (the divisor fits)", kd)
	}
	if kq < 2 {
		t.Errorf("kq = %d, want escalation", kq)
	}
}

func TestAdaptiveGrowsDivisorSide(t *testing.T) {
	// Huge divisor, few candidates: the divisor table overflows.
	var dividend [][2]int64
	divisor := make([]int64, 3000)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	for q := 0; q < 3; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	kd, kq := adaptiveCheck(t, dividend, divisor, 64*1024)
	if kd < 2 {
		t.Errorf("kd = %d, want escalation (divisor of 3000 tuples)", kd)
	}
	_ = kq
}

func TestAdaptiveGrowsBothSides(t *testing.T) {
	var dividend [][2]int64
	divisor := make([]int64, 800)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	for q := 0; q < 400; q++ {
		for _, c := range divisor {
			if (q+int(c))%2 == 0 { // half density keeps the test quick
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
	}
	kd, kq := adaptiveCheck(t, dividend, divisor, 48*1024)
	if kd < 2 || kq < 2 {
		t.Errorf("grid = (%d,%d), want growth on both sides", kd, kq)
	}
}

// TestCombinedPartitioningMatchesReference: §6's combination of divisor and
// quotient partitioning is recursive divisor partitioning splitting both
// sides. Every student also takes a course outside the divisor, which the
// divisor-side pass must discard. The quotient must equal the reference at
// the plain tables' peak (a 1×1 grid), at half of it (only the quotient side
// splits) and at a sixth and a twelfth of it (both sides split).
func TestCombinedPartitioningMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var dividend [][2]int64
	divisor := make([]int64, 20)
	for i := range divisor {
		divisor[i] = int64(100 + i)
	}
	for q := 0; q < 80; q++ {
		for _, c := range divisor {
			if rng.Float64() < 0.8 {
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
		dividend = append(dividend, [2]int64{int64(q), 777})
	}
	plain := NewHashDivision(makeSpec(dividend, divisor), testEnv(), HashDivisionOptions{})
	if _, err := exec.Collect(plain); err != nil {
		t.Fatal(err)
	}
	peak := plain.Stats().PeakTableBytes

	for _, tc := range []struct {
		k                             int
		divisorSplits, quotientSplits bool
	}{
		{1, false, false},
		{2, false, true},
		{6, true, true},
		{12, true, true},
	} {
		t.Run(fmt.Sprintf("peak-over-%d", tc.k), func(t *testing.T) {
			kd, kq := adaptiveCheck(t, dividend, divisor, peak/tc.k)
			if (kd > 1) != tc.divisorSplits || (kq > 1) != tc.quotientSplits {
				t.Errorf("grid = (%d,%d), want divisor split %v, quotient split %v", kd, kq, tc.divisorSplits, tc.quotientSplits)
			}
		})
	}
}

// TestRecursiveBothTooLarge is §6's fourth question — "what happens if
// neither one of these partitioning strategies work because both divisor and
// quotient are too large?" — at a 16 KB budget: neither the 200-entry
// divisor table nor the 300-candidate quotient table fits, so plain
// hash-division overflows, and recursive divisor partitioning must split
// both sides and still return the whole quotient.
func TestRecursiveBothTooLarge(t *testing.T) {
	var dividend [][2]int64
	divisor := make([]int64, 200)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	for q := 0; q < 300; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	const budget = 16 * 1024
	plain := NewHashDivision(makeSpec(dividend, divisor), Env{MemoryBudget: budget}, HashDivisionOptions{})
	if _, err := exec.Collect(plain); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("plain hash-division = %v, want ErrMemoryBudget", err)
	}
	kd, kq := adaptiveCheck(t, dividend, divisor, budget)
	if kd < 2 || kq < 2 {
		t.Errorf("grid = (%d,%d), want both sides split", kd, kq)
	}
}
