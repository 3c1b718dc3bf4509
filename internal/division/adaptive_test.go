package division

import (
	"testing"
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
