package division

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

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
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	qs := makeSpec(dividend, divisor).QuotientSchema()

	for _, grid := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {3, 3}, {5, 2}} {
		op := NewCombinedPartitionedHashDivision(
			makeSpec(dividend, divisor), testEnv(), grid[0], grid[1])
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if !EqualTupleSets(qs, got, ref) {
			t.Errorf("grid %v: got %d tuples, want %d", grid, len(got), len(ref))
		}
	}
}

func TestCombinedPartitioningEmptyInputs(t *testing.T) {
	op := NewCombinedPartitionedHashDivision(makeSpec(nil, nil), testEnv(), 2, 2)
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty inputs gave %v", got)
	}
}

func TestCombinedPartitioningNeedsTempDev(t *testing.T) {
	sp := makeSpec([][2]int64{{1, 101}}, []int64{101})
	op := NewCombinedPartitionedHashDivision(sp, Env{}, 2, 2)
	if err := op.Open(); err == nil {
		op.Close()
		t.Fatal("expected error without temp device")
	}
}

// TestCombinedBoundsTableMemory demonstrates the point of the grid: with a
// per-phase budget too small for either single strategy at k clusters, the
// combined grid still fits because each cell sees ~1/kd of the divisor and
// ~1/kq of the quotient candidates.
func TestCombinedBoundsTableMemory(t *testing.T) {
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
	// Budget chosen so one full divisor table (200 entries) plus one full
	// quotient table (300 candidates with 200-bit maps) cannot fit, but a
	// 4×4 grid cell (≈50 divisor, ≈75 candidates) can.
	const budget = 16 * 1024
	plain := NewHashDivision(makeSpec(dividend, divisor), Env{MemoryBudget: budget}, HashDivisionOptions{})
	if _, err := exec.Collect(plain); err == nil {
		t.Fatal("plain hash-division should exceed the budget")
	}
	combined := NewCombinedPartitionedHashDivision(makeSpec(dividend, divisor), budgetEnv(budget), 4, 4)
	got, err := exec.Collect(combined)
	if err != nil {
		t.Fatalf("combined grid should fit the budget: %v", err)
	}
	if len(got) != 300 {
		t.Errorf("quotient = %d, want 300", len(got))
	}
}

// Property: any grid shape equals the reference.
func TestQuickCombinedEquivalence(t *testing.T) {
	f := func(raw []byte, nDivisorRaw, kdRaw, kqRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		kd := int(kdRaw%4) + 1
		kq := int(kqRaw%4) + 1
		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			return false
		}
		op := NewCombinedPartitionedHashDivision(
			makeSpec(dividend, divisor), testEnv(), kd, kq)
		got, err := exec.Collect(op)
		if err != nil {
			return false
		}
		return EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
