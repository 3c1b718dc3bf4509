package division

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// quickInstance derives a small random division problem from fuzz bytes:
// each byte encodes one dividend tuple (student = high nibble, course = low
// nibble); the divisor is courses 0..nDivisor-1.
func quickInstance(raw []byte, nDivisorRaw uint8) ([][2]int64, []int64) {
	nDivisor := int(nDivisorRaw%5) + 1
	divisor := make([]int64, nDivisor)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	dividend := make([][2]int64, 0, len(raw))
	for _, b := range raw {
		dividend = append(dividend, [2]int64{int64(b >> 4), int64(b & 0x0f)})
	}
	return dividend, divisor
}

// Property: every general algorithm agrees with the brute-force reference on
// arbitrary inputs (duplicates and non-matching tuples included).
func TestQuickGeneralAlgorithmsMatchReference(t *testing.T) {
	general := []Algorithm{AlgNaive, AlgSortAggJoin, AlgHashAggJoin, AlgHashDivision}
	f := func(raw []byte, nDivisorRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			return false
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		for _, alg := range general {
			got, err := Run(alg, makeSpec(dividend, divisor), testEnv())
			if err != nil {
				return false
			}
			if !EqualTupleSets(qs, got, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: hash-division is insensitive to dividend order and duplication —
// dividing R is the same as dividing R ++ R in any order.
func TestQuickHashDivisionDuplicationInvariant(t *testing.T) {
	f := func(raw []byte, nDivisorRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		base, err := Run(AlgHashDivision, makeSpec(dividend, divisor), testEnv())
		if err != nil {
			return false
		}
		doubled := append(append([][2]int64{}, dividend...), dividend...)
		// Reverse for a different arrival order.
		for i, j := 0, len(doubled)-1; i < j; i, j = i+1, j-1 {
			doubled[i], doubled[j] = doubled[j], doubled[i]
		}
		dup, err := Run(AlgHashDivision, makeSpec(doubled, divisor), testEnv())
		if err != nil {
			return false
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		return EqualTupleSets(qs, base, dup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: both recursive strategies agree with plain hash-division at any
// budget, or stop with a typed error when skew defeats the budget.
func TestQuickRecursiveEquivalence(t *testing.T) {
	f := func(raw []byte, nDivisorRaw, budgetRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		budget := 256 + int(budgetRaw)*16
		ref, err := Run(AlgHashDivision, makeSpec(dividend, divisor), testEnv())
		if err != nil {
			return false
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		for _, strat := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
			got, _, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(budget), strat, RecursiveOptions{})
			if errors.Is(err, ErrPartitionDepth) || errors.Is(err, ErrMemoryBudget) {
				continue
			}
			if err != nil || !EqualTupleSets(qs, got, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: early-emit and stop-and-go hash-division produce identical
// quotients.
func TestQuickEarlyEmitEquivalence(t *testing.T) {
	f := func(raw []byte, nDivisorRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		a, err := exec.Collect(NewHashDivision(makeSpec(dividend, divisor), Env{}, HashDivisionOptions{}))
		if err != nil {
			return false
		}
		b, err := exec.Collect(NewHashDivision(makeSpec(dividend, divisor), Env{}, HashDivisionOptions{EarlyEmit: true}))
		if err != nil {
			return false
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		return EqualTupleSets(qs, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
