package division

import (
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// depth2Seed is the fuzz-corpus seed that forces at least depth-2 recursion:
// 16 distinct students all taking course 0, with a one-course divisor and
// the minimum 256-byte budget — the candidate table overflows at the root
// and again after the first re-partitioning (TestFuzzSeedForcesDepth2 pins
// that it actually does).
var depth2Seed = []byte{
	0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70,
	0x80, 0x90, 0xa0, 0xb0, 0xc0, 0xd0, 0xe0, 0xf0,
}

// bothSidesSeed is the fuzz-corpus seed on which recursive divisor
// partitioning splits both sides at the minimum budget: with the five-course
// divisor (nDivisorRaw 4), students 0..3 take every course and students 4..7
// miss course 2, and at 256 bytes neither the divisor table nor the
// candidate table fits (TestFuzzSeedSplitsBothSides pins it).
var bothSidesSeed = []byte{
	0x00, 0x01, 0x02, 0x03, 0x04, 0x10, 0x11, 0x12, 0x13, 0x14,
	0x20, 0x21, 0x22, 0x23, 0x24, 0x30, 0x31, 0x32, 0x33, 0x34,
	0x40, 0x41, 0x43, 0x44, 0x50, 0x51, 0x53, 0x54,
	0x60, 0x61, 0x63, 0x64, 0x70, 0x71, 0x73, 0x74,
}

// FuzzHashDivision cross-checks hash-division (all variants) against the
// brute-force reference on fuzzer-generated inputs. Each input byte encodes
// one dividend tuple (student = high nibble, course = low nibble).
func FuzzHashDivision(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x11}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x00, 0x00, 0x00}, uint8(3))
	f.Add([]byte{0xff, 0xf0, 0x0f}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, nDivisorRaw uint8) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			t.Fatal(err)
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		for _, opts := range []HashDivisionOptions{
			{},
			{EarlyEmit: true},
		} {
			got, err := exec.Collect(NewHashDivision(makeSpec(dividend, divisor), Env{}, opts))
			if err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if !EqualTupleSets(qs, got, ref) {
				t.Fatalf("opts %+v: got %d tuples, reference %d", opts, len(got), len(ref))
			}
		}
	})
}

// FuzzRecursiveDivision cross-checks recursive out-of-core division against
// the reference under fuzzer-chosen budgets (256..4336 bytes) and both
// partitioning strategies. A run may refuse with one of the typed errors
// (budget too small for the divisor, depth cap under skew) — that is a
// valid outcome — but it must never produce a wrong quotient or leak a
// spill file.
func FuzzRecursiveDivision(f *testing.F) {
	f.Add(depth2Seed, uint8(0), uint8(0))
	f.Add([]byte{0x01, 0x12, 0x21}, uint8(2), uint8(40))
	f.Add([]byte{0x00, 0x00, 0x00}, uint8(3), uint8(255))
	f.Add([]byte{0xaa, 0xbb}, uint8(1), uint8(1))
	f.Add(bothSidesSeed, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, nDivisorRaw, budgetRaw uint8) {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		budget := 256 + int(budgetRaw)*16
		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			t.Fatal(err)
		}
		qs := makeSpec(dividend, divisor).QuotientSchema()
		for _, strat := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
			live := storage.LiveSpillFiles()
			got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(budget), strat, RecursiveOptions{})
			if err != nil {
				if !errors.Is(err, ErrPartitionDepth) && !errors.Is(err, ErrMemoryBudget) {
					t.Fatalf("%v budget %d: %v", strat, budget, err)
				}
			} else if !EqualTupleSets(qs, got, ref) {
				t.Fatalf("%v budget %d: got %d tuples, reference %d (stats %+v)",
					strat, budget, len(got), len(ref), st)
			}
			if after := storage.LiveSpillFiles(); after != live {
				t.Fatalf("%v budget %d: spill files leaked: %d -> %d", strat, budget, live, after)
			}
		}
	})
}

// TestFuzzSeedForcesDepth2 keeps the fuzz corpus honest: the dedicated seed
// must actually drive the recursion to depth >= 2 (and still succeed).
func TestFuzzSeedForcesDepth2(t *testing.T) {
	dividend, divisor := quickInstance(depth2Seed, 0)
	got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(256), QuotientPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDepth < 2 {
		t.Fatalf("seed only reached depth %d: %+v", st.MaxDepth, st)
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref) {
		t.Fatal("depth-2 seed quotient mismatch")
	}
}

// TestFuzzSeedSplitsBothSides keeps the both-sides seed honest: under
// divisor partitioning at the minimum budget it must split the divisor and
// the candidates within a divisor leaf, and still return the reference.
func TestFuzzSeedSplitsBothSides(t *testing.T) {
	dividend, divisor := quickInstance(bothSidesSeed, 4)
	got, st, err := DivideRecursive(makeSpec(dividend, divisor), budgetEnv(256), DivisorPartitioning, RecursiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DivisorLeaves < 2 || st.MaxQuotientCells < 2 {
		t.Fatalf("seed gave a %dx%d grid, want both sides split: %+v", st.DivisorLeaves, st.MaxQuotientCells, st)
	}
	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 || !EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref) {
		t.Fatalf("both-sides seed quotient %d tuples, reference %d", len(got), len(ref))
	}
}
