package division

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/exec"
)

// TestGovernedBudgetCapsSortSpace pins the fix for the budget-bypass defect:
// Env.sortBytes used to ignore the query's governed memory budget and fall
// back to the fixed paper sort space, so a sort-based division admitted with
// a small grant buffered 100 KB anyway.
func TestGovernedBudgetCapsSortSpace(t *testing.T) {
	cases := []struct {
		env  Env
		want int
	}{
		{Env{}, buffer.PaperSortBytes},                               // un-governed: paper default
		{Env{MemoryBudget: 4096}, 4096},                              // grant smaller than default: capped
		{Env{MemoryBudget: 512 * 1024}, buffer.PaperSortBytes},       // grant larger than default: default stands
		{Env{SortBytes: 2048, MemoryBudget: 64 * 1024}, 2048},        // explicit sort space always wins
		{Env{SortBytes: 200 * 1024, MemoryBudget: 4096}, 200 * 1024}, // even over the grant: explicit is explicit
	}
	for i, c := range cases {
		if got := c.env.sortBytes(); got != c.want {
			t.Errorf("case %d: sortBytes() = %d, want %d", i, got, c.want)
		}
	}
}

// TestSplitGrant pins the one grant split the server and the wire workers
// share: a quarter of the grant (at least eight spill pages) buffers spill
// I/O, the rest — at least one byte — bounds the hash tables.
func TestSplitGrant(t *testing.T) {
	cases := []struct {
		grant             int64
		wantPool, wantTab int
	}{
		{1, 8 << 10, 1},
		{8<<10 - 1, 8 << 10, 1},
		{8 << 10, 8 << 10, 1},
		{32 << 10, 8 << 10, 24 << 10},
		{64 << 10, 16 << 10, 48 << 10},
		{1 << 20, 256 << 10, 768 << 10},
	}
	for _, c := range cases {
		pool, tables := SplitGrant(c.grant)
		if pool != c.wantPool || tables != c.wantTab {
			t.Errorf("SplitGrant(%d) = (%d, %d), want (%d, %d)", c.grant, pool, tables, c.wantPool, c.wantTab)
		}
	}
}

// TestSortDivisionWithinGrant runs every sort-using algorithm under a grant
// far below the paper sort space and far below the input size: the quotient
// must stay exact (runs spill instead of overflowing) — the end-to-end half
// of the regression, with exec.Sort's peak tracking covering the footprint.
func TestSortDivisionWithinGrant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	divisor := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	var dividend [][2]int64
	for s := int64(0); s < 400; s++ {
		full := s%3 == 0
		for _, c := range divisor {
			if full || rng.Intn(2) == 0 {
				dividend = append(dividend, [2]int64{s, c})
			}
		}
		// Noise rows with no divisor match.
		dividend = append(dividend, [2]int64{s, 100 + rng.Int63n(50)})
	}

	ref, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	want := quotientIDs(t, makeSpec(dividend, divisor).QuotientSchema(), ref)

	// ~3200+ dividend rows × 16 bytes ≈ 51 KB input; grant 4 KB. AlgSortAgg
	// is excluded: the no-join variant assumes a matching dividend and this
	// input carries noise rows by design.
	for _, alg := range []Algorithm{AlgNaive, AlgSortAggJoin} {
		env := testEnv()
		env.MemoryBudget = 4 * 1024
		op, err := New(alg, makeSpec(dividend, divisor), env)
		if err != nil {
			t.Fatal(err)
		}
		qts, err := exec.Collect(op)
		if err != nil {
			t.Fatalf("%v under 4 KB grant: %v", alg, err)
		}
		got := quotientIDs(t, makeSpec(dividend, divisor).QuotientSchema(), qts)
		if len(got) != len(want) {
			t.Fatalf("%v: %d quotient rows, want %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: quotient[%d] = %d, want %d", alg, i, got[i], want[i])
			}
		}
	}
}
