package division

import (
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// keyShapes are the layouts that select each kernel branch of the core:
// word probes for IntKey, compiled closures for the others.
var keyShapes = []workload.KeyShape{workload.IntKey, workload.CompositeKey, workload.CharKey}

func rekeyedSpec(rk workload.Rekeyed) Spec {
	return Spec{
		Dividend:    exec.NewMemScan(rk.DividendSchema, rk.Dividend),
		Divisor:     exec.NewMemScan(rk.DivisorSchema, rk.Divisor),
		DivisorCols: rk.DivisorCols,
	}
}

// runCore divides rk on a fresh core, absorbing the dividend in batches of
// 64 tuples (or one tuple at a time), and returns the quotient and the core.
func runCore(t *testing.T, rk workload.Rekeyed, opts CoreOptions, batched bool) ([]tuple.Tuple, *Core, error) {
	t.Helper()
	c := NewCore(CompileKeyPlan(rk.DividendSchema, rk.DivisorCols), rk.DivisorSchema, opts)
	if got, want := c.plan.fastU64, len(rk.DivisorCols) == 1 && rk.DividendSchema.Width() == 16; got != want {
		t.Fatalf("fastU64 = %v for a %d-byte dividend keyed on %v", got, rk.DividendSchema.Width(), rk.DivisorCols)
	}
	for _, d := range rk.Divisor {
		if err := c.AddDivisor(d); err != nil {
			return nil, c, err
		}
	}
	b := exec.NewBatch(rk.DividendSchema, 64)
	defer b.Release()
	for i := 0; i < len(rk.Dividend); {
		if !batched {
			if _, err := c.Absorb(rk.Dividend[i]); err != nil {
				return nil, c, err
			}
			i++
			continue
		}
		b.Reset()
		for ; i < len(rk.Dividend) && !b.Full(); i++ {
			b.Append(rk.Dividend[i])
		}
		if err := c.AbsorbBatch(b); err != nil {
			return nil, c, err
		}
	}
	var q []tuple.Tuple
	err := c.Scan(func(t tuple.Tuple) error {
		q = append(q, t)
		return nil
	})
	return q, c, err
}

// checkCore runs rk through the core on both input paths and requires the
// reference quotient and identical statistics.
func checkCore(t *testing.T, rk workload.Rekeyed) HashDivisionStats {
	t.Helper()
	sp := rekeyedSpec(rk)
	want, err := Reference(sp)
	if err != nil {
		t.Fatal(err)
	}
	var stats [2]HashDivisionStats
	for i, batched := range []bool{true, false} {
		q, c, err := runCore(t, rk, CoreOptions{ExpectedDivisor: 8, ExpectedQuotient: 8, HBS: 2}, batched)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualTupleSets(sp.QuotientSchema(), q, want) {
			t.Fatalf("batched=%v: quotient of %d tuples, reference has %d", batched, len(q), len(want))
		}
		stats[i] = c.Stats()
	}
	if stats[0] != stats[1] {
		t.Errorf("stats diverge:\n batch %+v\n tuple %+v", stats[0], stats[1])
	}
	return stats[0]
}

func generate(t *testing.T, cfg workload.Config) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCoreEmptyDivisor(t *testing.T) {
	inst := generate(t, workload.PaperCase(5, 10, 1))
	inst.Divisor = nil
	for _, shape := range keyShapes {
		t.Run(shape.String(), func(t *testing.T) {
			st := checkCore(t, inst.Rekey(shape))
			if st.QuotientTuples != 0 || st.Candidates != 0 {
				t.Errorf("empty divisor: %+v", st)
			}
			if st.DiscardedNoMatch != int64(len(inst.Dividend)) {
				t.Errorf("discarded %d of %d dividend tuples", st.DiscardedNoMatch, len(inst.Dividend))
			}
		})
	}
}

func TestCoreSingletonDivisor(t *testing.T) {
	inst := generate(t, workload.Config{
		DivisorTuples: 1, QuotientCandidates: 30, FullFraction: 0.5, MatchFraction: 0.5,
		NoisePerCandidate: 2, Shuffle: true, Seed: 2,
	})
	for _, shape := range keyShapes {
		t.Run(shape.String(), func(t *testing.T) {
			st := checkCore(t, inst.Rekey(shape))
			if st.DivisorDistinct != 1 || st.QuotientTuples != int64(len(inst.QuotientIDs)) {
				t.Errorf("singleton divisor: %+v, want 1 divisor and %d quotient tuples", st, len(inst.QuotientIDs))
			}
		})
	}
}

func TestCoreDuplicateHeavy(t *testing.T) {
	inst := generate(t, workload.Config{
		DivisorTuples: 12, QuotientCandidates: 40, FullFraction: 0.4, MatchFraction: 0.6,
		NoisePerCandidate: 1, DuplicateFactor: 5, DivisorDuplicateFactor: 3, Shuffle: true, Seed: 3,
	})
	for _, shape := range keyShapes {
		t.Run(shape.String(), func(t *testing.T) {
			st := checkCore(t, inst.Rekey(shape))
			if st.DivisorTuples != 36 || st.DivisorDistinct != 12 {
				t.Errorf("divisor %d read, %d distinct; want 36 and 12", st.DivisorTuples, st.DivisorDistinct)
			}
			if st.QuotientTuples != int64(len(inst.QuotientIDs)) {
				t.Errorf("%d quotient tuples, want %d", st.QuotientTuples, len(inst.QuotientIDs))
			}
		})
	}
}

// TestCoreDivisorValuesAbsent adds divisor values no student took: nobody
// completes, though every candidate is created.
func TestCoreDivisorValuesAbsent(t *testing.T) {
	inst := generate(t, workload.Config{
		DivisorTuples: 6, QuotientCandidates: 25, FullFraction: 1, Shuffle: true, Seed: 4,
	})
	for _, c := range []int64{5000, 5001} {
		inst.Divisor = append(inst.Divisor, workload.CourseSchema.MustMake(c))
	}
	for _, shape := range keyShapes {
		t.Run(shape.String(), func(t *testing.T) {
			rk := inst.Rekey(shape)
			st := checkCore(t, rk)
			if st.QuotientTuples != 0 || st.Candidates != 25 {
				t.Errorf("absent divisor values: %+v, want 25 candidates and no quotient", st)
			}
		})
	}
}

// TestCoreMemoryBudget checks the budget against MemBytes: a budget the
// divisor table alone exceeds fails step 1, one the candidates exceed fails
// step 2, and each failure leaves MemBytes above the budget and within the
// recorded peak. At the error, batch and tuple absorb report identical
// statistics and counters: a batch counts only the tuples up to the one
// that overflowed.
func TestCoreMemoryBudget(t *testing.T) {
	inst := generate(t, workload.PaperCase(20, 200, 5))
	for _, shape := range keyShapes {
		t.Run(shape.String(), func(t *testing.T) {
			rk := inst.Rekey(shape)
			_, full, err := runCore(t, rk, CoreOptions{HBS: 2}, true)
			if err != nil {
				t.Fatal(err)
			}
			peak := full.Stats().PeakTableBytes
			if peak <= 0 || full.MemBytes() < peak/2 {
				t.Fatalf("unbudgeted run: peak %d, final MemBytes %d", peak, full.MemBytes())
			}
			for _, budget := range []int{64, peak / 2} {
				type outcome struct {
					st HashDivisionStats
					c  exec.Counters
				}
				var at [2]outcome
				for i, batched := range []bool{true, false} {
					var ctr exec.Counters
					_, c, err := runCore(t, rk, CoreOptions{
						MemoryBudget: budget, HBS: 2, Counters: &ctr,
					}, batched)
					if !errors.Is(err, ErrMemoryBudget) {
						t.Fatalf("budget %d batched=%v: err = %v, want ErrMemoryBudget", budget, batched, err)
					}
					if m := c.MemBytes(); m <= budget || m > c.Stats().PeakTableBytes {
						t.Errorf("budget %d batched=%v: MemBytes %d, peak %d", budget, batched, m, c.Stats().PeakTableBytes)
					}
					if absorbed := c.Stats().DividendTuples; (budget == 64) != (absorbed == 0) {
						t.Errorf("budget %d: failed after %d dividend tuples", budget, absorbed)
					}
					c.Release()
					at[i] = outcome{c.Stats(), ctr}
				}
				if at[0] != at[1] {
					t.Errorf("budget %d: batch and tuple absorb diverge at the error:\n batch %+v\n tuple %+v", budget, at[0], at[1])
				}
			}
		})
	}
}
