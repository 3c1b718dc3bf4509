package parallel

import (
	"fmt"
	"testing"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/workload"
)

// opaqueSpec hides the dividend's Splittable interface, forcing the shuffle
// onto its fallback reader.
func opaqueSpec(inst *workload.Instance) division.Spec {
	sp := instanceSpec(inst)
	sp.Dividend = exec.Opaque(sp.Dividend)
	return sp
}

// duplicateHeavyInstance builds a dividend where every tuple occurs four
// times and every divisor tuple twice, so candidates recur across morsels
// and workers set the same bits again.
func duplicateHeavyInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:          10,
		QuotientCandidates:     120,
		FullFraction:           0.5,
		MatchFraction:          0.6,
		NoisePerCandidate:      2,
		DuplicateFactor:        4,
		DivisorDuplicateFactor: 2,
		Shuffle:                true,
		Seed:                   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestMorselPathMatchesReference runs the in-process exchange across
// strategies, worker counts and dividends: a splittable memory scan, an
// opaque source that exercises the fallback reader, duplicate-heavy
// instances (seeds 41–43 splittable, 44 opaque) and an empty splittable
// dividend, with a tiny morsel grain so the work queue actually cycles.
// Under quotient partitioning each dividend tuple reaches one worker and
// each quotient tuple comes from one, so the workers' stats sum to |R| and
// |Q|. Each cell is a subtest named strategy/dividend/workers, so one
// failing cell does not hide the rest.
func TestMorselPathMatchesReference(t *testing.T) {
	inst := testInstance(t, 31)
	type input struct {
		name string
		inst *workload.Instance
		spec func(*workload.Instance) division.Spec
	}
	inputs := []input{
		{"splittable", inst, instanceSpec},
		{"fallback", inst, opaqueSpec},
		{"empty", &workload.Instance{Divisor: inst.Divisor}, instanceSpec},
	}
	for seed := int64(41); seed <= 44; seed++ {
		in := input{fmt.Sprintf("duplicates-%d", seed), duplicateHeavyInstance(t, seed), instanceSpec}
		if seed == 44 {
			in.spec = opaqueSpec
		}
		inputs = append(inputs, in)
	}
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		for _, in := range inputs {
			for _, workers := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("%v/%s/workers=%d", strategy, in.name, workers), func(t *testing.T) {
					res, err := Divide(in.spec(in.inst), Config{
						Workers:      workers,
						Strategy:     strategy,
						MorselTuples: 64,
						BatchSize:    16,
					})
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, in.inst, res)
					if strategy != division.QuotientPartitioning {
						return
					}
					var dividend, quotient int64
					for _, w := range res.Workers {
						dividend += w.DividendTuples
						quotient += w.QuotientTuples
					}
					if dividend != int64(len(in.inst.Dividend)) || quotient != int64(len(res.Quotient)) {
						t.Errorf("workers absorbed %d dividend and produced %d quotient tuples, want %d and %d",
							dividend, quotient, len(in.inst.Dividend), len(res.Quotient))
					}
				})
			}
		}
	}
}
