package division

import (
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func sharedSpec(inst *workload.Instance) Spec {
	return Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

func sharedInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:          12,
		QuotientCandidates:     90,
		FullFraction:           0.4,
		MatchFraction:          0.6,
		NoisePerCandidate:      3,
		DuplicateFactor:        3, // duplicate-heavy: every tuple absorbed 3×
		DivisorDuplicateFactor: 2,
		Shuffle:                true,
		Seed:                   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// distinctDivisor collects the distinct divisor tuples the way the parallel
// coordinator does.
func distinctDivisor(t *testing.T, sp Spec) []tuple.Tuple {
	t.Helper()
	seen := map[string]bool{}
	var out []tuple.Tuple
	err := exec.ForEach(sp.Divisor, func(tp tuple.Tuple) error {
		if !seen[string(tp)] {
			seen[string(tp)] = true
			out = append(out, tp.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func scanAll(t *testing.T, st *SharedTable) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if err := st.ScanBuckets(0, st.NumBuckets(), func(tp tuple.Tuple) error {
		out = append(out, tp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSharedTableSerialMatchesReference(t *testing.T) {
	inst := sharedInstance(t, 11)
	sp := sharedSpec(inst)
	ref, err := Reference(sp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSharedTable(sp, distinctDivisor(t, sp), 64)
	if err != nil {
		t.Fatal(err)
	}
	var stats SharedStats
	for _, tp := range inst.Dividend {
		st.Absorb(tp, &stats)
	}
	got := scanAll(t, st)
	if !EqualTupleSets(sp.QuotientSchema(), got, ref) {
		t.Fatalf("shared table quotient (%d) differs from reference (%d)", len(got), len(ref))
	}
	if stats.Dividend != int64(len(inst.Dividend)) {
		t.Errorf("absorbed %d tuples, want %d", stats.Dividend, len(inst.Dividend))
	}
	if stats.Table.Hashes == 0 || stats.Table.Comparisons == 0 {
		t.Errorf("stats not accumulated: %+v", stats)
	}
}

// TestSharedTableConcurrentParity absorbs a duplicate-heavy dividend from
// many goroutines (overlapping candidates, so CAS races and atomic bit sets
// actually contend) and demands the exact serial quotient. Run with -race.
func TestSharedTableConcurrentParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inst := sharedInstance(t, seed)
		sp := sharedSpec(inst)
		ref, err := Reference(sp)
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately undersized buckets: long chains mean racing inserts
		// collide on the same chain constantly.
		st, err := NewSharedTable(sp, distinctDivisor(t, sp), 8)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		stats := make([]SharedStats, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Strided assignment: every goroutine sees every candidate.
				for i := g; i < len(inst.Dividend); i += goroutines {
					st.Absorb(inst.Dividend[i], &stats[g])
				}
			}(g)
		}
		wg.Wait()
		got := scanAll(t, st)
		if !EqualTupleSets(sp.QuotientSchema(), got, ref) {
			t.Fatalf("seed %d: concurrent quotient (%d) differs from reference (%d)",
				seed, len(got), len(ref))
		}
		var absorbed, created int64
		for _, s := range stats {
			absorbed += s.Dividend
			created += s.Candidates
		}
		if absorbed != int64(len(inst.Dividend)) {
			t.Errorf("seed %d: absorbed %d, want %d", seed, absorbed, len(inst.Dividend))
		}
		// Exactly one goroutine wins each candidate's publishing CAS.
		if created != int64(countCandidates(st)) {
			t.Errorf("seed %d: %d creations reported, table holds %d candidates",
				seed, created, countCandidates(st))
		}
	}
}

// countCandidates walks every chain (complete or not).
func countCandidates(st *SharedTable) int {
	n := 0
	for i := 0; i < len(st.buckets); i++ {
		for e := st.buckets[i].Load(); e != nil; e = e.next {
			n++
		}
	}
	return n
}

// TestSharedTableGenericKernels drives the non-fastU64 path: a three-column
// dividend with a two-column quotient projection.
func TestSharedTableGenericKernels(t *testing.T) {
	ds := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"), tuple.Int64Field("s"))
	ss := tuple.NewSchema(tuple.Int64Field("s"))
	var dividend []tuple.Tuple
	for a := int64(0); a < 6; a++ {
		for b := int64(0); b < 4; b++ {
			for s := int64(0); s < 3; s++ {
				if (a+b)%2 == 0 && s == 2 {
					continue // these candidates miss divisor tuple 2
				}
				dividend = append(dividend, ds.MustMake(a, b, s))
			}
		}
	}
	divisor := []tuple.Tuple{ss.MustMake(0), ss.MustMake(1), ss.MustMake(2)}
	sp := Spec{
		Dividend:    exec.NewMemScan(ds, dividend),
		Divisor:     exec.NewMemScan(ss, divisor),
		DivisorCols: []int{2},
	}
	ref, err := Reference(sp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSharedTable(sp, divisor, 0) // default bucket count
	if err != nil {
		t.Fatal(err)
	}
	if st.plan.fastU64 {
		t.Fatal("two-column quotient took the fastU64 kernel")
	}
	var wg sync.WaitGroup
	stats := make([]SharedStats, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(dividend); i += 4 {
				st.Absorb(dividend[i], &stats[g])
			}
		}(g)
	}
	wg.Wait()
	got := scanAll(t, st)
	if !EqualTupleSets(sp.QuotientSchema(), got, ref) {
		t.Fatalf("generic-kernel quotient (%d) differs from reference (%d)", len(got), len(ref))
	}
}

func TestSharedTableEmptyDivisor(t *testing.T) {
	inst := sharedInstance(t, 5)
	sp := sharedSpec(inst)
	sp.Divisor = exec.NewMemScan(workload.CourseSchema, nil)
	st, err := NewSharedTable(sp, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.DivisorCount() != 0 {
		t.Fatalf("DivisorCount = %d", st.DivisorCount())
	}
}

func TestSharedTableRejectsInvalidSpec(t *testing.T) {
	sp := sharedSpec(sharedInstance(t, 6))
	sp.DivisorCols = nil
	if _, err := NewSharedTable(sp, nil, 16); err == nil {
		t.Error("invalid spec accepted")
	}
}
