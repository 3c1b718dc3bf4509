package division

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// coreRun is everything a core reports about one division.
type coreRun struct {
	quotient []tuple.Tuple
	stats    HashDivisionStats
	counters exec.Counters    // after Release, which charges the tables' probes
	tables   [2]hashtab.Stats // divisor table, quotient table
}

// feedCore divides rk on a fresh core, absorbing the dividend a tuple at a
// time (size 0) or in batches of size rows, which the core hashes into each
// batch's hash vector before probing.
func feedCore(t *testing.T, rk workload.Rekeyed, size int) coreRun {
	t.Helper()
	var run coreRun
	c := NewCore(CompileKeyPlan(rk.DividendSchema, rk.DivisorCols), rk.DivisorSchema, CoreOptions{
		ExpectedDivisor: 4, ExpectedQuotient: 4, HBS: 2, Counters: &run.counters,
	})
	for _, d := range rk.Divisor {
		if err := c.AddDivisor(d); err != nil {
			t.Fatal(err)
		}
	}
	b := exec.NewBatch(rk.DividendSchema, size)
	defer b.Release()
	for lo := 0; lo < len(rk.Dividend); lo += max(size, 1) {
		if size == 0 {
			if _, err := c.Absorb(rk.Dividend[lo]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		b.Reset()
		for _, r := range rk.Dividend[lo:min(lo+size, len(rk.Dividend))] {
			b.Append(r)
		}
		if err := c.AbsorbBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Scan(func(q tuple.Tuple) error {
		run.quotient = append(run.quotient, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	run.tables = [2]hashtab.Stats{c.divisorTable.Stats(), c.quotientTable.Stats()}
	c.Release()
	run.stats = c.Stats()
	return run
}

// TestHashVectorParity: AbsorbBatch, which probes with the hash words the
// key plan computes for a whole batch, makes exactly the probes of
// tuple-at-a-time Absorb: the identical quotient (in the same order),
// HashDivisionStats, exec.Counters and hashtab.Stats, for int, composite
// and CHAR keys, batch sizes 1, 64 and 1024 (the batch's vector is reused
// across batches, the last one shorter). The duplicates cells repeat every
// dividend tuple three times and every divisor tuple twice, so the batch
// loops set bits that are already set and must still charge each set once.
func TestHashVectorParity(t *testing.T) {
	base := workload.Config{
		DivisorTuples: 24, QuotientCandidates: 90, FullFraction: 0.4, MatchFraction: 0.7,
		NoisePerCandidate: 3, Shuffle: true, Seed: 22,
	}
	dup := base
	dup.DuplicateFactor, dup.DivisorDuplicateFactor = 3, 2
	for _, c := range []struct {
		name string
		inst *workload.Instance
	}{
		{"", generate(t, base)},
		{"/duplicates", generate(t, dup)},
	} {
		for _, shape := range keyShapes {
			rk := c.inst.Rekey(shape)
			want, err := Reference(rekeyedSpec(rk))
			if err != nil {
				t.Fatal(err)
			}
			qs := rk.DividendSchema.Project(rk.DividendSchema.Complement(rk.DivisorCols))
			ref := feedCore(t, rk, 0)
			if !EqualTupleSets(qs, ref.quotient, want) {
				t.Fatalf("%s%s: tuple absorb: %d quotient tuples, reference has %d", shape, c.name, len(ref.quotient), len(want))
			}
			for _, size := range []int{1, 64, 1024} {
				t.Run(fmt.Sprintf("%s%s/batch=%d", shape, c.name, size), func(t *testing.T) {
					got := feedCore(t, rk, size)
					if len(got.quotient) != len(ref.quotient) {
						t.Fatalf("%d quotient tuples, tuple absorb has %d", len(got.quotient), len(ref.quotient))
					}
					for i := range got.quotient {
						if string(got.quotient[i]) != string(ref.quotient[i]) {
							t.Fatalf("quotient tuple %d differs from tuple absorb's", i)
						}
					}
					if got.stats != ref.stats || got.counters != ref.counters || got.tables != ref.tables {
						t.Errorf("diverges from tuple absorb:\n got  %+v %+v %+v\n want %+v %+v %+v",
							got.stats, got.counters, got.tables, ref.stats, ref.counters, ref.tables)
					}
				})
			}
		}
	}
}

var hashRowsSink []uint64

// BenchmarkHashRows reports KeyPlan.HashRows' ns per row over one
// cache-resident 1024-row batch of two 8-byte keys, for three key sets: the
// Zipf cell's rows (divload's morsel-zipf and wire-zipf input, whose ids are
// below 2^16 but for 3-byte noise courses), ids of four significant bytes,
// and random 64-bit words, which take all eight FNV-1a steps.
func BenchmarkHashRows(b *testing.B) {
	const rows = 1024
	inst, err := workload.Generate(workload.Config{
		DivisorTuples: 400, QuotientCandidates: 400, FullFraction: 0.5, MatchFraction: 0.8,
		NoisePerCandidate: 5, CourseZipfS: 1.5, Shuffle: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := workload.TranscriptSchema
	rng := rand.New(rand.NewSource(1))
	words := func(word func() uint64) func(int) tuple.Tuple {
		return func(int) tuple.Tuple {
			t := s.New()
			binary.LittleEndian.PutUint64(t[s.Offset(0):], word())
			binary.LittleEndian.PutUint64(t[s.Offset(1):], word())
			return t
		}
	}
	plan := CompileKeyPlan(s, []int{1})
	for _, set := range []struct {
		name string
		row  func(i int) tuple.Tuple
	}{
		{"zipf-cell", func(i int) tuple.Tuple { return inst.Dividend[i] }},
		{"4-byte", words(func() uint64 { return 1<<24 + uint64(rng.Int63n(1<<32-1<<24)) })},
		{"random-64", words(rng.Uint64)},
	} {
		b.Run(set.name, func(b *testing.B) {
			batch := exec.NewBatch(s, rows)
			defer batch.Release()
			for i := 0; i < rows; i++ {
				batch.Append(set.row(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hashRowsSink = plan.HashRows(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
