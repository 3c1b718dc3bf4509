package parallel

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// opaqueSpec hides the dividend's Splittable interface, forcing the morsel
// paths onto their fallback reader.
func opaqueSpec(inst *workload.Instance) division.Spec {
	sp := instanceSpec(inst)
	sp.Dividend = exec.Opaque(sp.Dividend)
	return sp
}

// TestMorselPathMatchesReference runs the morsel data path across strategies,
// worker counts, and both dividend shapes (splittable memory scan and an
// opaque source that exercises the fallback reader), with a tiny morsel grain
// so the work queue actually cycles.
func TestMorselPathMatchesReference(t *testing.T) {
	inst := testInstance(t, 31)
	specs := map[string]func() division.Spec{
		"splittable": func() division.Spec { return instanceSpec(inst) },
		"fallback":   func() division.Spec { return opaqueSpec(inst) },
	}
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		for name, spec := range specs {
			for _, workers := range []int{1, 2, 4, 7} {
				res, err := Divide(spec(), Config{
					Workers:      workers,
					Strategy:     strategy,
					Path:         PathMorsel,
					MorselTuples: 64,
					BatchSize:    16,
				})
				if err != nil {
					t.Fatalf("%v/%s workers=%d: %v", strategy, name, workers, err)
				}
				checkAgainstReference(t, inst, res)
			}
		}
	}
}

// heapSpec materializes the instance's dividend into a pool-backed heap
// file, so the shuffle splits it into page-range morsels.
func heapSpec(t *testing.T, inst *workload.Instance) division.Spec {
	t.Helper()
	pool := buffer.New(64 * disk.PaperPageSize)
	f := storage.NewFile(pool, disk.NewDevice("heap", disk.PaperPageSize), workload.TranscriptSchema, "dividend")
	ap := f.NewAppender()
	for _, tp := range inst.Dividend {
		if _, err := ap.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	sp := instanceSpec(inst)
	sp.Dividend = exec.NewTableScan(f, false)
	return sp
}

// duplicateHeavyInstance builds a dividend where every tuple occurs several
// times and candidates overlap across morsels — maximal contention on the
// shared table's CAS chains and atomic bits. Run with -race.
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

// TestSharedTablePathMatchesReference stresses PathSharedTable on
// duplicate-heavy dividends across worker counts, asserting exact quotient
// parity, zero interconnect traffic, and per-worker accounting that sums to
// the whole dividend and quotient.
func TestSharedTablePathMatchesReference(t *testing.T) {
	for seed := int64(41); seed <= 43; seed++ {
		inst := duplicateHeavyInstance(t, seed)
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := Divide(instanceSpec(inst), Config{
				Workers:  workers,
				Strategy: division.QuotientPartitioning,
				Path:     PathSharedTable,
				// Tiny grain and undersized table: force queue cycling and
				// long CAS chains.
				MorselTuples:     64,
				ExpectedQuotient: 8,
			})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			checkAgainstReference(t, inst, res)
			if res.Network != (NetworkStats{}) {
				t.Errorf("shared-table path reported network traffic: %+v", res.Network)
			}
			var dividend, quotient int64
			for _, w := range res.Workers {
				dividend += w.DividendTuples
				quotient += w.QuotientTuples
			}
			if dividend != int64(len(inst.Dividend)) {
				t.Errorf("seed=%d workers=%d: workers absorbed %d dividend tuples, want %d",
					seed, workers, dividend, len(inst.Dividend))
			}
			if quotient != int64(len(res.Quotient)) {
				t.Errorf("seed=%d workers=%d: worker quotient stats sum to %d, result has %d",
					seed, workers, quotient, len(res.Quotient))
			}
		}
	}
}

// TestSharedTableFallbackSource runs PathSharedTable over a non-splittable
// dividend (fallback reader feeding owned batches).
func TestSharedTableFallbackSource(t *testing.T) {
	inst := duplicateHeavyInstance(t, 44)
	res, err := Divide(opaqueSpec(inst), Config{
		Workers:      4,
		Strategy:     division.QuotientPartitioning,
		Path:         PathSharedTable,
		MorselTuples: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
}

// TestSharedTableObservability checks the shared-table path keeps the same
// span-tree shape as the exchange paths: a strategy span whose only
// children are the worker spans (opens=1 each, rows summing to the
// quotient).
func TestSharedTableObservability(t *testing.T) {
	inst := testInstance(t, 45)
	tr := obs.NewTracer()
	res, err := Divide(instanceSpec(inst), Config{
		Workers:  3,
		Strategy: division.QuotientPartitioning,
		Path:     PathSharedTable,
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "parallel quotient-partitioning" {
		t.Fatalf("root children = %v", kids)
	}
	workers := kids[0].Children()
	if len(workers) != 3 {
		t.Fatalf("got %d worker spans", len(workers))
	}
	var rows int64
	for _, w := range workers {
		if w.Opens() != 1 {
			t.Errorf("%s recorded %d opens", w.Name(), w.Opens())
		}
		rows += w.Rows()
	}
	if rows != int64(len(res.Quotient)) {
		t.Errorf("worker spans account for %d rows, quotient has %d", rows, len(res.Quotient))
	}
}

// TestSharedTableEmptyDividend covers the zero-morsel edge: a splittable but
// empty dividend must yield an empty quotient without deadlock.
func TestSharedTableEmptyDividend(t *testing.T) {
	inst := testInstance(t, 46)
	sp := instanceSpec(inst)
	sp.Dividend = exec.NewMemScan(workload.TranscriptSchema, nil)
	res, err := Divide(sp, Config{
		Workers:  4,
		Strategy: division.QuotientPartitioning,
		Path:     PathSharedTable,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quotient) != 0 {
		t.Errorf("empty dividend produced %d quotient tuples", len(res.Quotient))
	}
}
