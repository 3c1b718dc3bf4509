package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/netexchange"
	"repro/internal/obs"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// readInstance adapts in-memory tuple slices to a division.Spec.
func readInstance(dividendSchema *tuple.Schema, dividend []tuple.Tuple,
	divisorSchema *tuple.Schema, divisor []tuple.Tuple, divisorCols []int) division.Spec {
	return division.Spec{
		Dividend:    exec.NewMemScan(dividendSchema, dividend),
		Divisor:     exec.NewMemScan(divisorSchema, divisor),
		DivisorCols: divisorCols,
	}
}

func instanceSpec(inst *workload.Instance) division.Spec {
	return readInstance(workload.TranscriptSchema, inst.Dividend,
		workload.CourseSchema, inst.Divisor, []int{1})
}

func checkAgainstReference(t *testing.T, inst *workload.Instance, res *Result) {
	t.Helper()
	ref, err := division.Reference(instanceSpec(inst))
	if err != nil {
		t.Fatal(err)
	}
	qs := instanceSpec(inst).QuotientSchema()
	if !division.EqualTupleSets(qs, res.Quotient, ref) {
		t.Fatalf("parallel quotient (%d) differs from reference (%d)", len(res.Quotient), len(ref))
	}
}

func testInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      15,
		QuotientCandidates: 80,
		FullFraction:       0.4,
		MatchFraction:      0.7,
		NoisePerCandidate:  2,
		Shuffle:            true,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestQuotientPartitionedCorrect(t *testing.T) {
	inst := testInstance(t, 1)
	for _, workers := range []int{1, 2, 4, 7} {
		res, err := Divide(instanceSpec(inst), Config{
			Workers:  workers,
			Strategy: division.QuotientPartitioning,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkAgainstReference(t, inst, res)
		if len(res.Workers) != workers {
			t.Errorf("workers=%d: %d worker stats", workers, len(res.Workers))
		}
	}
}

func TestDivisorPartitionedCorrect(t *testing.T) {
	inst := testInstance(t, 2)
	for _, workers := range []int{1, 2, 4, 7} {
		res, err := Divide(instanceSpec(inst), Config{
			Workers:  workers,
			Strategy: division.DivisorPartitioning,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkAgainstReference(t, inst, res)
	}
}

func TestBitVectorFilterReducesTraffic(t *testing.T) {
	// Lots of non-matching noise: the filter should drop most of it.
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      10,
		QuotientCandidates: 50,
		FullFraction:       0.5,
		MatchFraction:      0.5,
		NoisePerCandidate:  20,
		Shuffle:            true,
		Seed:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Divide(instanceSpec(inst), Config{
		Workers: 4, Strategy: division.QuotientPartitioning,
	})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Divide(instanceSpec(inst), Config{
		Workers: 4, Strategy: division.QuotientPartitioning, BitVectorFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, plain)
	checkAgainstReference(t, inst, filtered)

	if filtered.Network.TuplesFiltered == 0 {
		t.Error("bit vector filtered nothing on a noisy workload")
	}
	if filtered.Network.BytesShipped >= plain.Network.BytesShipped {
		t.Errorf("filter did not reduce traffic: %d vs %d bytes",
			filtered.Network.BytesShipped, plain.Network.BytesShipped)
	}
}

func TestBitVectorWithDivisorPartitioning(t *testing.T) {
	inst := testInstance(t, 4)
	res, err := Divide(instanceSpec(inst), Config{
		Workers: 3, Strategy: division.DivisorPartitioning, BitVectorFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
}

// TestNetworkAccounting checks the exchange's traffic against the frame
// formula: a frame costs 20 bytes (length prefix, checksum, body header)
// plus its payload. Under quotient partitioning each of the two workers is
// sent the job header (85 bytes for these schemas), the replicated 5-tuple
// divisor in one frame, divisorEnd, its dividend share n_i in
// ceil(n_i/BatchSize) frames and dividendEnd; it returns its quotient share
// q_i in ceil(q_i/BatchSize) frames and a quotientEnd carrying three 8-byte
// counts.
func TestNetworkAccounting(t *testing.T) {
	inst, err := workload.Generate(workload.PaperCase(5, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Divide(instanceSpec(inst), Config{
		Workers: 2, Strategy: division.QuotientPartitioning,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
	// Replication: 2 workers × 5 divisor tuples; dividend: 50 tuples;
	// quotient: 10 tuples shipped back.
	wantTuples := int64(2*5 + 50 + 10)
	if res.Network.TuplesShipped != wantTuples {
		t.Errorf("TuplesShipped = %d, want %d", res.Network.TuplesShipped, wantTuples)
	}
	const frame, jobHeader, stats = 20, 85, 24
	frames := func(n int64) int64 { return (n + exec.DefaultBatchSize - 1) / exec.DefaultBatchSize }
	var wantBytes, wantDividend, dividendSeen, quotientSeen int64
	for i, w := range res.Workers {
		n, q := w.DividendTuples, w.QuotientTuples
		want := netexchange.LinkStats{
			FramesOut:  4 + frames(n),
			FramesIn:   frames(q) + 1,
			RoundTrips: 1,
		}
		want.BytesOut = want.FramesOut*frame + jobHeader + 5*8 + n*16
		want.BytesIn = want.FramesIn*frame + q*8 + stats
		if res.Links[i] != want {
			t.Errorf("link %d: %+v, want %+v", i, res.Links[i], want)
		}
		wantBytes += want.BytesOut + want.BytesIn
		wantDividend += frames(n)*frame + n*16
		dividendSeen += n
		quotientSeen += q
	}
	if res.Network.BytesShipped != wantBytes {
		t.Errorf("BytesShipped = %d, want %d", res.Network.BytesShipped, wantBytes)
	}
	if res.DividendBytes != wantDividend {
		t.Errorf("DividendBytes = %d, want %d", res.DividendBytes, wantDividend)
	}
	if dividendSeen != 50 || quotientSeen != 10 {
		t.Errorf("workers saw %d dividend and %d quotient tuples, want 50 and 10", dividendSeen, quotientSeen)
	}
}

func TestDivisorPartitioningSplitsDivisor(t *testing.T) {
	inst, err := workload.Generate(workload.PaperCase(40, 20, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Divide(instanceSpec(inst), Config{
		Workers: 4, Strategy: division.DivisorPartitioning,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, inst, res)
	var total int64
	replicated := true
	for _, w := range res.Workers {
		total += w.DivisorTuples
		if w.DivisorTuples != 40 {
			replicated = false
		}
	}
	if total != 40 {
		t.Errorf("divisor tuples across workers = %d, want 40 (partitioned, not replicated)", total)
	}
	if replicated {
		t.Error("divisor looks replicated under divisor partitioning")
	}
}

func TestEmptyDivisor(t *testing.T) {
	inst := &workload.Instance{
		Dividend: []tuple.Tuple{workload.TranscriptSchema.MustMake(1, 1)},
	}
	for _, s := range []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning} {
		res, err := Divide(instanceSpec(inst), Config{Workers: 3, Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Quotient) != 0 {
			t.Errorf("%v: empty divisor produced %d tuples", s, len(res.Quotient))
		}
	}
}

// TestInvalidConfig runs one table of malformed configurations through
// both entry points: parallel.Divide over pipes, and netexchange.Divide over
// loopback TCP for the fields the two share. Each fails with a *ConfigError
// naming its field before anything runs — no silent clamping, no panic, no
// oversized allocation — while every value in use stays valid.
func TestInvalidConfig(t *testing.T) {
	inst := testInstance(t, 7)
	cl, err := netexchange.StartLocalCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	check := func(entry, field string, err error) {
		t.Helper()
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s %s: got %v, want *ConfigError", entry, field, err)
			return
		}
		if cerr.Field != field || !strings.Contains(cerr.Error(), field) {
			t.Errorf("%s: ConfigError %q, want one naming field %s", entry, cerr, field)
		}
	}
	q := division.QuotientPartitioning
	cases := []struct {
		field  string
		cfg    Config
		shared bool // a field netexchange.Config has too
	}{
		{"Workers", Config{Workers: 0, Strategy: q}, false},
		{"Workers", Config{Workers: -3, Strategy: q}, false},
		{"Strategy", Config{Workers: 2, Strategy: division.PartitionStrategy(9)}, true},
		{"BatchSize", Config{Workers: 2, Strategy: q, BatchSize: -8}, true},
		{"BatchSize", Config{Workers: 2, Strategy: q, BatchSize: 1 << 30}, true},
		{"MorselTuples", Config{Workers: 2, Strategy: q, MorselTuples: -1}, true},
	}
	for _, c := range cases {
		_, err := Divide(instanceSpec(inst), c.cfg)
		check("parallel", c.field, err)
		if c.shared {
			_, err := netexchange.Divide(context.Background(), instanceSpec(inst), c.cfg.exchange(), cl.Conns())
			check("netexchange", c.field, err)
		}
	}
	_, err = netexchange.Divide(context.Background(), instanceSpec(inst),
		netexchange.Config{WorkerBudget: -1}, cl.Conns())
	check("netexchange", "WorkerBudget", err)

	// Zero tunables are still defaults, and every value in use is valid.
	valid := []Config{{}, {BatchSize: 16}, {BatchSize: 1024}}
	for _, cfg := range valid {
		cfg.Workers, cfg.Strategy = 2, q
		res, err := Divide(instanceSpec(inst), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkAgainstReference(t, inst, res)
		res, err = netexchange.Divide(context.Background(), instanceSpec(inst), cfg.exchange(), cl.Conns())
		if err != nil {
			t.Fatalf("netexchange %+v: %v", cfg, err)
		}
		checkAgainstReference(t, inst, res)
	}
}

// TestValidateRejectsWorkersPastWireLimit: a job header carries the worker
// count in 16 bits, so Validate rejects a count past netexchange.MaxWorkers
// with a *ConfigError naming Workers, and Divide, which validates first,
// never starts a pipe or goroutine for them; MaxWorkers itself is valid.
// Only Validate runs here: dividing with that many workers would start them.
func TestValidateRejectsWorkersPastWireLimit(t *testing.T) {
	ds := workload.TranscriptSchema
	err := Config{Workers: 1 << 16, Strategy: division.QuotientPartitioning}.Validate(ds)
	var cerr *ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "Workers" {
		t.Fatalf("Validate with 1<<16 workers = %v, want a *ConfigError naming Workers", err)
	}
	if err := (Config{Workers: netexchange.MaxWorkers, Strategy: division.QuotientPartitioning}).Validate(ds); err != nil {
		t.Errorf("Validate with MaxWorkers workers = %v", err)
	}
}

// Property: both strategies equal the serial reference for arbitrary small
// instances and worker counts.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(raw []byte, nDivisorRaw, workersRaw uint8) bool {
		nDivisor := int(nDivisorRaw%4) + 1
		workers := int(workersRaw%6) + 1
		divisor := make([]tuple.Tuple, nDivisor)
		for i := range divisor {
			divisor[i] = workload.CourseSchema.MustMake(int64(i))
		}
		dividend := make([]tuple.Tuple, 0, len(raw))
		for _, b := range raw {
			dividend = append(dividend,
				workload.TranscriptSchema.MustMake(int64(b>>4), int64(b&0x0f)))
		}
		sp := readInstance(workload.TranscriptSchema, dividend, workload.CourseSchema, divisor, []int{1})
		ref, err := division.Reference(sp)
		if err != nil {
			return false
		}
		qs := sp.QuotientSchema()
		for _, s := range []division.PartitionStrategy{division.QuotientPartitioning, division.DivisorPartitioning} {
			res, err := Divide(sp, Config{Workers: workers, Strategy: s})
			if err != nil {
				return false
			}
			if !division.EqualTupleSets(qs, res.Quotient, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSkewUnbalancesDivisorPartitioning demonstrates the §6 load-balance
// hazard: under Zipf-skewed course popularity, divisor partitioning routes a
// disproportionate share of the dividend to the worker owning the popular
// courses, while quotient partitioning stays balanced (students are
// uniform).
func TestSkewUnbalancesDivisorPartitioning(t *testing.T) {
	// Few courses relative to workers make the hazard visible: each worker
	// owns ~2 of the 8 courses, and Zipf popularity concentrates the
	// dividend on whoever owns the top course.
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      8,
		QuotientCandidates: 600,
		FullFraction:       0,
		MatchFraction:      0.3,
		CourseZipfS:        2.2,
		Shuffle:            true,
		Seed:               8,
	})
	if err != nil {
		t.Fatal(err)
	}
	imbalance := func(strategy division.PartitionStrategy) float64 {
		res, err := Divide(instanceSpec(inst), Config{Workers: 4, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		var max, total int64
		for _, w := range res.Workers {
			total += w.DividendTuples
			if w.DividendTuples > max {
				max = w.DividendTuples
			}
		}
		if total == 0 {
			t.Fatal("no tuples shipped")
		}
		return float64(max) * 4 / float64(total) // 1.0 = perfectly balanced
	}
	q := imbalance(division.QuotientPartitioning)
	d := imbalance(division.DivisorPartitioning)
	if q > 1.25 {
		t.Errorf("quotient partitioning imbalance %.2f; students are uniform, expected near 1", q)
	}
	if d < q*1.3 {
		t.Errorf("divisor partitioning imbalance %.2f not clearly worse than quotient %.2f under skew", d, q)
	}
}

func BenchmarkParallelSpeedup(b *testing.B) {
	inst, err := workload.Generate(workload.PaperCase(100, 400, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Divide(instanceSpec(inst), Config{
					Workers: workers, Strategy: division.QuotientPartitioning,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return fmt.Sprintf("workers=%d", workers)
}

// TestConcurrentDivisions runs several divisions at once under both
// strategies; with -race this proves divisions share no unguarded state.
func TestConcurrentDivisions(t *testing.T) {
	inst := testInstance(t, 21)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		strategy := division.QuotientPartitioning
		if i%2 == 1 {
			strategy = division.DivisorPartitioning
		}
		wg.Add(1)
		go func(strategy division.PartitionStrategy) {
			defer wg.Done()
			res, err := Divide(instanceSpec(inst), Config{
				Workers:  3,
				Strategy: strategy,
			})
			if err != nil {
				t.Error(err)
				return
			}
			checkAgainstReference(t, inst, res)
		}(strategy)
	}
	wg.Wait()
}

// TestTraceCollectsWorkerSpans checks the per-worker span tree a traced
// parallel division produces.
func TestTraceCollectsWorkerSpans(t *testing.T) {
	inst := testInstance(t, 22)
	tr := obs.NewTracer()
	res, err := Divide(instanceSpec(inst), Config{
		Workers:  3,
		Strategy: division.QuotientPartitioning,
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
			t.Errorf("%s ran %d times", w.Name(), w.Opens())
		}
		rows += w.Rows()
	}
	if rows != int64(len(res.Quotient)) {
		t.Errorf("worker spans account for %d rows, quotient has %d", rows, len(res.Quotient))
	}
}
