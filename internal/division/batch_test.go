package division

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// instSpec builds a fresh Spec over an instance's relations. Operators are
// single-use, so every run gets its own.
func instSpec(inst *workload.Instance) Spec {
	return Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

// runMode executes alg over inst with the dividend and divisor presented
// through one of three protocol surfaces: the native batch path ("batch"),
// the tuple path forced by hiding NextBatch ("tuple"), or a Lift/Lower
// roundtrip that funnels tuples through batch adapters ("roundtrip").
func runMode(t *testing.T, alg Algorithm, inst *workload.Instance, mode string, batchSize int) ([]int64, exec.Counters) {
	t.Helper()
	sp := instSpec(inst)
	switch mode {
	case "batch":
	case "tuple":
		sp.Dividend = exec.Opaque(sp.Dividend)
		sp.Divisor = exec.Opaque(sp.Divisor)
	case "roundtrip":
		sp.Dividend = exec.Lower(exec.Lift(sp.Dividend), batchSize)
		sp.Divisor = exec.Lower(exec.Lift(sp.Divisor), batchSize)
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	var c exec.Counters
	env := testEnv()
	env.Counters = &c
	env.BatchSize = batchSize
	qts, err := Run(alg, sp, env)
	if err != nil {
		t.Fatalf("%v/%s: %v", alg, mode, err)
	}
	return quotientIDs(t, sp.QuotientSchema(), qts), c
}

func randomConfig(rng *rand.Rand) workload.Config {
	cfg := workload.Config{
		DivisorTuples:          1 + rng.Intn(30),
		QuotientCandidates:     1 + rng.Intn(50),
		FullFraction:           rng.Float64(),
		MatchFraction:          rng.Float64(),
		DuplicateFactor:        1 + rng.Intn(3),
		DivisorDuplicateFactor: 1 + rng.Intn(2),
		Shuffle:                true,
		Seed:                   rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.NoisePerCandidate = rng.Intn(4)
	}
	return cfg
}

// TestBatchTuplePathEquivalence is the PR's central property: for every
// algorithm, presenting the inputs through the batch protocol, the tuple
// protocol, or a Lift/Lower roundtrip yields the identical quotient AND
// byte-identical Counters on randomized workloads. Counter parity is the
// strong claim — it proves the batch kernels perform exactly the probe
// sequence the tuple path performs, just faster.
func TestBatchTuplePathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 6; trial++ {
		cfg := randomConfig(rng)
		inst, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(instSpec(inst))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := quotientIDs(t, instSpec(inst).QuotientSchema(), want)

		for _, alg := range Algorithms {
			if alg.AssumesMatchingDividend() && cfg.NoisePerCandidate > 0 {
				continue // precondition violated; quotient undefined
			}
			batchIDs, batchC := runMode(t, alg, inst, "batch", 0)
			tupleIDs, tupleC := runMode(t, alg, inst, "tuple", 0)
			rtIDs, rtC := runMode(t, alg, inst, "roundtrip", 64)

			if !equalIDs(batchIDs, wantIDs) {
				t.Errorf("trial %d %v batch: quotient %v, want %v", trial, alg, batchIDs, wantIDs)
			}
			if !equalIDs(tupleIDs, batchIDs) || !equalIDs(rtIDs, batchIDs) {
				t.Errorf("trial %d %v: quotients diverged batch=%v tuple=%v roundtrip=%v",
					trial, alg, batchIDs, tupleIDs, rtIDs)
			}
			if batchC != tupleC {
				t.Errorf("trial %d %v: Counters diverged\n batch: %+v\n tuple: %+v", trial, alg, batchC, tupleC)
			}
			if batchC != rtC {
				t.Errorf("trial %d %v: Counters diverged\n batch:     %+v\n roundtrip: %+v", trial, alg, batchC, rtC)
			}
		}
	}
}

// TestBatchSizeInvariance: the quotient and Counters cannot depend on how
// the dividend stream is chopped into batches.
func TestBatchSizeInvariance(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      20,
		QuotientCandidates: 40,
		FullFraction:       0.5,
		MatchFraction:      0.3,
		NoisePerCandidate:  2,
		DuplicateFactor:    2,
		Shuffle:            true,
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseIDs, baseC := runMode(t, AlgHashDivision, inst, "batch", 64)
	for _, bs := range []int{1, 256, 1024} {
		ids, c := runMode(t, AlgHashDivision, inst, "batch", bs)
		if !equalIDs(ids, baseIDs) {
			t.Errorf("batch size %d: quotient %v, want %v", bs, ids, baseIDs)
		}
		if c != baseC {
			t.Errorf("batch size %d: Counters %+v, want %+v", bs, c, baseC)
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchScanFaultInjection: a fault-injecting scan on the batch path
// fires after exactly FailAfter tuples, same as on the tuple path, and the
// error surfaces out of the division operator.
func TestBatchScanFaultInjection(t *testing.T) {
	inst, err := workload.Generate(workload.PaperCase(10, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := len(inst.Dividend)

	run := func(failAfter int, forceTuple bool) error {
		sp := instSpec(inst)
		var scan exec.Operator = exec.NewMemScan(workload.TranscriptSchema, inst.Dividend)
		if forceTuple {
			scan = exec.Opaque(scan)
		}
		sp.Dividend = faultinject.NewScan(scan, failAfter)
		_, err := Run(AlgHashDivision, sp, testEnv())
		return err
	}

	for _, forceTuple := range []bool{false, true} {
		if err := run(n/2, forceTuple); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("forceTuple=%v: fault at %d/%d tuples: err = %v, want ErrInjected",
				forceTuple, n/2, n, err)
		}
		if err := run(n+1, forceTuple); err != nil {
			t.Errorf("forceTuple=%v: fault beyond input: %v", forceTuple, err)
		}
	}
}

// cancelAfterBatch is a batch-native dividend that cancels its context once
// it has handed out its first batch.
type cancelAfterBatch struct {
	*exec.MemScan
	cancel  context.CancelFunc
	batches int
	tuples  int
}

func (c *cancelAfterBatch) NextBatch(b *exec.Batch) error {
	err := c.MemScan.NextBatch(b)
	if err == nil {
		c.batches++
		c.tuples += b.Len()
		c.cancel()
	}
	return err
}

// TestContextScanStopsAbsorbWithinOneBatch: hash-division keeps its batch
// absorb under a cancellable context, and a context cancelled during a
// batch stops the absorb before the next one is read — every tuple read was
// absorbed, and no more.
func TestContextScanStopsAbsorbWithinOneBatch(t *testing.T) {
	inst, err := workload.Generate(workload.PaperCase(20, 1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterBatch{MemScan: exec.NewMemScan(workload.TranscriptSchema, inst.Dividend), cancel: cancel}
	sp := instSpec(inst)
	sp.Dividend = exec.NewContextScan(ctx, src)
	env := testEnv()
	env.BatchSize = 256
	hd := NewHashDivision(sp, env, HashDivisionOptions{})
	if _, err := exec.Collect(hd); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.batches != 1 || src.tuples >= len(inst.Dividend) {
		t.Fatalf("read %d batches (%d of %d tuples) after cancelling in the first", src.batches, src.tuples, len(inst.Dividend))
	}
	if got := hd.Stats().DividendTuples; got != int64(src.tuples) {
		t.Errorf("absorbed %d dividend tuples, read %d", got, src.tuples)
	}
}

// The batch kernels specialize single 8-byte key columns; make sure the
// generic (multi-column) kernel path also holds the parity property.
func TestBatchGenericKernelParity(t *testing.T) {
	wide := tuple.NewSchema(
		tuple.Int64Field("student"), tuple.Int64Field("course"), tuple.Int64Field("term"))
	var dividend []tuple.Tuple
	var divisor []tuple.Tuple
	for c := int64(0); c < 6; c++ {
		for term := int64(1); term <= 2; term++ {
			divisor = append(divisor, tuple.NewSchema(
				tuple.Int64Field("course"), tuple.Int64Field("term")).MustMake(c, term))
		}
	}
	for st := int64(1); st <= 10; st++ {
		for c := int64(0); c < 6; c++ {
			for term := int64(1); term <= 2; term++ {
				if st%3 == 0 && c == 5 && term == 2 {
					continue // breaks completeness for every third student
				}
				dividend = append(dividend, wide.MustMake(st, c, term))
			}
		}
	}
	divSchema := tuple.NewSchema(tuple.Int64Field("course"), tuple.Int64Field("term"))
	mkSpec := func(opaque bool) Spec {
		sp := Spec{
			Dividend:    exec.NewMemScan(wide, dividend),
			Divisor:     exec.NewMemScan(divSchema, divisor),
			DivisorCols: []int{1, 2},
		}
		if opaque {
			sp.Dividend = exec.Opaque(sp.Dividend)
			sp.Divisor = exec.Opaque(sp.Divisor)
		}
		return sp
	}

	var bc, tc exec.Counters
	envB := testEnv()
	envB.Counters = &bc
	batchQ, err := Run(AlgHashDivision, mkSpec(false), envB)
	if err != nil {
		t.Fatal(err)
	}
	envT := testEnv()
	envT.Counters = &tc
	tupleQ, err := Run(AlgHashDivision, mkSpec(true), envT)
	if err != nil {
		t.Fatal(err)
	}
	qs := mkSpec(false).QuotientSchema()
	b := quotientIDs(t, qs, batchQ)
	tu := quotientIDs(t, qs, tupleQ)
	if !equalIDs(b, tu) {
		t.Errorf("quotients diverged: batch %v, tuple %v", b, tu)
	}
	want := []int64{1, 2, 4, 5, 7, 8, 10}
	if !equalIDs(b, want) {
		t.Errorf("quotient %v, want %v", b, want)
	}
	if bc != tc {
		t.Errorf("Counters diverged\n batch: %+v\n tuple: %+v", bc, tc)
	}
}

// TestBatchTupleStatsParityPerKernel extends the parity property to
// HashDivisionStats and to both kernel branches of the core: the word
// probes of a single int64 key, and the compiled closures of multi-column
// and character keys. Batch, tuple and roundtrip inputs must agree on the
// quotient, the Counters and the Stats, in stop-and-go and early-emit mode.
func TestBatchTupleStatsParityPerKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	for trial := 0; trial < 4; trial++ {
		inst, err := workload.Generate(randomConfig(rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range keyShapes {
			rk := inst.Rekey(shape)
			want, err := Reference(rekeyedSpec(rk))
			if err != nil {
				t.Fatal(err)
			}
			qs := rekeyedSpec(rk).QuotientSchema()
			for _, opts := range []HashDivisionOptions{{}, {EarlyEmit: true}} {
				type outcome struct {
					c  exec.Counters
					st HashDivisionStats
				}
				run := func(mode string) outcome {
					sp := rekeyedSpec(rk)
					switch mode {
					case "tuple":
						sp.Dividend = exec.Opaque(sp.Dividend)
						sp.Divisor = exec.Opaque(sp.Divisor)
					case "roundtrip":
						sp.Dividend = exec.Lower(exec.Lift(sp.Dividend), 64)
						sp.Divisor = exec.Lower(exec.Lift(sp.Divisor), 64)
					}
					var c exec.Counters
					env := testEnv()
					env.Counters = &c
					hd := NewHashDivision(sp, env, opts)
					q, err := exec.Collect(hd)
					if err != nil {
						t.Fatalf("trial %d %v %+v %s: %v", trial, shape, opts, mode, err)
					}
					if !EqualTupleSets(qs, q, want) {
						t.Errorf("trial %d %v %+v %s: quotient of %d tuples, reference has %d",
							trial, shape, opts, mode, len(q), len(want))
					}
					return outcome{c, hd.Stats()}
				}
				base := run("batch")
				for _, mode := range []string{"tuple", "roundtrip"} {
					if got := run(mode); got != base {
						t.Errorf("trial %d %v %+v: %s diverged\n batch: %+v\n %s: %+v",
							trial, shape, opts, mode, base, mode, got)
					}
				}
			}
		}
	}
}
