package division

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// randomProfileInstance generates a workload with duplicates, noise courses
// outside the divisor, and a few guaranteed-full students, so every algorithm
// path (dedup, semi-join filtering, bitmap completion) does real work.
func randomProfileInstance(rng *rand.Rand) ([][2]int64, []int64) {
	divisor := make([]int64, 0, 8)
	for n := 1 + rng.Intn(7); len(divisor) < n; {
		divisor = append(divisor, int64(rng.Intn(10)))
	}
	var dividend [][2]int64
	for s := 0; s < 1+rng.Intn(20); s++ {
		for j := rng.Intn(12); j > 0; j-- {
			dividend = append(dividend, [2]int64{int64(s), int64(rng.Intn(14))})
		}
	}
	for s := 100; s < 100+rng.Intn(4); s++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(s), c})
		}
	}
	return dividend, divisor
}

// nonNegative reports whether every counter field is >= 0.
func nonNegative(c exec.Counters) bool {
	return c.Comp >= 0 && c.Hash >= 0 && c.Move >= 0 && c.Bit >= 0
}

// TestProfilingIsInertAndTreeSumsToTotal is the tentpole property test: for
// every algorithm, over both the tuple and the batch protocol, on randomized
// workloads,
//
//  1. tracing changes neither the quotient nor the exec.Counters,
//  2. the algorithm span's inclusive counters equal the query total exactly,
//  3. every span's self counters are non-negative, and
//  4. the self counters over the whole tree sum back to the total
//     (the snapshot-delta tree telescopes without loss or double-counting).
func TestProfilingIsInertAndTreeSumsToTotal(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dividend, divisor := randomProfileInstance(rng)
		for _, alg := range Algorithms {
			for _, batch := range []bool{false, true} {
				for _, earlyEmit := range []bool{false, true} {
					if earlyEmit && alg != AlgHashDivision {
						continue
					}
					name := alg.String()
					if batch {
						name += "/batch"
					} else {
						name += "/tuple"
					}
					if earlyEmit {
						name += "/early-emit"
					}
					checkProfiled(t, name, alg, earlyEmit, batch, dividend, divisor)
				}
			}
		}
	}
}

func checkProfiled(t *testing.T, name string, alg Algorithm, earlyEmit, batch bool, dividend [][2]int64, divisor []int64) {
	t.Helper()
	mkSpec := func() Spec {
		sp := makeSpec(dividend, divisor)
		if !batch {
			sp.Dividend = exec.Opaque(sp.Dividend)
			sp.Divisor = exec.Opaque(sp.Divisor)
		}
		return sp
	}
	hdOpts := HashDivisionOptions{EarlyEmit: earlyEmit}

	var base exec.Counters
	envU := testEnv()
	envU.Counters = &base
	opU, err := NewWithOptions(alg, mkSpec(), envU, hdOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := exec.Collect(opU)
	if err != nil {
		t.Fatalf("%s: untraced run: %v", name, err)
	}

	var traced exec.Counters
	envT := testEnv()
	envT.Counters = &traced
	tr := obs.NewTracer()
	envT.Trace = tr
	opT, err := NewWithOptions(alg, mkSpec(), envT, hdOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := exec.Collect(opT)
	if err != nil {
		t.Fatalf("%s: traced run: %v", name, err)
	}

	qs := mkSpec().QuotientSchema()
	if !EqualTupleSets(qs, want, got) {
		t.Errorf("%s: traced quotient (%d rows) differs from untraced (%d rows)",
			name, len(got), len(want))
	}
	if base != traced {
		t.Errorf("%s: tracing changed the counters: untraced %+v, traced %+v", name, base, traced)
	}

	prof := tr.Profile(&traced)
	roots := tr.Root().Children()
	if len(roots) != 1 {
		t.Fatalf("%s: query span has %d children, want the one algorithm span", name, len(roots))
	}
	algSpan := roots[0]
	if algSpan.Name() != alg.String() {
		t.Errorf("%s: algorithm span named %q", name, algSpan.Name())
	}
	if algSpan.Counters() != traced {
		t.Errorf("%s: algorithm span inclusive counters %+v != query total %+v",
			name, algSpan.Counters(), traced)
	}
	if algSpan.Rows() != int64(len(got)) {
		t.Errorf("%s: algorithm span recorded %d rows, quotient has %d",
			name, algSpan.Rows(), len(got))
	}
	prof.Walk(func(s *obs.Span, depth int) {
		if self := s.SelfCounters(); !nonNegative(self) {
			t.Errorf("%s: span %q has negative self counters %+v", name, s.Name(), self)
		}
	})
	if sum := prof.SumSelf(); sum != prof.Total {
		t.Errorf("%s: self counters sum to %+v, total is %+v", name, sum, prof.Total)
	}
}

// TestProfileRecursiveRepartitions checks the span tree of a recursive
// division that re-partitions on both sides: the root has phase spans, every
// repartition span covers its partitioning pass and its children, so selves
// stay non-negative and the tree still telescopes to the total.
func TestProfileRecursiveRepartitions(t *testing.T) {
	dividend, divisor := skewedWorkload(400, 25, 10, 3, 42)
	want, err := Reference(makeSpec(dividend, divisor))
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		t.Run(strategy.String(), func(t *testing.T) {
			var counters exec.Counters
			env := budgetEnv(len(dividend) * transcriptSchema.Width() / 100)
			env.Counters = &counters
			tr := obs.NewTracer()
			env.Trace = tr
			got, st, err := DivideRecursive(makeSpec(dividend, divisor), env, strategy, RecursiveOptions{})
			if err != nil {
				t.Fatalf("%s: %v", strategy, err)
			}
			if qs := makeSpec(dividend, divisor).QuotientSchema(); !EqualTupleSets(qs, want, got) {
				t.Errorf("%s: wrong quotient under tracing", strategy)
			}
			if st.Repartitions == 0 {
				t.Fatalf("%s: budget did not force a repartition: %+v", strategy, st)
			}
			if len(tr.Root().Children()) == 0 {
				t.Fatalf("%s: no phase spans recorded", strategy)
			}
			prof := tr.Profile(&counters)
			prof.Walk(func(s *obs.Span, depth int) {
				if self := s.SelfCounters(); !nonNegative(self) {
					t.Errorf("%s: span %q has negative self counters %+v", strategy, s.Name(), self)
				}
			})
			if sum := prof.SumSelf(); sum != prof.Total {
				t.Errorf("%s: self counters sum to %+v, total is %+v", strategy, sum, prof.Total)
			}
		})
	}
}
