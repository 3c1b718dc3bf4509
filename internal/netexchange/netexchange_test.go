package netexchange

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/workload"
)

func instanceSpec(inst *workload.Instance) division.Spec {
	return division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

func checkAgainstReference(t *testing.T, inst *workload.Instance, res *Result) {
	t.Helper()
	ref, err := division.Reference(instanceSpec(inst))
	if err != nil {
		t.Fatal(err)
	}
	qs := instanceSpec(inst).QuotientSchema()
	if !division.EqualTupleSets(qs, res.Quotient, ref) {
		t.Fatalf("distributed quotient (%d) differs from reference (%d)", len(res.Quotient), len(ref))
	}
}

func noisyInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      12,
		QuotientCandidates: 90,
		FullFraction:       0.4,
		MatchFraction:      0.7,
		NoisePerCandidate:  6,
		Shuffle:            true,
		Seed:               seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDistributedParity(t *testing.T) {
	inst := noisyInstance(t, 11)
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		for _, filter := range []bool{false, true} {
			for _, workers := range []int{1, 2, 5} {
				name := fmt.Sprintf("%v/filter=%v/workers=%d", strategy, filter, workers)
				t.Run(name, func(t *testing.T) {
					cl, err := StartLocalCluster(workers)
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					res, err := Divide(context.Background(), instanceSpec(inst), Config{
						Strategy:        strategy,
						BitVectorFilter: filter,
					}, cl.Conns())
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, inst, res)
					if len(res.Links) != workers || len(res.Workers) != workers {
						t.Fatalf("stats for %d/%d links/workers, want %d",
							len(res.Links), len(res.Workers), workers)
					}
					for i, l := range res.Links {
						if l.BytesOut == 0 || l.BytesIn == 0 || l.FramesOut == 0 || l.FramesIn == 0 {
							t.Errorf("link %d saw no traffic: %+v", i, l)
						}
						if l.RoundTrips == 0 {
							t.Errorf("link %d counted no round trips", i)
						}
					}
					if res.Network.BytesShipped == 0 || res.Network.TuplesShipped == 0 {
						t.Error("network accounting is empty")
					}
					if res.DividendBytes <= 0 {
						t.Error("no dividend bytes accounted")
					}
					if filter && res.Network.TuplesFiltered == 0 {
						t.Error("filter dropped nothing on a noisy workload")
					}
				})
			}
		}
	}
}

// TestFilterCutsWireBytes is the tentpole claim at test scale: the
// transmitted bit vector must cut dividend bytes-on-wire by more than the
// filter frames cost to ship.
func TestFilterCutsWireBytes(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      10,
		QuotientCandidates: 60,
		FullFraction:       0.5,
		MatchFraction:      0.5,
		NoisePerCandidate:  20,
		Shuffle:            true,
		Seed:               21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	} {
		cl, err := StartLocalCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Divide(context.Background(), instanceSpec(inst), Config{Strategy: strategy}, cl.Conns())
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := Divide(context.Background(), instanceSpec(inst), Config{
			Strategy: strategy, BitVectorFilter: true,
		}, cl.Conns())
		if err != nil {
			t.Fatal(err)
		}
		cl.Close()
		checkAgainstReference(t, inst, plain)
		checkAgainstReference(t, inst, filtered)
		if filtered.FilterBytes == 0 {
			t.Errorf("%v: no filter crossed the wire", strategy)
		}
		if got, want := filtered.DividendBytes+filtered.FilterBytes, plain.DividendBytes; got >= want {
			t.Errorf("%v: filtered dividend+filter = %d bytes, unfiltered dividend = %d",
				strategy, got, want)
		}
	}
}

func TestEmptyDivisor(t *testing.T) {
	inst := noisyInstance(t, 31)
	inst.Divisor = nil
	cl, err := StartLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := Divide(context.Background(), instanceSpec(inst), Config{
		Strategy: division.DivisorPartitioning, BitVectorFilter: true,
	}, cl.Conns())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quotient) != 0 {
		t.Fatalf("empty divisor produced %d quotient tuples", len(res.Quotient))
	}
	if res.Network.BytesShipped != 0 {
		t.Fatalf("empty divisor shipped %d bytes", res.Network.BytesShipped)
	}
}

// TestLinkReuse runs several jobs back-to-back over the same connections:
// the protocol must leave links clean between jobs.
func TestLinkReuse(t *testing.T) {
	cl, err := StartLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < 3; round++ {
		inst := noisyInstance(t, int64(100+round))
		strategy := division.QuotientPartitioning
		if round%2 == 1 {
			strategy = division.DivisorPartitioning
		}
		res, err := Divide(context.Background(), instanceSpec(inst), Config{
			Strategy: strategy, BitVectorFilter: round != 0,
		}, cl.Conns())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkAgainstReference(t, inst, res)
	}
}
