package netexchange

import (
	"context"
	"testing"

	"repro/internal/division"
	"repro/internal/workload"
)

// BenchmarkTransport divides the Zipf cell of the divload benchmark's
// morsel-zipf and wire-zipf workloads (seed 1: 400 divisor tuples, 400
// candidates, Zipf-popular courses, about 146 k dividend tuples) by two
// workers with the bit-vector filter, over in-process pipes and over
// loopback TCP. The gap in ns/op is the TCP transport's own cost — frame
// checksums, copies, syscalls — since both run the same coordinator and
// worker loop; wire-B/op is equal on both by construction.
func BenchmarkTransport(b *testing.B) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      400,
		QuotientCandidates: 400,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  5,
		CourseZipfS:        1.5,
		Shuffle:            true,
		Seed:               1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Strategy: division.QuotientPartitioning, BitVectorFilter: true}
	run := func(b *testing.B, divide func() (*Result, error)) {
		b.ReportAllocs()
		var wire int64
		for i := 0; i < b.N; i++ {
			res, err := divide()
			if err != nil {
				b.Fatal(err)
			}
			wire = res.Network.BytesShipped
		}
		b.ReportMetric(float64(wire), "wire-B/op")
	}
	b.Run("pipe", func(b *testing.B) {
		run(b, func() (*Result, error) {
			return DividePipes(context.Background(), instanceSpec(inst), cfg, 2, nil)
		})
	})
	b.Run("tcp", func(b *testing.B) {
		cl, err := StartLocalCluster(2)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		run(b, func() (*Result, error) {
			return Divide(context.Background(), instanceSpec(inst), cfg, cl.Conns())
		})
	})
}
