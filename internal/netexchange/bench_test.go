package netexchange

import (
	"context"
	"testing"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/workload"
)

// BenchmarkTransport divides the Zipf cell of the divload benchmark's
// morsel-zipf and wire-zipf workloads (seed 1: 400 divisor tuples, 400
// candidates, Zipf-popular courses, 116 138 dividend tuples) by two
// workers with the bit-vector filter, over in-process pipes and over
// loopback TCP. The gap in ns/op is the TCP transport's own cost — frame
// checksums, copies, syscalls — since both run the same coordinator and
// worker loop; wire-B/op is equal on both by construction. The rows are
// packed into arenas once, outside the timer, and scanned zero-copy
// (exec.NewArenaScan) as a reldiv.Relation is, so no row copy of the scan
// hides the transport's and the workers' cost.
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
	var dividend, divisor []byte
	for _, t := range inst.Dividend {
		dividend = append(dividend, t...)
	}
	for _, t := range inst.Divisor {
		divisor = append(divisor, t...)
	}
	spec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewArenaScan(workload.TranscriptSchema, dividend),
			Divisor:     exec.NewArenaScan(workload.CourseSchema, divisor),
			DivisorCols: []int{1},
		}
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
			return DividePipes(context.Background(), spec(), cfg, 2, nil)
		})
	})
	b.Run("tcp", func(b *testing.B) {
		cl, err := StartLocalCluster(2)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		run(b, func() (*Result, error) {
			return Divide(context.Background(), spec(), cfg, cl.Conns())
		})
	})
}
