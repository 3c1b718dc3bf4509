// Parallel: hash-division on a simulated shared-nothing multi-processor
// (§6 of the paper), comparing quotient partitioning (replicated divisor)
// against divisor partitioning (collection phase), with and without Babb
// bit-vector filtering of the dividend shuffle.
//
// Run with:
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/workload"
)

func main() {
	// A diluted workload with non-matching noise, where the bit-vector
	// filter has something to drop.
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      200,
		QuotientCandidates: 2000,
		FullFraction:       0.3,
		MatchFraction:      0.8,
		NoisePerCandidate:  20,
		Shuffle:            true,
		Seed:               42,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
			Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
			DivisorCols: []int{1},
		}
	}
	fmt.Printf("dividend %d tuples, divisor %d tuples, true quotient %d\n\n",
		len(inst.Dividend), len(inst.Divisor), len(inst.QuotientIDs))

	fmt.Printf("%-28s %7s %10s %12s %10s %8s\n",
		"configuration", "workers", "elapsed", "net bytes", "filtered", "quotient")
	run := func(name string, cfg parallel.Config) {
		res, err := parallel.Divide(spec(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Quotient) != len(inst.QuotientIDs) {
			log.Fatalf("%s: wrong quotient size %d, want %d", name, len(res.Quotient), len(inst.QuotientIDs))
		}
		fmt.Printf("%-28s %7d %10s %12d %10d %8d\n",
			name, cfg.Workers, res.Elapsed.Round(10*time.Microsecond),
			res.Network.BytesShipped, res.Network.TuplesFiltered, len(res.Quotient))
	}

	for _, w := range []int{1, 2, 4, 8} {
		run("quotient-partitioned", parallel.Config{
			Workers: w, Strategy: division.QuotientPartitioning,
		})
	}
	fmt.Println()
	for _, w := range []int{1, 2, 4, 8} {
		run("divisor-partitioned", parallel.Config{
			Workers: w, Strategy: division.DivisorPartitioning,
		})
	}
	fmt.Println()
	run("quotient-part + bitvector", parallel.Config{
		Workers: 4, Strategy: division.QuotientPartitioning, BitVectorFilter: true,
	})
	run("divisor-part + bitvector", parallel.Config{
		Workers: 4, Strategy: division.DivisorPartitioning, BitVectorFilter: true,
	})
	fmt.Println("\nNotes (§6): quotient partitioning replicates the divisor but needs no")
	fmt.Println("collection phase; divisor partitioning ships less divisor state but the")
	fmt.Println("collection site re-divides the tagged quotient clusters. The bit vector")
	fmt.Println("filter drops dividend tuples with no divisor match before shipping.")
}
