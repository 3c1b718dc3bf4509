// Suppliers: the classic suppliers-parts division (Codd's motivating
// example) plus a set-valued integrity constraint — the use case the paper's
// introduction cites ("database systems that ... enforce complex integrity
// constraints on sets").
//
// Run with:
//
//	go run ./examples/suppliers
package main

import (
	"fmt"
	"log"
	"math/rand"

	reldiv "repro"
)

func main() {
	// supplies(supplier, part): which supplier can deliver which part.
	supplies := reldiv.NewRelation("supplies",
		reldiv.Int64Col("supplier"), reldiv.Int64Col("part"))
	// critical(part): the parts every certified supplier must stock.
	critical := reldiv.NewRelation("critical", reldiv.Int64Col("part"))

	const nParts = 40
	criticalParts := []int{3, 7, 11, 19}
	for _, p := range criticalParts {
		critical.MustInsert(p)
	}

	rng := rand.New(rand.NewSource(7))
	const nSuppliers = 200
	fullSuppliers := 0
	for s := 1; s <= nSuppliers; s++ {
		stockAll := rng.Float64() < 0.3
		if stockAll {
			fullSuppliers++
		}
		for p := 1; p <= nParts; p++ {
			isCritical := false
			for _, c := range criticalParts {
				if p == c {
					isCritical = true
				}
			}
			switch {
			case isCritical && stockAll:
				supplies.MustInsert(s, p)
			case rng.Float64() < 0.4:
				supplies.MustInsert(s, p)
			}
		}
	}

	// Which suppliers stock ALL critical parts?
	certified, err := reldiv.Divide(supplies, critical, []string{"part"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suppliers: %d, supply rows: %d, critical parts: %d\n",
		nSuppliers, supplies.NumRows(), critical.NumRows())
	fmt.Printf("suppliers stocking all critical parts: %d (>= %d stocked by construction)\n",
		certified.NumRows(), fullSuppliers)

	// Integrity constraint: "every supplier in the certified list must
	// stock all critical parts." Enforced by dividing and diffing.
	certifiedSet := make(map[int64]bool, certified.NumRows())
	for _, row := range certified.Rows() {
		certifiedSet[row[0].(int64)] = true
	}
	claimed := []int64{1, 2, 3} // suppliers claiming certification
	for _, s := range claimed {
		if certifiedSet[s] {
			fmt.Printf("supplier %d: certification VALID\n", s)
		} else {
			fmt.Printf("supplier %d: certification VIOLATED (missing critical parts)\n", s)
		}
	}

	// Compare all four algorithms on the same instance.
	fmt.Println("\nalgorithm agreement check:")
	for _, alg := range []reldiv.Algorithm{
		reldiv.Naive, reldiv.SortAggregationJoin, reldiv.HashAggregationJoin, reldiv.HashDivision,
	} {
		q, err := reldiv.Divide(supplies, critical, []string{"part"}, &reldiv.Options{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s -> %d certified suppliers\n", alg, q.NumRows())
	}

	// And under a tight memory budget, division re-partitions the overflowing
	// input on the quotient attributes (§3.4).
	budgeted, err := reldiv.Divide(supplies, critical, []string{"part"},
		&reldiv.Options{MemoryBudget: 8 * 1024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith an 8 KB hash table budget (partitioned): %d certified suppliers\n",
		budgeted.NumRows())
}
