package division

import (
	"repro/internal/bitmap"
	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// This file holds the partitioning decisions of §3.4 and §6 that the
// exchange's sites share, whether they are workers in process or behind a
// wire: where each divisor tuple goes, where each dividend tuple goes, how
// large the Babb filter is, and how a collection site intersects the sites'
// candidate sets.

// FilterBits sizes the Babb bit-vector filter over a distinct divisor of n
// tuples: 8 bits per divisor tuple plus one.
func FilterBits(n int) int { return 8*n + 1 }

// DivisorPlacement is a distinct divisor laid out over a partitioned
// division's sites.
type DivisorPlacement struct {
	// Clusters[i] is site i's share of the divisor.
	Clusters [][]tuple.Tuple
	// Phase[i] is site i's phase number under divisor partitioning, or -1
	// when the site holds no divisor tuple (and under quotient
	// partitioning, which has no collection phase).
	Phase []int
	// Phases counts the sites with a phase number: the width of every
	// collection bit map.
	Phases int
}

// PlaceDivisor lays out a distinct divisor over sites sites. Quotient
// partitioning replicates the whole divisor to every site. Divisor
// partitioning clusters it on all its attributes with the hash Router uses
// for the dividend's divisor attributes, and numbers the non-empty clusters
// as phases: a dividend tuple hashing to an empty cluster can match nothing.
func PlaceDivisor(divisor []tuple.Tuple, strategy PartitionStrategy, sites int) DivisorPlacement {
	p := DivisorPlacement{Clusters: make([][]tuple.Tuple, sites), Phase: make([]int, sites)}
	if strategy == QuotientPartitioning {
		for i := range p.Clusters {
			p.Clusters[i] = divisor
			p.Phase[i] = -1
		}
		return p
	}
	for _, d := range divisor {
		c := int(tuple.HashBytes(d) % uint64(sites))
		p.Clusters[c] = append(p.Clusters[c], d)
	}
	for i, cluster := range p.Clusters {
		p.Phase[i] = -1
		if len(cluster) > 0 {
			p.Phase[i] = p.Phases
			p.Phases++
		}
	}
	return p
}

// Router sends the dividend tuples of a partitioned division to their sites
// by their key plan's hash words (KeyPlan.HashRows), which the producer
// computes for a whole batch in one loop. A tuple first meets the
// bit-vector filter, when there is one, on its divisor-key word, the hash
// SetFilterBit set a bit for on a matching divisor tuple. A passing tuple
// then goes to the site its routing key's word selects: the quotient key's
// under quotient partitioning, or the divisor key's under divisor
// partitioning, the hash PlaceDivisor clusters the divisor by. A Router is
// immutable, so concurrent producers may share one.
type Router struct {
	filter *bitmap.Bitmap // nil without a filter
	sites  uint64
	onQuot bool // route on the quotient-key word
}

// NewRouter prepares a Router over sites sites under strategy. filter may be
// nil.
func NewRouter(strategy PartitionStrategy, filter *bitmap.Bitmap, sites int) Router {
	return Router{filter: filter, sites: uint64(sites), onQuot: strategy == QuotientPartitioning}
}

// Dest returns the site of a row whose hash words are div and quot, or false
// when the filter drops the row. The filter slot is div modulo the filter's
// length, the bit SetFilterBit sets.
func (r *Router) Dest(div, quot uint64) (int, bool) {
	if r.filter != nil && !r.filter.Test(int(div%uint64(r.filter.Len()))) {
		return 0, false
	}
	if r.onQuot {
		div = quot
	}
	return int(div % r.sites), true
}

// PhaseCollector is the collection site of divisor partitioning. Each phase
// reports the candidates complete against its divisor cluster, and the
// collector "divides the set of all incoming tuples over the set of
// processor network addresses" (§3.4): a candidate is in the quotient iff
// every phase reported it. The phase number replaces the divisor-table
// lookup, so the collection skips step 1 of hash-division.
type PhaseCollector struct {
	tab    *hashtab.Table
	phases int
}

// NewPhaseCollector prepares a collection of quotient tuples laid out by qs
// over phases phases, sizing the table for expected candidates.
func NewPhaseCollector(qs *tuple.Schema, phases, expected int, hbs float64) *PhaseCollector {
	return &PhaseCollector{tab: hashtab.NewForExpected(qs, expected, hbs), phases: phases}
}

// Add records that phase reported candidate t. t is copied.
func (c *PhaseCollector) Add(t tuple.Tuple, phase int) {
	e, created := c.tab.GetOrInsert(t)
	if created {
		e.Bits = bitmap.New(c.phases)
		c.tab.AddMemBytes(e.Bits.SizeBytes())
	}
	e.Bits.Set(phase)
}

// Stats returns the collection table's hash and comparison counts.
func (c *PhaseCollector) Stats() hashtab.Stats { return c.tab.Stats() }

// Scan emits every candidate all phases reported: the quotient.
func (c *PhaseCollector) Scan(emit func(tuple.Tuple) error) error {
	return c.tab.Iterate(func(e *hashtab.Element) error {
		if e.Bits.AllSet() {
			return emit(e.Tuple)
		}
		return nil
	})
}
