package division

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// PartitionStrategy selects one of the two §3.4 partitioning strategies used
// for hash table overflow (and, in §6, for multi-processor execution).
type PartitionStrategy int

const (
	// QuotientPartitioning partitions the dividend on the quotient
	// attributes; each cluster is divided by the ENTIRE divisor and the
	// final quotient is the concatenation of the cluster quotients.
	QuotientPartitioning PartitionStrategy = iota
	// DivisorPartitioning partitions divisor and dividend with the same
	// function on the divisor attributes; a collection phase — itself a
	// division over phase numbers — intersects the cluster quotients.
	DivisorPartitioning
)

func (s PartitionStrategy) String() string {
	switch s {
	case QuotientPartitioning:
		return "quotient-partitioning"
	case DivisorPartitioning:
		return "divisor-partitioning"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// PartitionedHashDivision runs hash-division in k phases over disjoint
// clusters, resolving hash table overflow per §3.4. Cluster 0 of the
// dividend is kept in main memory during the partitioning pass (the hybrid
// policy: "the first cluster is kept in main memory while the other clusters
// are spooled to temporary files"); clusters 1..k-1 are spooled to the
// environment's temp device.
type PartitionedHashDivision struct {
	quotientOut
	sp       Spec
	env      Env
	strategy PartitionStrategy
	k        int
	qs       *tuple.Schema
	qCols    []int
}

// NewPartitionedHashDivision divides in k phases using the given strategy.
// k must be at least 1; k == 1 degenerates to plain hash-division. Spilling
// needs env.Pool and env.TempDev when k > 1.
func NewPartitionedHashDivision(sp Spec, env Env, strategy PartitionStrategy, k int) *PartitionedHashDivision {
	return &PartitionedHashDivision{
		quotientOut: quotientOut{name: "PartitionedHashDivision"},
		sp:          sp, env: env, strategy: strategy, k: max(k, 1),
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
	}
}

// Schema implements Operator.
func (p *PartitionedHashDivision) Schema() *tuple.Schema { return p.qs }

// Open implements Operator: it runs every phase.
func (p *PartitionedHashDivision) Open() error { return p.open(p.sp, p.run) }

// partitionDividend splits the dividend into k clusters on the hash of cols:
// cluster 0 stays resident, clusters 1..k-1 spill to temp files (the §3.4
// hybrid policy). Tuples whose cluster holds no phase (phaseOf[c] < 0) are
// discarded; a nil phaseOf keeps every tuple.
func (p *PartitionedHashDivision) partitionDividend(cols []int, phaseOf []int) ([]part, error) {
	ds := p.sp.Dividend.Schema()
	p.spilled = make([]*storage.File, p.k)
	for i := 1; i < p.k; i++ {
		if p.env.Pool == nil || p.env.TempDev == nil {
			return nil, fmt.Errorf("division: partitioned division with k=%d needs Pool and TempDev", p.k)
		}
		p.spilled[i] = storage.NewSpillFile(p.env.Pool, p.env.TempDev, ds, fmt.Sprintf("divcluster-%d", i))
	}
	hash := ds.HashFunc(cols)
	pass := partitionPass{env: p.env, schema: ds, fanOut: p.k, spilled: p.spilled,
		route: func(t tuple.Tuple) int {
			c := int(hash(t) % uint64(p.k))
			if phaseOf != nil && phaseOf[c] < 0 {
				return -1
			}
			return c
		}}
	clusters, _, err := pass.run(p.sp.Dividend)
	if err == nil && p.env.Counters != nil {
		for _, c := range clusters {
			p.env.Counters.Hash += int64(c.n) // one Hash per routed tuple
		}
	}
	return clusters, err
}

// run divides every cluster by its share of the divisor. Under quotient
// partitioning "all dividend clusters are divided with the entire divisor"
// and the quotient is the concatenation of the cluster quotients. Under
// divisor partitioning the divisor is clustered on all its attributes with
// the function used for the dividend's divisor attributes; phases exist only
// for clusters with divisor tuples (a dividend tuple hashing to an empty
// divisor cluster can match nothing and is discarded while partitioning),
// and a collection phase — a division of the union of the cluster
// quotients, tagged with phase numbers, over the set of phase numbers —
// intersects them.
func (p *PartitionedHashDivision) run() error {
	if p.strategy != QuotientPartitioning && p.strategy != DivisorPartitioning {
		return fmt.Errorf("division: unknown partition strategy %d", int(p.strategy))
	}
	divisor, err := DistinctDivisor(p.sp.Divisor, p.env)
	if err != nil || len(divisor) == 0 {
		return err // an empty divisor has an empty quotient
	}
	place := PlaceDivisor(divisor, p.strategy, p.k)
	cols, phases, phaseOf := p.qCols, p.k, []int(nil)
	var collection *PhaseCollector
	if p.strategy == DivisorPartitioning {
		if p.env.Counters != nil {
			p.env.Counters.Hash += int64(len(divisor))
		}
		cols, phases, phaseOf = p.sp.DivisorCols, place.Phases, place.Phase
		collection = NewPhaseCollector(p.qs, place.Phases, p.env.expectedQuotient(), p.env.hbs())
	}
	clusters, err := p.partitionDividend(cols, phaseOf)
	if err != nil {
		return err
	}

	ds, ss := p.sp.Dividend.Schema(), p.sp.Divisor.Schema()
	parent := p.env.ProfileParent()
	for i, cluster := range clusters {
		phase := i
		if collection != nil {
			if phase = phaseOf[i]; phase < 0 {
				continue
			}
		}
		op, _ := divideOp(p.env, parent, fmt.Sprintf("phase %d/%d", phase+1, phases), Spec{
			Dividend:    cluster.scan(ds),
			Divisor:     exec.NewMemScan(ss, place.Clusters[i]),
			DivisorCols: p.sp.DivisorCols,
		})
		if collection == nil {
			qts, err := exec.Collect(op)
			if err != nil {
				return err
			}
			p.results = append(p.results, qts...)
			p.env.progressf("quotient-partitioned phase %d/%d: %d quotient tuples (%d total)",
				i+1, p.k, len(qts), len(p.results))
			continue
		}
		err := eachTuple(op, p.env.batchSize(), func(q tuple.Tuple) {
			if p.env.Counters != nil {
				p.env.Counters.Bit++
			}
			collection.Add(q, phase)
		})
		if err != nil {
			return err
		}
		if p.env.Progress != nil {
			// A candidate still on track for the quotient has a bit from
			// every phase processed so far.
			p.env.progressf("divisor-partitioned phase %d/%d: %d candidates, %d on track for the quotient",
				phase+1, place.Phases, collection.Len(), collection.Reported(phase+1))
		}
	}
	if collection == nil {
		return nil
	}
	return p.collect(collection, p.env.Counters)
}
