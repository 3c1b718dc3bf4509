package division

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// CombinedPartitionedHashDivision answers §6's fourth question — "what
// happens if neither one of these partitioning strategies work because both
// divisor and quotient are too large?" — by combining them: the divisor is
// split into kd clusters on the divisor attributes and the dividend into a
// kd × kq grid (divisor attributes × quotient attributes). Each grid cell
// (i, j) is divided by divisor cluster i with bounded tables; within a
// divisor phase the quotient-partitioned cells concatenate, and across
// divisor phases a collection division over phase numbers intersects, just
// as in plain divisor partitioning.
type CombinedPartitionedHashDivision struct {
	quotientOut
	sp     Spec
	env    Env
	kd, kq int
	qs     *tuple.Schema
	qCols  []int
}

// NewCombinedPartitionedHashDivision divides with a kd × kq partition grid.
// Both factors must be at least 1; (1, 1) degenerates to plain
// hash-division, (kd, 1) to divisor partitioning, and (1, kq) to quotient
// partitioning.
func NewCombinedPartitionedHashDivision(sp Spec, env Env, kd, kq int) *CombinedPartitionedHashDivision {
	return &CombinedPartitionedHashDivision{
		quotientOut: quotientOut{name: "CombinedPartitionedHashDivision"},
		sp:          sp, env: env, kd: max(kd, 1), kq: max(kq, 1),
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
	}
}

// Schema implements Operator.
func (c *CombinedPartitionedHashDivision) Schema() *tuple.Schema { return c.qs }

// Open implements Operator: runs the full phase grid.
func (c *CombinedPartitionedHashDivision) Open() error { return c.open(c.sp, c.run) }

func (c *CombinedPartitionedHashDivision) run() error {
	ds := c.sp.Dividend.Schema()
	ss := c.sp.Divisor.Schema()

	// Distinct divisor, partitioned into kd clusters on all attributes.
	divisor, err := DistinctDivisor(c.sp.Divisor, c.env)
	if err != nil {
		return err
	}
	if len(divisor) == 0 {
		return nil
	}
	place := PlaceDivisor(divisor, DivisorPartitioning, c.kd)
	phaseOf := place.Phase

	// Dividend partitioned into the kd × kq grid; every cell is spooled
	// (the combined strategy exists precisely because memory is scarce).
	if c.env.Pool == nil || c.env.TempDev == nil {
		return fmt.Errorf("division: combined partitioning needs Pool and TempDev")
	}
	c.spilled = make([]*storage.File, c.kd*c.kq)
	for i := range c.spilled {
		c.spilled[i] = storage.NewSpillFile(c.env.Pool, c.env.TempDev, ds, fmt.Sprintf("divcell-%d", i))
	}
	divHash, quotHash := ds.HashFunc(c.sp.DivisorCols), ds.HashFunc(c.qCols)
	pass := partitionPass{env: c.env, schema: ds, fanOut: len(c.spilled), spilled: c.spilled,
		route: func(t tuple.Tuple) int {
			i := int(divHash(t) % uint64(c.kd))
			if phaseOf[i] < 0 {
				return -1 // no divisor tuples in this cluster: discard early
			}
			return i*c.kq + int(quotHash(t)%uint64(c.kq))
		}}
	cells, read, err := pass.run(c.sp.Dividend)
	if err != nil {
		return err
	}
	if c.env.Counters != nil {
		c.env.Counters.Hash += 2 * int64(read) // both hashes, discarded tuples included
	}

	// Phase grid: cell (i, j) ÷ divisor cluster i, collected over divisor
	// phase numbers.
	collection := NewPhaseCollector(c.qs, place.Phases, c.env.expectedQuotient(), c.env.hbs())
	parent := c.env.ProfileParent()
	for i := 0; i < c.kd; i++ {
		if phaseOf[i] < 0 {
			continue
		}
		for j := 0; j < c.kq; j++ {
			op, _ := divideOp(c.env, parent, fmt.Sprintf("cell (%d,%d)", i, j), Spec{
				Dividend:    cells[i*c.kq+j].scan(ds),
				Divisor:     exec.NewMemScan(ss, place.Clusters[i]),
				DivisorCols: c.sp.DivisorCols,
			})
			err := eachTuple(op, c.env.batchSize(), func(q tuple.Tuple) {
				if c.env.Counters != nil {
					c.env.Counters.Bit++
				}
				collection.Add(q, phaseOf[i])
			})
			if err != nil {
				return err
			}
		}
	}
	return c.collect(collection, c.env.Counters)
}
