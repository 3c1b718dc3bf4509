package division

import (
	"fmt"
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
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
	sp     Spec
	env    Env
	kd, kq int

	qs      *tuple.Schema
	qCols   []int
	results []tuple.Tuple
	pos     int
	spilled []*storage.File
	opened  bool
}

// NewCombinedPartitionedHashDivision divides with a kd × kq partition grid.
// Both factors must be at least 1; (1, 1) degenerates to plain
// hash-division, (kd, 1) to divisor partitioning, and (1, kq) to quotient
// partitioning.
func NewCombinedPartitionedHashDivision(sp Spec, env Env, kd, kq int) *CombinedPartitionedHashDivision {
	if kd < 1 {
		kd = 1
	}
	if kq < 1 {
		kq = 1
	}
	return &CombinedPartitionedHashDivision{
		sp: sp, env: env, kd: kd, kq: kq,
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
	}
}

// Schema implements Operator.
func (c *CombinedPartitionedHashDivision) Schema() *tuple.Schema { return c.qs }

// Open implements Operator: runs the full phase grid.
func (c *CombinedPartitionedHashDivision) Open() error {
	if err := c.sp.Validate(); err != nil {
		return err
	}
	c.results = nil
	c.pos = 0
	if err := c.run(); err != nil {
		c.dropSpilled()
		return err
	}
	c.opened = true
	return nil
}

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
	cells := make([]*storage.File, c.kd*c.kq)
	appenders := make([]*storage.Appender, len(cells))
	for i := range cells {
		cells[i] = storage.NewSpillFile(c.env.Pool, c.env.TempDev, ds, fmt.Sprintf("divcell-%d", i))
		appenders[i] = cells[i].NewAppender()
	}
	c.spilled = cells
	closeAll := func() {
		for _, a := range appenders {
			if a != nil {
				a.Close()
			}
		}
	}
	err = exec.ForEach(c.sp.Dividend, func(t tuple.Tuple) error {
		if c.env.Counters != nil {
			c.env.Counters.Hash += 2
		}
		i := int(ds.Hash(t, c.sp.DivisorCols) % uint64(c.kd))
		if phaseOf[i] < 0 {
			return nil // no divisor tuples in this cluster: discard early
		}
		j := int(ds.Hash(t, c.qCols) % uint64(c.kq))
		_, err := appenders[i*c.kq+j].Append(t)
		return err
	})
	closeAll()
	if err != nil {
		return err
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
			env := c.env
			var span *obs.Span
			if parent != nil {
				span = parent.Child(fmt.Sprintf("cell (%d,%d)", i, j), "hash-division")
				env.ProfileSpan = span
			}
			phase := NewHashDivision(Spec{
				Dividend:    exec.NewTableScan(cells[i*c.kq+j], false),
				Divisor:     exec.NewMemScan(ss, place.Clusters[i]),
				DivisorCols: c.sp.DivisorCols,
			}, env, HashDivisionOptions{})
			err := exec.ForEach(obs.Instrument(phase, span, c.env.Counters), func(q tuple.Tuple) error {
				if c.env.Counters != nil {
					c.env.Counters.Bit++
				}
				collection.Add(q, phaseOf[i])
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	err = collection.Scan(func(q tuple.Tuple) error {
		c.results = append(c.results, q)
		return nil
	})
	if c.env.Counters != nil {
		st := collection.Stats()
		c.env.Counters.Hash += st.Hashes
		c.env.Counters.Comp += st.Comparisons
	}
	return err
}

// Next implements Operator.
func (c *CombinedPartitionedHashDivision) Next() (tuple.Tuple, error) {
	if !c.opened {
		return nil, errNotOpen("CombinedPartitionedHashDivision")
	}
	if c.pos >= len(c.results) {
		return nil, io.EOF
	}
	t := c.results[c.pos]
	c.pos++
	return t, nil
}

func (c *CombinedPartitionedHashDivision) dropSpilled() {
	for _, f := range c.spilled {
		if f != nil {
			f.Drop()
		}
	}
	c.spilled = nil
}

// Close implements Operator.
func (c *CombinedPartitionedHashDivision) Close() error {
	c.opened = false
	c.results = nil
	c.dropSpilled()
	return nil
}
