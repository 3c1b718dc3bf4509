package exec

import (
	"io"

	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// CrossProduct is the Cartesian product: every left tuple paired with every
// right tuple. The right side is materialized in memory at Open. It exists
// for the §1 algebraic identity R ÷ S = π(R) − π((π(R) × S) − R), whose
// "merely theoretical validity" the paper notes precisely because of this
// operator; keep its inputs small.
type CrossProduct struct {
	left, right Operator
	schema      *tuple.Schema
	rightRows   []tuple.Tuple
	cur         tuple.Tuple
	idx         int
	opened      bool
}

// NewCrossProduct pairs left × right.
func NewCrossProduct(left, right Operator) *CrossProduct {
	return &CrossProduct{
		left:   left,
		right:  right,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (c *CrossProduct) Schema() *tuple.Schema { return c.schema }

// Open implements Operator.
func (c *CrossProduct) Open() error {
	rows, err := Collect(c.right)
	if err != nil {
		return err
	}
	c.rightRows = rows
	c.cur = nil
	c.idx = 0
	c.opened = true
	return c.left.Open()
}

// Next implements Operator.
func (c *CrossProduct) Next() (tuple.Tuple, error) {
	if !c.opened {
		return nil, errNotOpen("CrossProduct")
	}
	if len(c.rightRows) == 0 {
		return nil, io.EOF
	}
	for {
		if c.cur != nil && c.idx < len(c.rightRows) {
			out := tuple.ConcatTuples(c.cur, c.rightRows[c.idx])
			c.idx++
			return out, nil
		}
		t, err := c.left.Next()
		if err != nil {
			return nil, err
		}
		c.cur = t.Clone()
		c.idx = 0
	}
}

// Close implements Operator.
func (c *CrossProduct) Close() error {
	if !c.opened {
		return nil
	}
	c.opened = false
	c.rightRows = nil
	return c.left.Close()
}

// Difference is the set difference left − right over full tuples: left
// tuples (deduplicated) that do not appear in right. The right side is
// hashed at Open.
type Difference struct {
	left, right Operator
	counters    *Counters
	rightSet    *hashtab.Table
	seen        *hashtab.Table
	opened      bool
}

// NewDifference builds left − right; both inputs must share a schema layout.
func NewDifference(left, right Operator, counters *Counters) *Difference {
	if left.Schema().Width() != right.Schema().Width() {
		panic("exec: Difference inputs must have equal record width")
	}
	return &Difference{left: left, right: right, counters: counters}
}

// Schema implements Operator.
func (d *Difference) Schema() *tuple.Schema { return d.left.Schema() }

// Open implements Operator.
func (d *Difference) Open() error {
	d.rightSet = hashtab.NewForExpected(d.right.Schema(), 256, 2)
	d.seen = hashtab.NewForExpected(d.left.Schema(), 256, 2)
	if err := d.right.Open(); err != nil {
		return err
	}
	for {
		t, err := d.right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			d.right.Close()
			return err
		}
		d.rightSet.GetOrInsert(t)
	}
	if err := d.right.Close(); err != nil {
		return err
	}
	d.opened = true
	return d.left.Open()
}

// Next implements Operator.
func (d *Difference) Next() (tuple.Tuple, error) {
	if !d.opened {
		return nil, errNotOpen("Difference")
	}
	for {
		t, err := d.left.Next()
		if err != nil {
			return nil, err
		}
		if d.rightSet.Lookup(t) != nil {
			continue
		}
		if _, created := d.seen.GetOrInsert(t); created {
			return t, nil
		}
	}
}

// Close implements Operator.
func (d *Difference) Close() error {
	if !d.opened {
		return nil
	}
	d.opened = false
	for _, tab := range []*hashtab.Table{d.rightSet, d.seen} {
		if d.counters != nil {
			st := tab.Stats()
			d.counters.Hash += st.Hashes
			d.counters.Comp += st.Comparisons
		}
		tab.Release()
	}
	d.rightSet, d.seen = nil, nil
	return d.left.Close()
}
