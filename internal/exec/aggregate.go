package exec

import (
	"io"

	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// CountColumn is the name of the count column grouped-count operators append.
const CountColumn = "count"

// GroupCountSchema returns the output layout of a grouped count: the group
// columns followed by an int64 count.
func GroupCountSchema(input *tuple.Schema, groupCols []int) *tuple.Schema {
	return input.Project(groupCols).Concat(tuple.NewSchema(tuple.Int64Field(CountColumn)))
}

// SortedGroupCount counts tuples per group over an input that is already
// sorted on the group columns — the single file scan that follows the sort in
// sort-based aggregation (§2.2.1). With Distinct set it counts only tuples
// whose full content differs from the previous tuple, implementing the
// "count distinct" the paper's footnote 1 says for-all queries need; that
// requires the input to be sorted on all columns (group major).
type SortedGroupCount struct {
	input     Operator
	groupCols []int
	distinct  bool
	counters  *Counters
	schema    *tuple.Schema

	opened  bool
	pending tuple.Tuple // current group's first tuple (input schema)
	prev    tuple.Tuple // previous tuple, for Distinct
	count   int64
	done    bool
	out     tuple.Tuple
}

// NewSortedGroupCount counts per group of groupCols.
func NewSortedGroupCount(input Operator, groupCols []int, distinct bool, counters *Counters) *SortedGroupCount {
	return &SortedGroupCount{
		input:     input,
		groupCols: append([]int(nil), groupCols...),
		distinct:  distinct,
		counters:  counters,
		schema:    GroupCountSchema(input.Schema(), groupCols),
	}
}

// Schema implements Operator.
func (g *SortedGroupCount) Schema() *tuple.Schema { return g.schema }

// Open implements Operator.
func (g *SortedGroupCount) Open() error {
	g.opened = true
	g.pending, g.prev = nil, nil
	g.count = 0
	g.done = false
	g.out = g.schema.New()
	return g.input.Open()
}

func (g *SortedGroupCount) emit() tuple.Tuple {
	is := g.input.Schema()
	is.ProjectInto(g.out, g.pending, g.groupCols)
	g.schema.SetInt64(g.out, g.schema.NumFields()-1, g.count)
	return g.out
}

// Next implements Operator.
func (g *SortedGroupCount) Next() (tuple.Tuple, error) {
	if !g.opened {
		return nil, errNotOpen("SortedGroupCount")
	}
	if g.done {
		return nil, io.EOF
	}
	is := g.input.Schema()
	for {
		t, err := g.input.Next()
		if err == io.EOF {
			g.done = true
			if g.pending != nil {
				return g.emit(), nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if g.pending == nil {
			g.pending = t.Clone()
			g.prev = g.pending
			g.count = 1
			continue
		}
		if g.counters != nil {
			g.counters.Comp++
		}
		if is.Compare(g.pending, t, g.groupCols) == 0 {
			if g.distinct {
				if g.counters != nil {
					g.counters.Comp++
				}
				if is.CompareAll(g.prev, t) == 0 {
					continue // duplicate tuple, not counted
				}
			}
			g.count++
			g.prev = t.Clone()
			continue
		}
		out := g.emit()
		g.pending = t.Clone()
		g.prev = g.pending
		g.count = 1
		return out, nil
	}
}

// Close implements Operator.
func (g *SortedGroupCount) Close() error {
	g.opened = false
	return g.input.Close()
}

// HashGroupCount counts tuples per group with a main-memory hash table of
// output groups (§2.2.2): "each input tuple is either aggregated into an
// existing output tuple with matching grouping attributes, or it is used to
// create a new output tuple". The table holds only the (small) output, so
// the input need not fit in memory. It cannot skip input duplicates — the
// limitation the paper notes and hash-division's bit maps remove.
type HashGroupCount struct {
	input     Operator
	groupCols []int
	counters  *Counters
	schema    *tuple.Schema
	hbs       float64

	table    *hashtab.Table
	elems    []*hashtab.Element
	pos      int
	out      tuple.Tuple
	opened   bool
	expected int
}

// NewHashGroupCount counts per group of groupCols. expected sizes the table
// (average bucket size hbs); 0 picks a default.
func NewHashGroupCount(input Operator, groupCols []int, expected int, hbs float64, counters *Counters) *HashGroupCount {
	if expected <= 0 {
		expected = 256
	}
	return &HashGroupCount{
		input:     input,
		groupCols: append([]int(nil), groupCols...),
		counters:  counters,
		schema:    GroupCountSchema(input.Schema(), groupCols),
		hbs:       hbs,
		expected:  expected,
	}
}

// Schema implements Operator.
func (g *HashGroupCount) Schema() *tuple.Schema { return g.schema }

// Open implements Operator: the whole input is aggregated into the table.
func (g *HashGroupCount) Open() error {
	keySchema := g.input.Schema().Project(g.groupCols)
	g.table = hashtab.NewForExpected(keySchema, g.expected, g.hbs)
	if err := g.input.Open(); err != nil {
		return err
	}
	is := g.input.Schema()
	for {
		t, err := g.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			g.input.Close()
			return err
		}
		e, _ := g.table.GetOrInsertProjected(t, is, g.groupCols)
		e.Num++
	}
	if err := g.input.Close(); err != nil {
		return err
	}
	g.elems = g.elems[:0]
	g.table.Iterate(func(e *hashtab.Element) error {
		g.elems = append(g.elems, e)
		return nil
	})
	if g.counters != nil {
		st := g.table.Stats()
		g.counters.Hash += st.Hashes
		g.counters.Comp += st.Comparisons
	}
	g.pos = 0
	g.out = g.schema.New()
	g.opened = true
	return nil
}

// Next implements Operator.
func (g *HashGroupCount) Next() (tuple.Tuple, error) {
	if !g.opened {
		return nil, errNotOpen("HashGroupCount")
	}
	if g.pos >= len(g.elems) {
		return nil, io.EOF
	}
	e := g.elems[g.pos]
	g.pos++
	copy(g.out, e.Tuple)
	g.schema.SetInt64(g.out, g.schema.NumFields()-1, e.Num)
	return g.out, nil
}

// TableMemBytes reports the hash table footprint after Open, for overflow
// experiments.
func (g *HashGroupCount) TableMemBytes() int {
	if g.table == nil {
		return 0
	}
	return g.table.MemBytes()
}

// Close implements Operator.
func (g *HashGroupCount) Close() error {
	g.opened = false
	g.table.Release()
	g.table = nil
	g.elems = nil
	return nil
}

// ScalarCount drains op and returns its cardinality — the scalar aggregate
// that counts the divisor ("the courses offered by the university are
// counted using a scalar aggregate operator").
func ScalarCount(op Operator) (int64, error) {
	n, err := Drain(op)
	return int64(n), err
}

// HashDedup eliminates duplicate tuples with a hash table holding every
// distinct tuple. As the paper warns (§2.2.2), this "may be impractical for a
// very large dividend relation" because the whole distinct set must fit in
// memory; it exists for completeness and for small inputs.
type HashDedup struct {
	input    Operator
	counters *Counters
	table    *hashtab.Table
	opened   bool
}

// NewHashDedup wraps input with hash-based duplicate elimination.
func NewHashDedup(input Operator, counters *Counters) *HashDedup {
	return &HashDedup{input: input, counters: counters}
}

// Schema implements Operator.
func (d *HashDedup) Schema() *tuple.Schema { return d.input.Schema() }

// Open implements Operator.
func (d *HashDedup) Open() error {
	d.table = hashtab.NewForExpected(d.input.Schema(), 256, 2)
	d.opened = true
	return d.input.Open()
}

// Next implements Operator.
func (d *HashDedup) Next() (tuple.Tuple, error) {
	if !d.opened {
		return nil, errNotOpen("HashDedup")
	}
	for {
		t, err := d.input.Next()
		if err != nil {
			return nil, err
		}
		if _, created := d.table.GetOrInsert(t); created {
			return t, nil
		}
	}
}

// TableMemBytes reports the distinct-set footprint — the memory price of
// hash-based duplicate elimination the paper warns about.
func (d *HashDedup) TableMemBytes() int {
	if d.table == nil {
		return 0
	}
	return d.table.MemBytes()
}

// Close implements Operator.
func (d *HashDedup) Close() error {
	d.opened = false
	if d.counters != nil && d.table != nil {
		st := d.table.Stats()
		d.counters.Hash += st.Hashes
		d.counters.Comp += st.Comparisons
	}
	d.table.Release()
	d.table = nil
	return d.input.Close()
}
