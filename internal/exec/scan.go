package exec

import (
	"fmt"
	"io"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// TableScan streams a heap file's records in storage order. It serves both
// execution protocols: Next hands out one record at a time, NextBatch hands
// out one batch per heap page with the tuples aliasing the pinned buffer
// frame (zero copies). Use one protocol per Open.
type TableScan struct {
	file   *storage.File
	keep   bool
	opened bool
	sc     *storage.Scanner
	ps     *storage.PageScanner
}

// NewTableScan scans file. keepPages is the buffer unfix hint: true keeps
// pages cached for rescans, false releases them immediately (large inputs
// read once).
func NewTableScan(file *storage.File, keepPages bool) *TableScan {
	return &TableScan{file: file, keep: keepPages}
}

// Schema implements Operator.
func (t *TableScan) Schema() *tuple.Schema { return t.file.Schema() }

// Open implements Operator.
func (t *TableScan) Open() error {
	if err := t.Close(); err != nil {
		return err
	}
	t.opened = true
	return nil
}

// Next implements Operator.
func (t *TableScan) Next() (tuple.Tuple, error) {
	if !t.opened {
		return nil, errNotOpen("TableScan")
	}
	if t.sc == nil {
		t.sc = t.file.Scan(t.keep)
	}
	tp, _, err := t.sc.Next()
	return tp, err
}

// NextBatch implements BatchOperator: it is a page-range scan over
// [0, NumPages), the file's pages at the first call, handing out one heap
// page per batch (see nextPageBatch).
func (t *TableScan) NextBatch(b *Batch) error {
	if !t.opened {
		return errNotOpen("TableScan")
	}
	if t.ps == nil {
		t.ps = t.file.ScanPageRange(0, t.file.NumPages(), t.keep)
	}
	return nextPageBatch(t.ps, b)
}

// Close implements Operator.
func (t *TableScan) Close() error {
	t.opened = false
	var err error
	if t.sc != nil {
		err = t.sc.Close()
		t.sc = nil
	}
	if t.ps != nil {
		if perr := t.ps.Close(); err == nil {
			err = perr
		}
		t.ps = nil
	}
	return err
}

// MemScan streams an in-memory slice of tuples, mainly for tests and small
// constant relations.
type MemScan struct {
	schema *tuple.Schema
	tuples []tuple.Tuple
	pos    int
	open   bool
}

// NewMemScan wraps tuples of the given schema.
func NewMemScan(schema *tuple.Schema, tuples []tuple.Tuple) *MemScan {
	return &MemScan{schema: schema, tuples: tuples}
}

// Schema implements Operator.
func (m *MemScan) Schema() *tuple.Schema { return m.schema }

// Open implements Operator.
func (m *MemScan) Open() error {
	m.pos = 0
	m.open = true
	return nil
}

// Next implements Operator.
func (m *MemScan) Next() (tuple.Tuple, error) {
	if !m.open {
		return nil, errNotOpen("MemScan")
	}
	if m.pos >= len(m.tuples) {
		return nil, io.EOF
	}
	t := m.tuples[m.pos]
	m.pos++
	return t, nil
}

// Close implements Operator.
func (m *MemScan) Close() error {
	m.open = false
	return nil
}

// ArenaScan streams fixed-width tuples stored back to back in one byte
// slice — tuple i at [i*w, (i+1)*w), the layout of Batch and of a heap
// page's record area. Both protocols hand out views of the arena, never
// copies: Next returns a capped subslice, NextBatch aliases the batch at
// the next run of tuples (the zero-copy contract of TableScan's pinned
// pages, with the arena as the pinned memory). The arena must not change
// while a scan is open.
type ArenaScan struct {
	schema *tuple.Schema
	rows   []byte
	off    int // byte offset of the next tuple
	open   bool
}

// NewArenaScan scans rows, which must hold whole tuples of schema.
func NewArenaScan(schema *tuple.Schema, rows []byte) *ArenaScan {
	if len(rows)%schema.Width() != 0 {
		panic(fmt.Sprintf("exec: arena of %d bytes is not whole %d-byte tuples", len(rows), schema.Width()))
	}
	return &ArenaScan{schema: schema, rows: rows}
}

// Schema implements Operator.
func (a *ArenaScan) Schema() *tuple.Schema { return a.schema }

// Open implements Operator.
func (a *ArenaScan) Open() error {
	a.off = 0
	a.open = true
	return nil
}

// Next implements Operator. The tuple aliases the arena, capped so an
// append cannot clobber its neighbor.
func (a *ArenaScan) Next() (tuple.Tuple, error) {
	if !a.open {
		return nil, errNotOpen("ArenaScan")
	}
	if a.off >= len(a.rows) {
		return nil, io.EOF
	}
	end := a.off + a.schema.Width()
	t := tuple.Tuple(a.rows[a.off:end:end])
	a.off = end
	return t, nil
}

// NextBatch implements BatchOperator: the batch aliases the next b.Cap()
// tuples of the arena (fewer at its end) without copying a byte.
func (a *ArenaScan) NextBatch(b *Batch) error {
	if !a.open {
		return errNotOpen("ArenaScan")
	}
	if a.off >= len(a.rows) {
		return io.EOF
	}
	w := a.schema.Width()
	n := min(b.Cap(), (len(a.rows)-a.off)/w)
	b.SetAlias(a.rows[a.off:], n)
	a.off += n * w
	return nil
}

// Close implements Operator.
func (a *ArenaScan) Close() error {
	a.open = false
	return nil
}

// Filter passes through tuples satisfying pred.
type Filter struct {
	input   Operator
	pred    func(tuple.Tuple) bool
	scratch *Batch // input batch reused by NextBatch
}

// NewFilter wraps input with a selection predicate.
func NewFilter(input Operator, pred func(tuple.Tuple) bool) *Filter {
	return &Filter{input: input, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *tuple.Schema { return f.input.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.input.Open() }

// Next implements Operator.
func (f *Filter) Next() (tuple.Tuple, error) {
	for {
		t, err := f.input.Next()
		if err != nil {
			return nil, err
		}
		if f.pred(t) {
			return t, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	if f.scratch != nil {
		f.scratch.Release()
		f.scratch = nil
	}
	return f.input.Close()
}

// Project narrows tuples to a column subset (possibly reordered). It does
// NOT eliminate duplicates; combine with Sort{Dedup} or HashDedup for
// set-semantics projection.
type Project struct {
	input   Operator
	cols    []int
	schema  *tuple.Schema
	buf     tuple.Tuple
	scratch *Batch // input batch reused by NextBatch
}

// NewProject projects input onto cols.
func NewProject(input Operator, cols []int) *Project {
	return &Project{
		input:  input,
		cols:   append([]int(nil), cols...),
		schema: input.Schema().Project(cols),
	}
}

// Schema implements Operator.
func (p *Project) Schema() *tuple.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error {
	p.buf = p.schema.New()
	return p.input.Open()
}

// Next implements Operator. The returned tuple aliases an internal buffer
// reused across calls.
func (p *Project) Next() (tuple.Tuple, error) {
	t, err := p.input.Next()
	if err != nil {
		return nil, err
	}
	return p.input.Schema().ProjectInto(p.buf, t, p.cols), nil
}

// Close implements Operator.
func (p *Project) Close() error {
	if p.scratch != nil {
		p.scratch.Release()
		p.scratch = nil
	}
	return p.input.Close()
}

// Materialize writes its input into a heap file at Open time and then scans
// the file; it turns any stream into a rescannable relation. Pages written
// are charged as Move units (memory-to-memory page copies) on the counters.
type Materialize struct {
	input    Operator
	file     *storage.File
	scan     *TableScan
	counters *Counters
}

// NewMaterialize materializes input into file (which must be empty and share
// the input's schema width). counters may be nil.
func NewMaterialize(input Operator, file *storage.File, counters *Counters) *Materialize {
	return &Materialize{input: input, file: file, counters: counters}
}

// Schema implements Operator.
func (m *Materialize) Schema() *tuple.Schema { return m.input.Schema() }

// File exposes the backing file after Open.
func (m *Materialize) File() *storage.File { return m.file }

// Open implements Operator: it drains the input into the file. Re-opening
// re-materializes from scratch.
func (m *Materialize) Open() error {
	if m.file.NumRecords() > 0 {
		if err := m.file.Drop(); err != nil {
			return err
		}
	}
	if err := m.input.Open(); err != nil {
		return err
	}
	ap := m.file.NewAppender()
	for {
		t, err := m.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			ap.Close()
			m.input.Close()
			return err
		}
		if _, err := ap.Append(t); err != nil {
			ap.Close()
			m.input.Close()
			return err
		}
	}
	if err := ap.Close(); err != nil {
		m.input.Close()
		return err
	}
	if err := m.input.Close(); err != nil {
		return err
	}
	if m.counters != nil {
		m.counters.Move += int64(m.file.NumPages())
	}
	m.scan = NewTableScan(m.file, true)
	return m.scan.Open()
}

// Next implements Operator.
func (m *Materialize) Next() (tuple.Tuple, error) {
	if m.scan == nil {
		return nil, errNotOpen("Materialize")
	}
	return m.scan.Next()
}

// Close implements Operator.
func (m *Materialize) Close() error {
	if m.scan == nil {
		return nil
	}
	err := m.scan.Close()
	m.scan = nil
	return err
}
