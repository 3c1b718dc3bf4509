package reldiv

import (
	"context"
	"fmt"
	"io"

	"repro/internal/division"
	"repro/internal/tuple"
)

// RowReader supplies rows one at a time; Next returns io.EOF after the last
// row. Rows must match the declared columns (int/int64 for integer columns,
// string for string columns).
type RowReader interface {
	Next() ([]any, error)
}

// RowReaderFunc adapts a function to RowReader.
type RowReaderFunc func() ([]any, error)

// Next implements RowReader.
func (f RowReaderFunc) Next() ([]any, error) { return f() }

// SliceReader returns a RowReader over a fixed slice of rows.
func SliceReader(rows [][]any) RowReader {
	i := 0
	return RowReaderFunc(func() ([]any, error) {
		if i >= len(rows) {
			return nil, io.EOF
		}
		r := rows[i]
		i++
		return r, nil
	})
}

// StreamInput describes one streamed relation: its columns and a factory
// producing a fresh reader. The factory may be called more than once —
// several algorithms scan an input twice (e.g. the divisor for the scalar
// count), so the stream must be replayable.
type StreamInput struct {
	Columns []Column
	Open    func() (RowReader, error)
}

// StreamInput exposes a durable table as a streamed relation, so divisions
// can run straight off WAL-backed storage (including tables just restored
// by crash recovery) without materializing a Relation first. Each Open
// starts a fresh scan; rows inserted after a reader is opened may or may
// not be seen by it, but every row acknowledged before the call to
// DivideStream is.
func (t *DurableTable) StreamInput() StreamInput {
	cols := make([]Column, t.schema.NumFields())
	for i := range cols {
		f := t.schema.Field(i)
		cols[i] = Column{Name: f.Name, kind: f.Kind, width: f.Width}
	}
	return StreamInput{
		Columns: cols,
		Open: func() (RowReader, error) {
			// Snapshot under the table lock: readers must not race the
			// appender writing into the same buffer frames. The snapshot
			// is one arena copy; rows are decoded one per Next.
			rel, err := t.Relation()
			if err != nil {
				return nil, err
			}
			i := 0
			return RowReaderFunc(func() ([]any, error) {
				if i >= rel.NumRows() {
					return nil, io.EOF
				}
				row := rel.Row(i)
				i++
				return row, nil
			}), nil
		},
	}
}

// rowSourceOp adapts a StreamInput to the internal iterator protocol.
type rowSourceOp struct {
	in     StreamInput
	schema *tuple.Schema
	reader RowReader
	buf    tuple.Tuple
}

func newRowSourceOp(in StreamInput) (*rowSourceOp, error) {
	if len(in.Columns) == 0 {
		return nil, fmt.Errorf("reldiv: stream input needs columns")
	}
	if in.Open == nil {
		return nil, fmt.Errorf("reldiv: stream input needs an Open factory")
	}
	fields := make([]tuple.Field, len(in.Columns))
	for i, c := range in.Columns {
		fields[i] = tuple.Field{Name: c.Name, Kind: c.kind, Width: c.width}
	}
	return &rowSourceOp{in: in, schema: tuple.NewSchema(fields...)}, nil
}

func (r *rowSourceOp) Schema() *tuple.Schema { return r.schema }

func (r *rowSourceOp) Open() error {
	reader, err := r.in.Open()
	if err != nil {
		return err
	}
	r.reader = reader
	r.buf = r.schema.New()
	return nil
}

func (r *rowSourceOp) Next() (tuple.Tuple, error) {
	if r.reader == nil {
		return nil, fmt.Errorf("reldiv: stream read before open")
	}
	row, err := r.reader.Next()
	if err != nil {
		return nil, err
	}
	if err := r.schema.MakeInto(r.buf, row...); err != nil {
		return nil, err
	}
	return r.buf, nil
}

func (r *rowSourceOp) Close() error {
	if c, ok := r.reader.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return err
		}
	}
	r.reader = nil
	return nil
}

// DivideStream divides a streamed dividend by a streamed divisor without
// materializing either as a Relation, invoking emit for every quotient row.
// on names the dividend columns matched against the divisor's columns (nil
// matches by column name). The options plan the division as they plan
// Divide's, except that Auto means hash-division, since a stream has no
// statistics for the cost model:
//   - Workers > 1 runs parallel hash-division over the streams (each read
//     by a single reader) and emits the quotient once the workers finish.
//   - Otherwise a MemoryBudget runs recursive hash-division, whatever
//     Algorithm says.
//   - Otherwise, with EarlyEmit and hash-division, quotient rows are emitted
//     as soon as they complete, before the dividend is fully consumed —
//     hash-division as "a producer in a dataflow query processing system"
//     (§3.3). EarlyEmit does not apply to the first two plans.
func DivideStream(dividend, divisor StreamInput, on []string, opts *Options, emit func(row []any) error) error {
	return DivideStreamContext(context.Background(), dividend, divisor, on, opts, emit)
}

// DivideStreamContext is DivideStream under a context: cancelling ctx (or
// exceeding Options.Timeout) stops consuming the input streams promptly and
// returns ctx's error; the operator tree is closed on every path.
func DivideStreamContext(ctx context.Context, dividend, divisor StreamInput, on []string, opts *Options, emit func(row []any) error) error {
	o := opts.orDefault()
	ctx, cancel := o.withTimeout(ctx)
	defer cancel()
	dividendOp, err := newRowSourceOp(dividend)
	if err != nil {
		return err
	}
	divisorOp, err := newRowSourceOp(divisor)
	if err != nil {
		return err
	}

	if on == nil {
		on = divisorOp.schema.Columns()
	}
	cols := make([]int, len(on))
	for i, c := range on {
		j := dividendOp.schema.IndexOf(c)
		if j < 0 {
			return fmt.Errorf("reldiv: dividend has no column %q", c)
		}
		cols[i] = j
	}
	sp := division.Spec{
		Dividend:    dividendOp,
		Divisor:     divisorOp,
		DivisorCols: cols,
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	qs := sp.QuotientSchema()
	env := division.Env{AssumeUniqueInputs: o.AssumeUniqueInputs}
	return run(ctx, sp, o, env, func() Algorithm { return HashDivision }, func(t tuple.Tuple) error {
		return emit(qs.Row(t))
	})
}
