// Package reldiv is a Go library for relational division — the relational
// algebra operator expressing universal quantification ("which students have
// taken ALL database courses?") — implementing the four algorithms of
//
//	Goetz Graefe, "Relational Division: Four Algorithms and Their
//	Performance", Oregon Graduate Center TR CS/E 88-022 (1988) / ICDE 1989,
//
// including the paper's new Hash-Division algorithm with early-emit
// streaming, quotient/divisor partitioning for hash table overflow, and a
// shared-nothing parallel execution mode with bit-vector filtering.
//
// # Quick start
//
//	orders := reldiv.NewRelation("orders",
//	    reldiv.Int64Col("customer"), reldiv.Int64Col("product"))
//	orders.MustInsert(1, 10) // customer 1 bought product 10 ...
//
//	products := reldiv.NewRelation("products", reldiv.Int64Col("product"))
//	products.MustInsert(10)
//
//	// Customers who bought every product:
//	quotient, err := reldiv.Divide(orders, products, nil, nil)
//
// The zero Options value picks the algorithm with the paper's cost model;
// set Options.Algorithm to force one, Options.Workers for parallel
// execution, or Options.MemoryBudget to exercise hash table overflow
// handling.
//
// # Fault tolerance and cancellation
//
// Queries are cancellable: DivideContext (and Options.Timeout) threads a
// context through the operator pipeline and the parallel workers, so
// cancellation stops a running division promptly, the first error wins, and
// no goroutine or buffer-pool frame outlives the call. The storage layer
// checksums every page on write-back and verifies it on read; transient
// device faults are retried with bounded backoff, and permanent corruption
// surfaces as a *disk.CorruptPageError. A panic inside an operator tree is
// recovered at the API boundary into an *exec.PanicError instead of crashing
// the process. See DESIGN.md §6 for the full contract.
package reldiv

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rewrite"
	"repro/internal/tuple"
)

// Column declares one relation column.
type Column struct {
	Name  string
	kind  tuple.Kind
	width int
}

// Int64Col declares a 64-bit integer column.
func Int64Col(name string) Column { return Column{Name: name, kind: tuple.KindInt64, width: 8} }

// StringCol declares a fixed-width string column of up to width bytes.
func StringCol(name string, width int) Column {
	return Column{Name: name, kind: tuple.KindChar, width: width}
}

// Relation is an in-memory relation with a fixed schema. Its rows live in
// one flat byte arena — row i at [i*w, (i+1)*w) for the schema width w, the
// layout of an execution batch and of a heap page's record area — so a
// durable snapshot is one copy per page and division scans the rows in
// place.
type Relation struct {
	name   string
	schema *tuple.Schema
	rows   []byte
}

// NewRelation creates an empty relation.
func NewRelation(name string, cols ...Column) *Relation {
	if len(cols) == 0 {
		panic("reldiv: relation needs at least one column")
	}
	fields := make([]tuple.Field, len(cols))
	for i, c := range cols {
		fields[i] = tuple.Field{Name: c.Name, Kind: c.kind, Width: c.width}
	}
	return &Relation{name: name, schema: tuple.NewSchema(fields...)}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Columns returns the column names in order.
func (r *Relation) Columns() []string { return r.schema.Columns() }

// NumRows returns the tuple count.
func (r *Relation) NumRows() int { return len(r.rows) / r.schema.Width() }

// Insert appends one row; values must match the schema (int/int64 for
// integer columns, string for string columns). A rejected row leaves the
// relation unchanged.
func (r *Relation) Insert(values ...any) error {
	n, w := len(r.rows), r.schema.Width()
	r.rows = slices.Grow(r.rows, w)[:n+w]
	if err := r.schema.MakeInto(r.rows[n:], values...); err != nil {
		r.rows = r.rows[:n]
		return err
	}
	return nil
}

// MustInsert is Insert panicking on error, for literals.
func (r *Relation) MustInsert(values ...any) {
	if err := r.Insert(values...); err != nil {
		panic(err)
	}
}

// row returns row i as a tuple aliasing the arena. Like indexing a slice,
// it panics when i is out of range.
func (r *Relation) row(i int) tuple.Tuple {
	w := r.schema.Width()
	rows := r.rows[:len(r.rows):len(r.rows)]
	return tuple.Tuple(rows[i*w : (i+1)*w : (i+1)*w])
}

// Rows returns every row as Go values.
func (r *Relation) Rows() [][]any {
	out := make([][]any, r.NumRows())
	for i := range out {
		out[i] = r.schema.Row(r.row(i))
	}
	return out
}

// Row returns row i.
func (r *Relation) Row(i int) []any { return r.schema.Row(r.row(i)) }

// Filter returns a new relation with the rows for which pred is true.
func (r *Relation) Filter(pred func(row []any) bool) *Relation {
	out := &Relation{name: r.name, schema: r.schema}
	for i := range r.NumRows() {
		if t := r.row(i); pred(r.schema.Row(t)) {
			out.rows = append(out.rows, t...)
		}
	}
	return out
}

// Project returns a new relation holding the named columns (duplicates are
// NOT eliminated; division ignores them anyway).
func (r *Relation) Project(cols ...string) (*Relation, error) {
	idx, err := r.columnIndexes(cols)
	if err != nil {
		return nil, err
	}
	out := &Relation{name: r.name, schema: r.schema.Project(idx)}
	pw := out.schema.Width()
	out.rows = make([]byte, r.NumRows()*pw)
	for i := range r.NumRows() {
		r.schema.ProjectInto(out.rows[i*pw:(i+1)*pw], r.row(i), idx)
	}
	return out, nil
}

// scan returns a zero-copy scan of the relation's arena.
func (r *Relation) scan() *exec.ArenaScan { return exec.NewArenaScan(r.schema, r.rows) }

func (r *Relation) columnIndexes(cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := r.schema.IndexOf(c)
		if j < 0 {
			return nil, fmt.Errorf("reldiv: relation %s has no column %q", r.name, c)
		}
		idx[i] = j
	}
	return idx, nil
}

// String renders the relation like a small table.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%s: %d rows", r.name, r.schema, r.NumRows())
}

// Algorithm selects a division algorithm in Options.
type Algorithm int

// The available algorithms. Auto picks by the paper's cost model among the
// algorithms that are correct for arbitrary inputs.
const (
	Auto Algorithm = iota
	Naive
	SortAggregation
	SortAggregationJoin
	HashAggregation
	HashAggregationJoin
	HashDivision
)

var algNames = map[Algorithm]string{
	Auto: "auto", Naive: "naive",
	SortAggregation: "sort-agg", SortAggregationJoin: "sort-agg+join",
	HashAggregation: "hash-agg", HashAggregationJoin: "hash-agg+join",
	HashDivision: "hash-division",
}

func (a Algorithm) String() string {
	if n, ok := algNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a name like "hash-division" or "auto".
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, n := range algNames {
		if n == name {
			return a, nil
		}
	}
	return Auto, fmt.Errorf("reldiv: unknown algorithm %q", name)
}

func (a Algorithm) internal() (division.Algorithm, error) {
	switch a {
	case Naive:
		return division.AlgNaive, nil
	case SortAggregation:
		return division.AlgSortAgg, nil
	case SortAggregationJoin:
		return division.AlgSortAggJoin, nil
	case HashAggregation:
		return division.AlgHashAgg, nil
	case HashAggregationJoin:
		return division.AlgHashAggJoin, nil
	case HashDivision:
		return division.AlgHashDivision, nil
	default:
		return 0, fmt.Errorf("reldiv: algorithm %v has no direct implementation", a)
	}
}

// Options tune Divide. The zero value is valid: cost-based algorithm choice,
// serial execution, no memory budget.
type Options struct {
	// Algorithm forces a specific algorithm; Auto (default) picks with the
	// cost model. Note that SortAggregation and HashAggregation (without
	// join) are only correct when every dividend row's divisor attributes
	// appear in the divisor; Auto never picks them.
	Algorithm Algorithm
	// AssumeUniqueInputs skips duplicate handling in the sort- and
	// aggregation-based algorithms (hash-division never needs it).
	AssumeUniqueInputs bool
	// MemoryBudget bounds hash-division's table memory in bytes. A positive
	// budget runs recursive hash-division, whatever Algorithm says, which
	// re-partitions on the quotient attributes (§3.4) only the cells whose
	// tables outgrow it, spilling through a buffer pool of
	// buffer.PaperPoolBytes. Divide and DivideStream follow the same rule.
	MemoryBudget int
	// Workers > 1 runs hash-division on a simulated shared-nothing
	// multi-processor (§6), on Divide and DivideStream alike; Algorithm,
	// MemoryBudget and EarlyEmit do not apply then.
	Workers int
	// DivisorPartitioned selects divisor partitioning instead of quotient
	// partitioning for parallel runs.
	DivisorPartitioned bool
	// BitVectorFilter enables Babb bit-vector filtering of the dividend
	// shuffle in parallel runs.
	BitVectorFilter bool
	// EarlyEmit uses the streaming hash-division variant (§3.3) when
	// neither Workers > 1 nor a MemoryBudget plans the division.
	EarlyEmit bool
	// Timeout bounds the wall-clock time of one division; zero means no
	// limit. Exceeding it aborts the query with context.DeadlineExceeded.
	Timeout time.Duration
}

// matchColumns resolves the dividend columns matched against the divisor:
// explicit names, or (when on is nil) the divisor's column names looked up
// in the dividend.
func matchColumns(dividend, divisor *Relation, on []string) ([]int, error) {
	if on == nil {
		on = divisor.Columns()
	}
	if len(on) != divisor.schema.NumFields() {
		return nil, fmt.Errorf("reldiv: %d match columns for a %d-column divisor",
			len(on), divisor.schema.NumFields())
	}
	return dividend.columnIndexes(on)
}

func (o *Options) orDefault() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// withTimeout bounds ctx by Timeout when one is set.
func (o Options) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// Divide computes dividend ÷ divisor: the rows of the dividend's remaining
// columns that co-occur with EVERY divisor row. on names the dividend
// columns matched (positionally) against the divisor's columns; nil matches
// the divisor's column names. A nil opts uses defaults.
//
// Duplicates in either input are tolerated and ignored. An empty divisor
// yields an empty quotient (the convention of all four paper algorithms).
func Divide(dividend, divisor *Relation, on []string, opts *Options) (*Relation, error) {
	return DivideContext(context.Background(), dividend, divisor, on, opts)
}

// wrapCancel threads ctx into the spec's input scans so the whole operator
// tree fails promptly once ctx is done. A context that can never be cancelled
// (context.Background and friends have a nil Done channel) leaves the plan —
// and the serial hot path — untouched.
func wrapCancel(ctx context.Context, sp *division.Spec) {
	if ctx.Done() == nil {
		return
	}
	sp.Dividend = exec.NewContextScan(ctx, sp.Dividend)
	sp.Divisor = exec.NewContextScan(ctx, sp.Divisor)
}

// DivideContext is Divide under a context: cancelling ctx (or exceeding
// Options.Timeout) aborts the division promptly — including all parallel
// workers — and returns ctx's error. The first error to occur wins; a
// cancelled run leaks no goroutines and no buffer-pool frames.
//
// Every call updates the obs.Default registry: "reldiv.divisions" counts
// calls, "reldiv.division_errors" failures, "reldiv.quotient_rows" result
// rows — an expvar-style snapshot of library activity.
func DivideContext(ctx context.Context, dividend, divisor *Relation, on []string, opts *Options) (*Relation, error) {
	rel, err := divide(ctx, dividend, divisor, on, opts, nil, nil)
	obs.Default.Counter("reldiv.divisions").Inc()
	if err != nil {
		obs.Default.Counter("reldiv.division_errors").Inc()
		return nil, err
	}
	obs.Default.Counter("reldiv.quotient_rows").Add(int64(rel.NumRows()))
	return rel, nil
}

// ExplainAnalyze executes the division with full instrumentation and returns
// the quotient alongside the executed profile: a span tree annotated with
// rows, wall time, and per-operator exec.Counters deltas whose selves sum to
// the query total. The plan and every option, Timeout included, are those of
// Divide. Parallel runs (Workers > 1) profile per-worker spans with rows and
// wall time only — worker counters would race.
func ExplainAnalyze(dividend, divisor *Relation, on []string, opts *Options) (*Relation, *obs.Profile, error) {
	counters := &exec.Counters{}
	tracer := obs.NewTracer()
	rel, err := divide(context.Background(), dividend, divisor, on, opts, tracer, counters)
	if err != nil {
		return nil, nil, err
	}
	return rel, tracer.Profile(counters), nil
}

// divide runs one division of two relations under run's plan rule, with
// Auto choosing the algorithm by the cost model. A non-nil tracer and
// counters record an EXPLAIN ANALYZE profile; DivideContext passes nil for
// both.
func divide(ctx context.Context, dividend, divisor *Relation, on []string, opts *Options, tracer *obs.Tracer, counters *exec.Counters) (*Relation, error) {
	o := opts.orDefault()
	ctx, cancel := o.withTimeout(ctx)
	defer cancel()
	cols, err := matchColumns(dividend, divisor, on)
	if err != nil {
		return nil, err
	}
	sp := division.Spec{
		Dividend:    dividend.scan(),
		Divisor:     divisor.scan(),
		DivisorCols: cols,
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	env := division.Env{
		AssumeUniqueInputs: o.AssumeUniqueInputs,
		ExpectedDivisor:    divisor.NumRows(),
		Counters:           counters,
		Trace:              tracer,
	}
	q := quotientRelation(dividend, divisor, sp, nil)
	err = run(ctx, sp, o, env, func() Algorithm { return choose(dividend, divisor) }, func(t tuple.Tuple) error {
		q.rows = append(q.rows, t...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// run divides sp under o and hands every quotient tuple to emit, valid for
// the call only. It is the one plan rule of Divide and DivideStream:
//   - Workers > 1 runs parallel hash-division with o's strategy and filter,
//     and emits the quotient once the workers finish; Algorithm,
//     MemoryBudget and EarlyEmit do not apply.
//   - Otherwise a MemoryBudget runs recursive hash-division, whatever
//     Algorithm says.
//   - Otherwise Algorithm runs, Auto resolved by auto, with EarlyEmit under
//     hash-division.
//
// env supplies the sizing, counters and trace; run adds the buffer pool,
// the temporary device and the budget.
func run(ctx context.Context, sp division.Spec, o Options, env division.Env, auto func() Algorithm, emit func(tuple.Tuple) error) error {
	if o.Workers > 1 {
		strategy := division.QuotientPartitioning
		if o.DivisorPartitioned {
			strategy = division.DivisorPartitioning
		}
		res, err := parallel.DivideContext(ctx, sp, parallel.Config{
			Workers:         o.Workers,
			Strategy:        strategy,
			BitVectorFilter: o.BitVectorFilter,
			Trace:           env.Trace,
		})
		if err != nil {
			return err
		}
		for _, t := range res.Quotient {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
	wrapCancel(ctx, &sp)
	env.Pool = buffer.New(buffer.PaperPoolBytes)
	env.TempDev = disk.NewDevice("temp", disk.PaperRunPageSize)

	var op exec.Operator
	if o.MemoryBudget > 0 {
		env.MemoryBudget = o.MemoryBudget
		op = division.NewRecursiveHashDivision(sp, env, division.QuotientPartitioning, division.RecursiveOptions{})
	} else {
		alg := o.Algorithm
		if alg == Auto {
			alg = auto()
		}
		ialg, err := alg.internal()
		if err != nil {
			return err
		}
		if op, err = division.NewWithOptions(ialg, sp, env, division.HashDivisionOptions{EarlyEmit: o.EarlyEmit}); err != nil {
			return err
		}
	}
	return exec.ForEach(op, emit)
}

// quotientRelation copies an operator's quotient tuples into the arena of
// the result relation dividend÷divisor — at most one row per candidate.
func quotientRelation(dividend, divisor *Relation, sp division.Spec, qts []tuple.Tuple) *Relation {
	qs := sp.QuotientSchema()
	rows := make([]byte, 0, len(qts)*qs.Width())
	for _, q := range qts {
		rows = append(rows, q...)
	}
	return &Relation{name: fmt.Sprintf("%s÷%s", dividend.name, divisor.name), schema: qs, rows: rows}
}

// ExplainPlan renders the logical plans the optimizer rule compares for this
// division: the §2.2 aggregation encoding (semi-join, group count, count =
// cardinality) a division-less system would run, and the tree after the
// for-all rewrite rule replaces the pattern with a Division node.
func ExplainPlan(dividend, divisor *Relation, on []string) (original, rewritten string, err error) {
	cols, err := matchColumns(dividend, divisor, on)
	if err != nil {
		return "", "", err
	}
	dividendRel := rewrite.NewRel(dividend.name, dividend.schema, func() exec.Operator {
		return dividend.scan()
	})
	// The same *Rel must appear as the semi-join's right input and as the
	// scalar count's relation — the rule requires the subplans to be
	// identical, which it checks by pointer.
	divisorRel := rewrite.NewRel(divisor.name, divisor.schema, func() exec.Operator {
		return divisor.scan()
	})
	plan := &rewrite.CountEqCard{
		Input: &rewrite.GroupCount{
			Input: &rewrite.SemiJoin{
				Left: dividendRel, Right: divisorRel,
				LeftCols: cols, RightCols: divisor.schema.AllColumns(),
			},
			GroupCols: dividend.schema.Complement(cols),
		},
		Of: divisorRel,
	}
	original = rewrite.Format(plan)
	out, _ := rewrite.Rewrite(plan)
	return original, rewrite.Format(out), nil
}

// RunStats reports what one hash-division execution did, EXPLAIN
// ANALYZE-style.
type RunStats struct {
	DivisorTuples    int64 // divisor rows read
	DivisorDistinct  int64 // after on-the-fly duplicate elimination
	DividendTuples   int64 // dividend rows read
	DiscardedNoMatch int64 // dividend rows with no divisor match (dropped in step 2)
	Candidates       int64 // quotient candidates entered in the quotient table
	QuotientRows     int64 // candidates whose bit map had no zero
	PeakTableBytes   int   // high-water mark of the two hash tables
}

// DivideWithStats runs one in-memory hash-division and returns the quotient
// together with the execution statistics. It does not re-partition: a
// MemoryBudget its tables outgrow fails the call with the division's
// memory-budget error. Timeout bounds the call as it bounds Divide.
func DivideWithStats(dividend, divisor *Relation, on []string, opts *Options) (*Relation, RunStats, error) {
	o := opts.orDefault()
	ctx, cancel := o.withTimeout(context.Background())
	defer cancel()
	cols, err := matchColumns(dividend, divisor, on)
	if err != nil {
		return nil, RunStats{}, err
	}
	sp := division.Spec{
		Dividend:    dividend.scan(),
		Divisor:     divisor.scan(),
		DivisorCols: cols,
	}
	if err := sp.Validate(); err != nil {
		return nil, RunStats{}, err
	}
	wrapCancel(ctx, &sp)
	env := division.Env{
		Pool:            buffer.New(buffer.PaperPoolBytes),
		TempDev:         disk.NewDevice("temp", disk.PaperRunPageSize),
		MemoryBudget:    o.MemoryBudget,
		ExpectedDivisor: divisor.NumRows(),
	}
	hd := division.NewHashDivision(sp, env, division.HashDivisionOptions{EarlyEmit: o.EarlyEmit})
	qts, err := exec.Collect(hd)
	if err != nil {
		return nil, RunStats{}, err
	}
	st := hd.Stats()
	return quotientRelation(dividend, divisor, sp, qts), RunStats{
		DivisorTuples:    st.DivisorTuples,
		DivisorDistinct:  st.DivisorDistinct,
		DividendTuples:   st.DividendTuples,
		DiscardedNoMatch: st.DiscardedNoMatch,
		Candidates:       st.Candidates,
		QuotientRows:     st.QuotientTuples,
		PeakTableBytes:   st.PeakTableBytes,
	}, nil
}

// Plan describes the cost-based choice Explain and Auto make.
type Plan struct {
	Chosen Algorithm
	// EstimatedMS maps each candidate algorithm to its §4 cost estimate.
	EstimatedMS map[Algorithm]float64
}

// candidates lists the algorithms correct on arbitrary inputs, paired with
// their cost-model column.
var candidates = []struct {
	alg Algorithm
	col int
}{
	{Naive, 0},
	{SortAggregationJoin, 2},
	{HashAggregationJoin, 4},
	{HashDivision, 5},
}

// choose picks the cheapest generally-correct algorithm by the §4 cost
// model, estimating |Q| as the number of dividend rows divided by divisor
// rows (the R = Q × S shape).
func choose(dividend, divisor *Relation) Algorithm {
	return explain(dividend, divisor).Chosen
}

func explain(dividend, divisor *Relation) Plan {
	s := divisor.NumRows()
	if s < 1 {
		s = 1
	}
	q := dividend.NumRows() / s
	if q < 1 {
		q = 1
	}
	p := costmodel.PaperParams(s, q)
	p.RTuples = dividend.NumRows()
	if p.RTuples < 1 {
		p.RTuples = 1
	}
	costs := p.AlgorithmCosts()
	plan := Plan{Chosen: HashDivision, EstimatedMS: make(map[Algorithm]float64)}
	best := -1.0
	for _, c := range candidates {
		plan.EstimatedMS[c.alg] = costs[c.col]
		if best < 0 || costs[c.col] < best {
			best = costs[c.col]
			plan.Chosen = c.alg
		}
	}
	return plan
}

// Explain returns the plan Auto would use for this division, with the
// per-algorithm cost estimates in analytical milliseconds.
func Explain(dividend, divisor *Relation, on []string) (Plan, error) {
	if _, err := matchColumns(dividend, divisor, on); err != nil {
		return Plan{}, err
	}
	return explain(dividend, divisor), nil
}

// FromCSV reads a relation from CSV (no header row) with the declared
// columns.
func FromCSV(r io.Reader, name string, cols ...Column) (*Relation, error) {
	rel := NewRelation(name, cols...)
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(cols)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reldiv: csv: %w", err)
		}
		values := make([]any, len(rec))
		for i, f := range rec {
			if cols[i].kind == tuple.KindInt64 {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("reldiv: csv column %s: %w", cols[i].Name, err)
				}
				values[i] = v
			} else {
				values[i] = f
			}
		}
		if err := rel.Insert(values...); err != nil {
			return nil, err
		}
	}
}

// WriteCSV writes the relation as CSV (no header row).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for i := range r.NumRows() {
		row := r.Row(i)
		rec := make([]string, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int64:
				rec[i] = strconv.FormatInt(x, 10)
			case string:
				rec[i] = x
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
