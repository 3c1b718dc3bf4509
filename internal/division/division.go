// Package division is the paper's core contribution: four algorithms for
// relational division R(r,s) ÷ S(s), the algebra operator expressing
// universal quantification.
//
//   - Naive division (§2.1): merging scan over sorted inputs.
//   - Division by sort-based aggregation (§2.2.1), with and without a
//     preceding merge semi-join.
//   - Division by hash-based aggregation (§2.2.2), with and without a
//     preceding hash semi-join.
//   - Hash-Division (§3): the new algorithm with a divisor table and a
//     quotient table of bit maps, including the early-emit streaming
//     variant, duplicate handling, and the quotient/divisor partitioning
//     strategies for hash table overflow and parallel execution.
//
// Every algorithm is an exec.Operator producing the quotient relation; all
// agree on these semantics: the quotient contains each distinct combination
// of quotient attributes that co-occurs in the dividend with EVERY divisor
// tuple. Following the paper's algorithms (Figure 1 discards dividend tuples
// without a divisor match, aggregation drops zero counts), an empty divisor
// yields an empty quotient.
package division

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// Spec describes one division problem.
//
// Dividend columns listed in DivisorCols are matched positionally against
// ALL divisor columns (the divisor is matched on all attributes, §3.1). The
// remaining dividend columns are the quotient attributes. Inputs are
// operators; algorithms may Open each input more than once, so inputs must
// be re-openable (table scans and memory scans are).
type Spec struct {
	Dividend    exec.Operator
	Divisor     exec.Operator
	DivisorCols []int
}

// Validate checks column compatibility.
func (sp Spec) Validate() error {
	ds := sp.Dividend.Schema()
	ss := sp.Divisor.Schema()
	if len(sp.DivisorCols) != ss.NumFields() {
		return fmt.Errorf("division: %d divisor columns mapped, divisor has %d",
			len(sp.DivisorCols), ss.NumFields())
	}
	if len(sp.DivisorCols) == 0 {
		return fmt.Errorf("division: divisor must have at least one column")
	}
	if len(sp.DivisorCols) >= ds.NumFields() {
		return fmt.Errorf("division: dividend needs at least one quotient column")
	}
	seen := make(map[int]bool)
	for i, c := range sp.DivisorCols {
		if c < 0 || c >= ds.NumFields() {
			return fmt.Errorf("division: divisor column %d out of dividend range", c)
		}
		if seen[c] {
			return fmt.Errorf("division: divisor column %d mapped twice", c)
		}
		seen[c] = true
		df, sf := ds.Field(c), ss.Field(i)
		if df.Kind != sf.Kind || df.Width != sf.Width {
			return fmt.Errorf("division: dividend column %d (%v) incompatible with divisor column %d (%v)",
				c, df, i, sf)
		}
	}
	return nil
}

// QuotientCols returns the dividend columns that form the quotient.
func (sp Spec) QuotientCols() []int {
	return sp.Dividend.Schema().Complement(sp.DivisorCols)
}

// QuotientSchema returns the layout of the result tuples.
func (sp Spec) QuotientSchema() *tuple.Schema {
	return sp.Dividend.Schema().Project(sp.QuotientCols())
}

// Env carries the execution resources an algorithm may need: a buffer pool
// and temp device for external sorts and partition spill files, the sort
// memory budget, hash table sizing, and optional deterministic CPU counters.
type Env struct {
	Pool      *buffer.Pool
	TempDev   disk.Dev
	SortBytes int // external sort budget; 0 = paper default (100 KB)
	// MemoryBudget is the query's memory budget in bytes (the table share
	// of an admission grant, see SplitGrant, or Options.MemoryBudget). When
	// positive it bounds hash-division's divisor and quotient tables, which
	// fail with ErrMemoryBudget once they outgrow it (RecursiveHashDivision
	// re-partitions instead), and it caps any default that would otherwise
	// exceed it, notably the external-sort space. Zero leaves the tables
	// unbounded and the paper defaults untouched.
	MemoryBudget int
	HBS          float64 // target average hash bucket size; 0 = 2 (§4.6)
	// ExpectedDivisor/ExpectedQuotient size the hash tables; 0 picks
	// defaults and lets the tables grow.
	ExpectedDivisor  int
	ExpectedQuotient int
	Counters         *exec.Counters
	// BatchSize is the dividend batch size for batch-capable inputs; 0 picks
	// exec.DefaultBatchSize. The batch and tuple paths produce identical
	// quotients and identical Counters at any size (see DESIGN.md §7).
	BatchSize int
	// Trace, when set, collects an EXPLAIN ANALYZE profile: every operator
	// the algorithms build is wrapped in an obs probe recording rows, wall
	// time, and exec.Counters deltas into a span tree under Trace.Root().
	// Leave nil (the default) for zero instrumentation overhead.
	Trace *obs.Tracer
	// ProfileSpan overrides the parent span new spans attach under; the
	// constructors set it so nested structures (partition phases, rewrite
	// nodes) land in the right subtree. Leave nil to attach at the root.
	ProfileSpan *obs.Span
	// AssumeUniqueInputs mirrors the paper's analysis setting: inputs carry
	// no duplicates, so aggregation-based algorithms skip duplicate
	// elimination. Hash-division is insensitive to this flag (it tolerates
	// duplicates inherently). Default false: algorithms stay correct on any
	// input by paying for duplicate handling.
	AssumeUniqueInputs bool
}

// sortBytes resolves the external-sort space: an explicit SortBytes wins,
// then the governed MemoryBudget caps the paper default. Sorts run one at a
// time within a query plan, so granting the whole budget (rather than a
// share) to the active sort keeps the footprint within the grant.
func (e Env) sortBytes() int {
	if e.SortBytes > 0 {
		return e.SortBytes
	}
	if e.MemoryBudget > 0 && e.MemoryBudget < buffer.PaperSortBytes {
		return e.MemoryBudget
	}
	return buffer.PaperSortBytes
}

// SplitGrant divides a query's memory grant between the buffer pool that
// stages spill I/O — a quarter of the grant, at least eight spill pages —
// and the hash-table budget (Env.MemoryBudget), which gets the rest but at
// least one byte. A grant below the pool floor therefore leaves a table
// budget no cell fits, and recursive division reports ErrPartitionDepth.
func SplitGrant(grant int64) (poolBytes, tableBytes int) {
	poolBytes = max(int(grant/4), 8*disk.PaperRunPageSize)
	tableBytes = max(int(grant)-poolBytes, 1)
	return poolBytes, tableBytes
}

func (e Env) hbs() float64 {
	if e.HBS > 0 {
		return e.HBS
	}
	return 2
}

// ProfileParent returns the span new operator spans should attach under: the
// explicit ProfileSpan when set, the tracer root otherwise, nil when
// profiling is off. Every obs helper is nil-safe, so builders chain from this
// without guards — except around span-name formatting, which must stay
// behind a nil check to keep the untraced path allocation-free.
func (e Env) ProfileParent() *obs.Span {
	if e.ProfileSpan != nil {
		return e.ProfileSpan
	}
	return e.Trace.Root()
}

// instrument wraps op in a profiling probe recording into span; a nil span
// returns op unchanged.
func (e Env) instrument(op exec.Operator, span *obs.Span) exec.Operator {
	return obs.Instrument(op, span, e.Counters)
}

// scanSpan creates a child span for a plan input, deriving the kind label
// from op's concrete type. The nil guard keeps the fmt formatting off the
// untraced path.
func scanSpan(parent *obs.Span, role string, op exec.Operator) *obs.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(role, obs.OpName(op))
}

func (e Env) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return exec.DefaultBatchSize
}

func (e Env) expectedDivisor() int {
	if e.ExpectedDivisor > 0 {
		return e.ExpectedDivisor
	}
	return 256
}

func (e Env) expectedQuotient() int {
	if e.ExpectedQuotient > 0 {
		return e.ExpectedQuotient
	}
	return 1024
}

// Algorithm names the six configurations the paper compares.
type Algorithm int

const (
	// AlgNaive is naive division over sorted inputs (§2.1).
	AlgNaive Algorithm = iota
	// AlgSortAgg is division by sort-based aggregation without join.
	AlgSortAgg
	// AlgSortAggJoin is sort-based aggregation with a preceding merge
	// semi-join (the restricted-divisor case).
	AlgSortAggJoin
	// AlgHashAgg is division by hash-based aggregation without join.
	AlgHashAgg
	// AlgHashAggJoin is hash-based aggregation with a preceding hash
	// semi-join.
	AlgHashAggJoin
	// AlgHashDivision is the paper's new algorithm.
	AlgHashDivision
)

// Algorithms lists every configuration in the order of the paper's tables.
var Algorithms = []Algorithm{
	AlgNaive, AlgSortAgg, AlgSortAggJoin, AlgHashAgg, AlgHashAggJoin, AlgHashDivision,
}

// AssumesMatchingDividend reports whether the algorithm is only correct when
// every dividend tuple's divisor attributes appear in the divisor (the
// paper's first-example setting). The no-join aggregation variants count ALL
// tuples per group, so a dividend tuple referencing a value outside the
// divisor (a physics course when dividing by database courses) inflates the
// count — "it is important to count only those tuples from the Transcript
// relation which refer to database courses, [so] the aggregate function must
// be preceded by a semi-join" (§2.2). Use the with-join variants (or naive
// division or hash-division, which filter inherently) for restricted
// divisors.
func (a Algorithm) AssumesMatchingDividend() bool {
	return a == AlgSortAgg || a == AlgHashAgg
}

// String returns the table-column name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgNaive:
		return "naive"
	case AlgSortAgg:
		return "sort-agg"
	case AlgSortAggJoin:
		return "sort-agg+join"
	case AlgHashAgg:
		return "hash-agg"
	case AlgHashAggJoin:
		return "hash-agg+join"
	case AlgHashDivision:
		return "hash-division"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// New builds the operator for the chosen algorithm. The with-join variants
// run the semi-join unconditionally, modeling the paper's second example
// where only dividend tuples matching the (restricted) divisor may be
// counted.
func New(alg Algorithm, sp Spec, env Env) (exec.Operator, error) {
	return NewWithOptions(alg, sp, env, HashDivisionOptions{})
}

// NewWithOptions is New with hash-division tuning (hdOpts applies to
// AlgHashDivision only). When env carries a Trace, the returned operator is
// wrapped in a probe recording into a span named after the algorithm, and
// every operator the algorithm builds internally records into child spans —
// the EXPLAIN ANALYZE tree.
func NewWithOptions(alg Algorithm, sp Spec, env Env, hdOpts HashDivisionOptions) (exec.Operator, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	span := env.ProfileParent().Child(alg.String(), "division")
	env.ProfileSpan = span
	var op exec.Operator
	switch alg {
	case AlgNaive:
		op = NewNaive(sp, env)
	case AlgSortAgg:
		op = NewSortAggregation(sp, env, false)
	case AlgSortAggJoin:
		op = NewSortAggregation(sp, env, true)
	case AlgHashAgg:
		op = NewHashAggregation(sp, env, false)
	case AlgHashAggJoin:
		op = NewHashAggregation(sp, env, true)
	case AlgHashDivision:
		op = NewHashDivision(sp, env, hdOpts)
	default:
		return nil, fmt.Errorf("division: unknown algorithm %d", int(alg))
	}
	return env.instrument(op, span), nil
}

// Run executes an algorithm and returns the quotient tuples.
func Run(alg Algorithm, sp Spec, env Env) ([]tuple.Tuple, error) {
	op, err := New(alg, sp, env)
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}
