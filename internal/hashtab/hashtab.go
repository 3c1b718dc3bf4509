// Package hashtab implements the bucket-chained hash tables used by the
// hash-based algorithms. Following the paper's implementation notes (§5.1),
// conflict resolution is bucket chaining and each chain element carries the
// tuple plus the per-algorithm payload: the divisor number for divisor
// tables, the bit-map pointer (or counter) for quotient tables, and a grouped
// count for aggregation tables.
//
// The table counts hash calculations and tuple comparisons so callers can
// report deterministic CPU costs in Table 1 units.
package hashtab

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitmap"
	"repro/internal/tuple"
)

// elementOverheadBytes approximates the per-element bookkeeping (next
// pointer, numbers, slice header) for memory-budget accounting.
const elementOverheadBytes = 48

// Element is one chain entry. Exactly one of the payload fields is used by
// any given algorithm.
type Element struct {
	next  *Element
	Tuple tuple.Tuple    // the stored key tuple (owned copy)
	Num   int64          // divisor number, counter, or grouped count
	Bits  *bitmap.Bitmap // quotient candidate bit map (hash-division)
}

// Stats count the work the table performed, in cost-model units. Rehash
// moves during growth are real work too: every element moved recomputes its
// hash, so grow() feeds Hashes (and Rehashed, so the rehash share stays
// visible) rather than silently omitting it from the cost accounting.
type Stats struct {
	Hashes      int64 // hash value calculations (unit Hash), rehashes included
	Comparisons int64 // tuple comparisons while scanning buckets (unit Comp)
	Rehashed    int64 // element moves performed by grow() rehashes
}

// Table is a bucket-chained hash table over fixed-width tuples.
type Table struct {
	schema   *tuple.Schema
	buckets  []*Element
	n        int
	memBytes int
	stats    Stats
	maxLoad  float64 // grow when exceeded; 0 = never grow
}

// New creates a table for key tuples of the given schema with nBuckets
// chains. nBuckets is rounded up to at least 1.
func New(schema *tuple.Schema, nBuckets int) *Table {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Table{
		schema:  schema,
		buckets: make([]*Element, nBuckets),
		maxLoad: 4,
	}
}

// NewForExpected sizes the table so the average bucket holds hbs tuples at
// the expected cardinality, the paper's "average size of each hash bucket"
// parameter (hbs = 2 in §4.6).
func NewForExpected(schema *tuple.Schema, expected int, hbs float64) *Table {
	if hbs <= 0 {
		hbs = 2
	}
	return New(schema, int(float64(expected)/hbs)+1)
}

// NewWithCapacity pre-sizes the table to hold capacity elements at the
// default bucket size without ever growing: batch build loops use it when
// the input cardinality is known from workload statistics, so the rehash
// work grow() would charge never happens. The table still grows past ~2×
// the stated capacity if the estimate proves wrong.
func NewWithCapacity(schema *tuple.Schema, capacity int) *Table {
	if capacity < 0 {
		capacity = 0
	}
	return New(schema, capacity/2+1)
}

// SetMaxLoad configures automatic growth: the table doubles its bucket count
// whenever elements/buckets exceeds maxLoad. Zero disables growth (fixed
// geometry, as in the paper's experiments).
func (t *Table) SetMaxLoad(maxLoad float64) { t.maxLoad = maxLoad }

// Schema returns the stored tuples' layout.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Len returns the number of stored elements.
func (t *Table) Len() int { return t.n }

// NumBuckets returns the bucket count.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// LoadFactor returns elements per bucket.
func (t *Table) LoadFactor() float64 { return float64(t.n) / float64(len(t.buckets)) }

// Stats returns the accumulated work counters.
func (t *Table) Stats() Stats { return t.stats }

// MemBytes approximates the table's heap footprint: buckets, elements, key
// copies, and any attached bit maps. Hash table overflow handling keys off
// this number.
func (t *Table) MemBytes() int {
	return t.memBytes + len(t.buckets)*8
}

func (t *Table) bucketFor(h uint64) int {
	// Multiply-shift range reduction (Lemire 2016): maps the 64-bit hash
	// uniformly onto [0, nbuckets) with one multiply-high instead of the
	// ~25-cycle 64-bit modulo. bucketFor sits on the probe hot path, twice
	// per dividend tuple in hash-division step 2.
	hi, _ := bits.Mul64(h, uint64(len(t.buckets)))
	return int(hi)
}

// Lookup finds the element whose stored tuple equals key (all columns), or
// nil.
func (t *Table) Lookup(key tuple.Tuple) *Element {
	t.stats.Hashes++
	h := tuple.HashBytes(key)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if t.schema.CompareAll(e.Tuple, key) == 0 {
			return e
		}
	}
	return nil
}

// LookupProjected matches the cols projection of src (laid out by srcSchema)
// against the stored tuples without materializing the projection — the inner
// loop of hash-division step 2.
func (t *Table) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) *Element {
	t.stats.Hashes++
	h := srcSchema.Hash(src, cols)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if srcSchema.EqualProjected(src, cols, e.Tuple) {
			return e
		}
	}
	return nil
}

// LookupPre is LookupProjected with the hash value and equality predicate
// supplied by the caller: batch kernels compile them once (tuple.HashFunc,
// tuple.EqualProjectedFunc) and hoist them out of the per-tuple loop. The
// hash must equal the schema hash of src's projection and eq must match
// EqualProjected, so Stats and the quotient are byte-identical to the
// generic path.
func (t *Table) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool) *Element {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if eq(src, e.Tuple) {
			return e
		}
	}
	return nil
}

// GetOrInsertPre is GetOrInsertProjected with caller-compiled hash and
// equality (see LookupPre); project materializes the stored key when an
// insert happens (rare relative to probes, so it stays a plain callback).
func (t *Table) GetOrInsertPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, project func(src tuple.Tuple) tuple.Tuple) (e *Element, created bool) {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if eq(src, e.Tuple) {
			return e, false
		}
	}
	return t.insertHashed(h, project(src)), true
}

// LookupU64 is LookupProjected specialized to a single 8-byte key column:
// key is the little-endian word of the projection and h its schema hash
// (tuple.HashUint64LE of key). Every call is concrete — no closure
// indirection in the chain walk — while Stats stay identical to the generic
// probe. The batch hash-division kernel uses it when both the divisor and
// quotient projections are single 8-byte columns.
func (t *Table) LookupU64(h, key uint64) *Element {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e
		}
	}
	return nil
}

// GetOrInsertU64 is GetOrInsertProjected specialized like LookupU64; the
// stored key is the eight little-endian bytes of key.
func (t *Table) GetOrInsertU64(h, key uint64) (e *Element, created bool) {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e, false
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return t.insertHashed(h, tuple.Tuple(buf[:])), true
}

func (t *Table) insertHashed(h uint64, key tuple.Tuple) *Element {
	if t.maxLoad > 0 && float64(t.n+1) > t.maxLoad*float64(len(t.buckets)) {
		t.grow()
	}
	b := t.bucketFor(h)
	e := &Element{next: t.buckets[b], Tuple: key.Clone()}
	t.buckets[b] = e
	t.n++
	t.memBytes += len(key) + elementOverheadBytes
	return e
}

// GetOrInsert returns the element matching key, inserting a fresh one when
// absent. created reports whether an insertion happened. This is the
// "eliminate duplicates in the divisor on the fly" path.
func (t *Table) GetOrInsert(key tuple.Tuple) (e *Element, created bool) {
	t.stats.Hashes++
	h := tuple.HashBytes(key)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if t.schema.CompareAll(e.Tuple, key) == 0 {
			return e, false
		}
	}
	return t.insertHashed(h, key), true
}

// GetOrInsertProjected is GetOrInsert keyed by the cols projection of src;
// the stored tuple is the materialized projection. This is the quotient-table
// probe of hash-division step 2.
func (t *Table) GetOrInsertProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) (e *Element, created bool) {
	t.stats.Hashes++
	h := srcSchema.Hash(src, cols)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if srcSchema.EqualProjected(src, cols, e.Tuple) {
			return e, false
		}
	}
	return t.insertHashed(h, srcSchema.ProjectTuple(src, cols)), true
}

// Frozen is an immutable, concurrently probeable view of a Table. Every
// Table probe mutates the table's Stats, so sharing a *Table across
// goroutines is a data race even for pure lookups; Freeze separates the two
// concerns. A Frozen view carries no mutable state — each probe takes the
// caller's own *Stats accumulator — so any number of goroutines may probe it
// simultaneously. The parallel shared-table absorb path (DESIGN.md §9) uses
// this for the divisor table, which is immutable after its build phase.
type Frozen struct {
	schema  *tuple.Schema
	buckets []*Element
}

// Freeze returns a read-only concurrent view of the table's current
// contents. The table must not be mutated afterwards (no inserts, no Reset);
// probes on the Table itself remain legal but still race with Frozen probes
// only through Stats, which Frozen does not touch.
func (t *Table) Freeze() *Frozen {
	return &Frozen{schema: t.schema, buckets: t.buckets}
}

func (f *Frozen) bucketFor(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(f.buckets)))
	return int(hi)
}

// LookupPre is Table.LookupPre against the frozen view: caller-compiled hash
// and equality, caller-owned stats.
func (f *Frozen) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, st *Stats) *Element {
	st.Hashes++
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if eq(src, e.Tuple) {
			return e
		}
	}
	return nil
}

// LookupU64 is Table.LookupU64 against the frozen view.
func (f *Frozen) LookupU64(h, key uint64, st *Stats) *Element {
	st.Hashes++
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e
		}
	}
	return nil
}

func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]*Element, 2*len(old))
	var moved int64
	for _, chain := range old {
		for e := chain; e != nil; {
			next := e.next
			b := t.bucketFor(tuple.HashBytes(e.Tuple))
			e.next = t.buckets[b]
			t.buckets[b] = e
			e = next
			moved++
		}
	}
	// Each move recomputed a hash; charge it so cost counters reflect the
	// rehash work.
	t.stats.Hashes += moved
	t.stats.Rehashed += moved
}

// AddMemBytes records payload memory attached to elements (bit maps), so
// MemBytes reflects the true footprint.
func (t *Table) AddMemBytes(n int) { t.memBytes += n }

// Iterate calls fn for every element in bucket order (the "scan all buckets"
// of hash-division step 3). Iteration stops at the first error.
func (t *Table) Iterate(fn func(*Element) error) error {
	for _, chain := range t.buckets {
		for e := chain; e != nil; e = e.next {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset empties the table, keeping the bucket array.
func (t *Table) Reset() {
	for i := range t.buckets {
		t.buckets[i] = nil
	}
	t.n = 0
	t.memBytes = 0
}

func (t *Table) String() string {
	return fmt.Sprintf("hashtab{%d elements, %d buckets, load %.2f}", t.n, len(t.buckets), t.LoadFactor())
}
