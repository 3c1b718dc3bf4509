// Package hashtab implements the bucket-chained hash tables used by the
// hash-based algorithms. Following the paper's implementation notes (§5.1),
// conflict resolution is bucket chaining and each chain element carries the
// tuple plus the per-algorithm payload: the divisor number for divisor
// tables, the bit-map pointer (or counter) for quotient tables, and a grouped
// count for aggregation tables.
//
// The table counts hash calculations and tuple comparisons so callers can
// report deterministic CPU costs in Table 1 units.
//
// The paper's geometry — the bucket count, hbs, growth by doubling — is kept
// as bookkeeping: each logical bucket stores only its chain length, and each
// element its insertion ordinal within the bucket. The elements themselves
// live in a physical index fanout times finer, so a probe walks about a
// quarter of the chain the paper prices, while Stats charge exactly what
// walking the newest-first logical chain would charge (DESIGN.md §7).
package hashtab

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/tuple"
)

// elementOverheadBytes is the per-element bookkeeping (next pointer,
// numbers, slice header) the paper's memory model charges for
// memory-budget accounting. The real Element is 64 bytes, its key included
// when the key fits in eight bytes; MemBytes keeps the model so budgets,
// spills and recursive partitioning decide as they always have.
const elementOverheadBytes = 48

// fanoutBits is log2 of the number of physical sub-chains each logical
// bucket splits into.
const fanoutBits = 2

// fanout is the number of physical sub-chains per logical bucket.
const fanout = 1 << fanoutBits

// Element is one chain entry. Exactly one of the payload fields is used by
// any given algorithm.
type Element struct {
	next  *Element
	Tuple tuple.Tuple    // the stored key tuple (owned copy); never reassigned
	Num   int64          // divisor number, counter, or grouped count
	Bits  *bitmap.Bitmap // quotient candidate bit map (hash-division)
	ord   int32          // insertion ordinal within its logical bucket
	key   [8]byte        // holds Tuple when the key is at most 8 bytes
}

// word returns an 8-byte key as its little-endian word.
func (e *Element) word() uint64 { return binary.LittleEndian.Uint64(e.key[:]) }

// Stats count the work the table performed, in cost-model units. Rehash
// moves during growth are real work too: every element moved recomputes its
// hash, so grow() feeds Hashes (and Rehashed, so the rehash share stays
// visible) rather than silently omitting it from the cost accounting.
type Stats struct {
	Hashes      int64 // hash value calculations (unit Hash), rehashes included
	Comparisons int64 // tuple comparisons while scanning buckets (unit Comp)
	Rehashed    int64 // element moves performed by grow() rehashes
}

// probe charges one probe of a logical chain of n elements that ended at e,
// or ran off the chain when e is nil: one hash, and the comparisons walking
// the newest-first chain makes. The element of ordinal ord sits n − ord
// places down that chain.
func (st *Stats) probe(n int32, e *Element) {
	st.Hashes++
	if e != nil {
		n -= e.ord
	}
	st.Comparisons += int64(n)
}

// index is a table's storage: the logical chain lengths and the physical
// sub-chain heads, fanout per logical bucket, each sub-chain newest first.
type index struct {
	lcount []int32
	heads  []*Element
	box    *[]*Element // the pooled array of which heads is a prefix
}

// headPools recycle released sub-chain head arrays, one pool per power-of-two
// length, so a query's tables reuse the arrays of the tables before them.
// The arrays in a pool are all nil, and boxed (*[]*Element) so a put boxes
// nothing.
var headPools [bits.UintSize]sync.Pool

// newIndex returns an empty index of nb logical buckets.
func newIndex(nb int) index {
	need := nb * fanout
	k := bits.Len(uint(need - 1))
	box, _ := headPools[k].Get().(*[]*Element)
	if box == nil {
		heads := make([]*Element, 1<<k)
		box = &heads
	}
	return index{lcount: make([]int32, nb), heads: (*box)[:need], box: box}
}

// recycle clears the head array and returns it to its pool.
func (x *index) recycle() {
	if x.box == nil {
		return
	}
	heads := *x.box
	clear(heads)
	headPools[bits.Len(uint(len(heads)-1))].Put(x.box)
	*x = index{}
}

func (x *index) bucketFor(h uint64) int {
	// Multiply-shift range reduction (Lemire 2016): maps the 64-bit hash
	// uniformly onto [0, nbuckets) with one multiply-high instead of the
	// ~25-cycle 64-bit modulo. bucketFor sits on the probe hot path, twice
	// per dividend tuple in hash-division step 2.
	hi, _ := bits.Mul64(h, uint64(len(x.lcount)))
	return int(hi)
}

// slot returns h's logical bucket and the position of h's sub-chain head.
// The sub-chain is picked by the top bits of a Fibonacci multiple of h:
// bucketFor reads h's top bits, so these depend on all of h.
func (x *index) slot(h uint64) (b, p int) {
	b = x.bucketFor(h)
	return b, b<<fanoutBits | int((h*0x9e3779b97f4a7c15)>>(64-fanoutBits))
}

// chain returns the length of h's logical chain and the head of h's
// sub-chain.
func (x *index) chain(h uint64) (int32, *Element) {
	b, p := x.slot(h)
	return x.lcount[b], x.heads[p]
}

// link prepends e to h's sub-chain as the newest element of h's logical
// bucket.
func (x *index) link(e *Element, h uint64) {
	b, p := x.slot(h)
	e.ord = x.lcount[b]
	x.lcount[b]++
	e.next = x.heads[p]
	x.heads[p] = e
}

// each calls fn for every element in the chained table's order: logical
// buckets in turn, each newest first. A bucket's ordinals are 0..n-1, so
// walking its sub-chains and placing each element at n-1-ord lays the
// bucket out newest first in linear time, with no sort; the buffer lives on
// the stack unless a chain outgrows it, which only a fixed geometry's long
// chains do. A lone element heads the one non-empty sub-chain; picking it
// from the four heads compiles to conditional moves instead of the branches
// a walk would mispredict. fn may relink the element it is given.
func (x *index) each(fn func(*Element) error) error {
	var stack [32]*Element
	buf := stack[:]
	for b, n := range x.lcount {
		if n == 0 {
			continue
		}
		h := x.heads[b<<fanoutBits : (b+1)<<fanoutBits : (b+1)<<fanoutBits]
		if n == 1 {
			e, h1, h2, h3 := h[0], h[1], h[2], h[3]
			if e == nil {
				e = h1
			}
			if e == nil {
				e = h2
			}
			if e == nil {
				e = h3
			}
			if err := fn(e); err != nil {
				return err
			}
			continue
		}
		if int(n) > len(buf) {
			buf = make([]*Element, n)
		}
		for _, e := range h {
			for ; e != nil; e = e.next {
				buf[n-1-e.ord] = e
			}
		}
		for _, e := range buf[:n] {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table is a bucket-chained hash table over fixed-width tuples.
type Table struct {
	index
	schema   *tuple.Schema
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
		index:   newIndex(nBuckets),
		schema:  schema,
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

// NumBuckets returns the (logical) bucket count.
func (t *Table) NumBuckets() int { return len(t.lcount) }

// LoadFactor returns elements per bucket.
func (t *Table) LoadFactor() float64 { return float64(t.n) / float64(len(t.lcount)) }

// Stats returns the accumulated work counters.
func (t *Table) Stats() Stats { return t.stats }

// MemBytes is the table's footprint in the paper's memory model: per
// element its key plus elementOverheadBytes, 8 bytes per bucket, and any
// attached bit maps. Hash table overflow handling keys off this number.
func (t *Table) MemBytes() int {
	return t.memBytes + len(t.lcount)*8
}

// Lookup finds the element whose stored tuple equals key (all columns), or
// nil.
func (t *Table) Lookup(key tuple.Tuple) *Element {
	return t.LookupPre(tuple.HashBytes(key), key, t.equalAll)
}

// equalAll is the all-column key equality of Lookup and GetOrInsert.
func (t *Table) equalAll(key, stored tuple.Tuple) bool {
	return t.schema.CompareAll(stored, key) == 0
}

// LookupProjected matches the cols projection of src (laid out by srcSchema)
// against the stored tuples without materializing the projection — the inner
// loop of hash-division step 2.
func (t *Table) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) *Element {
	return t.lookupProjected(srcSchema.Hash(src, cols), src, srcSchema, cols)
}

func (t *Table) lookupProjected(h uint64, src tuple.Tuple, srcSchema *tuple.Schema, cols []int) *Element {
	return t.LookupPre(h, src, func(src, stored tuple.Tuple) bool {
		return srcSchema.EqualProjected(src, cols, stored)
	})
}

// LookupPre is LookupProjected with the hash value and equality predicate
// supplied by the caller: batch kernels compile them once (tuple.HashFunc,
// tuple.EqualProjectedFunc) and hoist them out of the per-tuple loop. The
// hash must equal the schema hash of src's projection and eq must match
// EqualProjected, so Stats and the quotient are byte-identical to the
// generic path.
func (t *Table) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool) *Element {
	n, e := t.chain(h)
	for e != nil && !eq(src, e.Tuple) {
		e = e.next
	}
	t.stats.probe(n, e)
	return e
}

// GetOrInsertPre is GetOrInsertProjected with caller-compiled hash and
// equality (see LookupPre); project materializes the stored key when an
// insert happens (rare relative to probes, so it stays a plain callback).
func (t *Table) GetOrInsertPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, project func(src tuple.Tuple) tuple.Tuple) (e *Element, created bool) {
	if e := t.LookupPre(h, src, eq); e != nil {
		return e, false
	}
	return t.insertHashed(h, project(src)), true
}

// LookupU64 is LookupProjected specialized to a single 8-byte key column:
// key is the little-endian word of the projection and h its schema hash
// (tuple.HashUint64LE of key). Every call is concrete — no closure
// indirection in the chain walk, and the stored word sits in the element —
// while Stats stay identical to the generic probe. The batch hash-division
// kernel uses it when both the divisor and quotient projections are single
// 8-byte columns.
func (t *Table) LookupU64(h, key uint64) *Element {
	n, e := t.chain(h)
	for e != nil && e.word() != key {
		e = e.next
	}
	t.stats.probe(n, e)
	return e
}

// GetOrInsertU64 is GetOrInsertProjected specialized like LookupU64; the
// stored key is the eight little-endian bytes of key.
func (t *Table) GetOrInsertU64(h, key uint64) (e *Element, created bool) {
	if e := t.LookupU64(h, key); e != nil {
		return e, false
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return t.insertHashed(h, buf[:]), true
}

// insertHashed stores a copy of key, whose hash is h, as the newest element
// of its bucket. A key of up to 8 bytes is copied into the element itself.
func (t *Table) insertHashed(h uint64, key tuple.Tuple) *Element {
	if t.maxLoad > 0 && float64(t.n+1) > t.maxLoad*float64(len(t.lcount)) {
		t.grow()
	}
	e := new(Element)
	if len(key) <= len(e.key) {
		n := copy(e.key[:], key)
		e.Tuple = e.key[:n:n]
	} else {
		e.Tuple = key.Clone()
	}
	t.link(e, h)
	t.n++
	t.memBytes += len(key) + elementOverheadBytes
	return e
}

// GetOrInsert returns the element matching key, inserting a fresh one when
// absent. created reports whether an insertion happened. This is the
// "eliminate duplicates in the divisor on the fly" path.
func (t *Table) GetOrInsert(key tuple.Tuple) (e *Element, created bool) {
	h := tuple.HashBytes(key)
	if e := t.LookupPre(h, key, t.equalAll); e != nil {
		return e, false
	}
	return t.insertHashed(h, key), true
}

// GetOrInsertProjected is GetOrInsert keyed by the cols projection of src;
// the stored tuple is the materialized projection. This is the quotient-table
// probe of hash-division step 2.
func (t *Table) GetOrInsertProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) (e *Element, created bool) {
	h := srcSchema.Hash(src, cols)
	if e := t.lookupProjected(h, src, srcSchema, cols); e != nil {
		return e, false
	}
	return t.insertHashed(h, srcSchema.ProjectTuple(src, cols)), true
}

// grow doubles the bucket count, moving the elements in the chained table's
// rehash order: old buckets in turn, each newest first, every move
// prepending to its new chain. So the ordinals, and with them every later
// probe's charge, are the ones the chained table's rehash would produce.
func (t *Table) grow() {
	old := t.index
	t.index = newIndex(2 * len(old.lcount))
	var moved int64
	old.each(func(e *Element) error {
		t.link(e, tuple.HashBytes(e.Tuple))
		moved++
		return nil
	})
	old.recycle()
	// Each move recomputed a hash; charge it so cost counters reflect the
	// rehash work.
	t.stats.Hashes += moved
	t.stats.Rehashed += moved
}

// AddMemBytes records payload memory attached to elements (bit maps), so
// MemBytes reflects the true footprint.
func (t *Table) AddMemBytes(n int) { t.memBytes += n }

// Iterate calls fn for every element in bucket order, each bucket newest
// first (the "scan all buckets" of hash-division step 3). Iteration stops
// at the first error.
func (t *Table) Iterate(fn func(*Element) error) error {
	return t.each(fn)
}

// Reset empties the table, keeping the bucket arrays.
func (t *Table) Reset() {
	clear(t.lcount)
	clear(t.heads)
	t.n = 0
	t.memBytes = 0
}

// Release returns the table's sub-chain head array, cleared, to a package
// pool for the next table to reuse. Stats stay readable; the table must not
// be probed afterwards. The stored elements are untouched, so tuples taken
// from them stay valid. Releasing a nil table does nothing.
func (t *Table) Release() {
	if t == nil {
		return
	}
	t.recycle()
}

func (t *Table) String() string {
	return fmt.Sprintf("hashtab{%d elements, %d buckets, load %.2f}", t.n, len(t.lcount), t.LoadFactor())
}
