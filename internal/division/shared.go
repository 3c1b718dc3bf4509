// Shared-table absorb: the single-node fast path of parallel hash-division
// (DESIGN.md §9). Instead of partitioning the dividend and shipping tuples
// between workers, all workers absorb into ONE quotient table. The divisor
// table is immutable after its build (a hashtab.Frozen view probeable from
// any goroutine), candidate chains grow by compare-and-swap on atomic bucket
// heads, and divisor bits are set with bitmap.AtomicSet — so the absorb phase
// is read-mostly with one atomic bit set per matching tuple and no
// interconnect traffic at all.
package division

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// SharedElem is one candidate in the shared quotient table. Tuple and Bits
// are assigned before the element is published and never reassigned; workers
// mutate only individual bits, via AtomicSet.
type SharedElem struct {
	next  *SharedElem // immutable after publish
	Tuple tuple.Tuple // the quotient candidate (owned projection copy)
	Bits  *bitmap.Bitmap
}

// SharedStats is one worker's private share of the absorb work; totals are
// the sum over workers. Table stats follow the same unit conventions as
// hashtab.Stats, covering both the divisor probes and the candidate chain
// walks, so summed SharedStats are comparable with serial hash-division.
type SharedStats struct {
	Dividend   int64 // dividend tuples absorbed by this worker
	Candidates int64 // quotient candidates this worker created (first-won CAS)
	Table      hashtab.Stats
}

// SharedTable is the shared-memory absorb state. Build it once (single
// goroutine), then call Absorb/AbsorbBatch from any number of goroutines,
// each with its own *SharedStats; after all absorbers are quiesced (e.g.
// WaitGroup.Wait), scan the quotient with ScanBuckets — the scan may itself
// be bucket-partitioned over workers.
//
// The table does not grow: resizing lock-free bucket arrays is not worth the
// complexity for a table whose expected size is a workload statistic, so
// buckets are sized once from expectedQuotient at two tuples per bucket. A
// wrong estimate costs longer chains, never correctness.
type SharedTable struct {
	plan *KeyPlan

	divisor      *hashtab.Frozen
	divisorCount int64

	buckets []atomic.Pointer[SharedElem]
}

// NewSharedTable builds the divisor table from the given distinct divisor
// tuples (numbering them 0..n-1), freezes it, and sizes the quotient bucket
// array for expectedQuotient candidates at the paper's two tuples per bucket
// (§4.6), or 4096 buckets when expectedQuotient is 0. sp must already be
// validated.
func NewSharedTable(sp Spec, divisor []tuple.Tuple, expectedQuotient int) (*SharedTable, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s := &SharedTable{plan: CompileKeyPlan(sp.Dividend.Schema(), sp.DivisorCols)}
	tab := hashtab.NewWithCapacity(sp.Divisor.Schema(), len(divisor))
	for _, d := range divisor {
		if e, created := tab.GetOrInsert(d); created {
			e.Num = s.divisorCount
			s.divisorCount++
		}
	}
	s.divisor = tab.Freeze()

	nBuckets := 4096
	if expectedQuotient > 0 {
		nBuckets = expectedQuotient/2 + 1
	}
	s.buckets = make([]atomic.Pointer[SharedElem], nBuckets)
	return s, nil
}

// DivisorCount returns the number of distinct divisor tuples.
func (s *SharedTable) DivisorCount() int64 { return s.divisorCount }

// NumBuckets returns the quotient bucket count, the domain of ScanBuckets.
func (s *SharedTable) NumBuckets() int { return len(s.buckets) }

// QuotientSchema returns the candidate tuples' layout.
func (s *SharedTable) QuotientSchema() *tuple.Schema { return s.plan.qs }

func (s *SharedTable) bucketFor(h uint64) int {
	// Same multiply-shift range reduction as hashtab.bucketFor, so bucket
	// distribution matches the serial table's.
	hi, _ := bits.Mul64(h, uint64(len(s.buckets)))
	return int(hi)
}

// Absorb processes one dividend tuple: probe the frozen divisor table, find
// or publish the quotient candidate, atomically set the divisor's bit. Safe
// for concurrent use; st must be private to the caller.
func (s *SharedTable) Absorb(t tuple.Tuple, st *SharedStats) {
	s.absorb(t, s.plan.div.hashRow(t), s.plan.quot.hashRow(t), st)
}

// absorb is Absorb with t's hash words given.
func (s *SharedTable) absorb(t tuple.Tuple, dh, qh uint64, st *SharedStats) {
	st.Dividend++
	var de *hashtab.Element
	if p := s.plan; p.div.word {
		de = s.divisor.LookupU64(dh, binary.LittleEndian.Uint64(t[p.div.off:]), &st.Table)
	} else {
		de = s.divisor.LookupPre(dh, t, p.div.eq, &st.Table)
	}
	if de == nil {
		return
	}
	e := s.candidate(qh, t, st)
	e.Bits.AtomicSet(int(de.Num))
}

// AbsorbBatch absorbs every tuple of b, probing with the hash words the plan
// computes for the whole batch first. The batch may alias foreign memory (a
// pinned page) since candidates store owned projection copies.
func (s *SharedTable) AbsorbBatch(b *exec.Batch, st *SharedStats) {
	hs := s.plan.HashRows(b)
	for i, n := 0, b.Len(); i < n; i++ {
		s.absorb(b.Tuple(i), hs[2*i], hs[2*i+1], st)
	}
}

// equalsCandidate reports whether stored (a candidate's key) matches t's
// quotient projection.
func (s *SharedTable) equalsCandidate(t tuple.Tuple, stored tuple.Tuple) bool {
	if p := s.plan; p.quot.word {
		return binary.LittleEndian.Uint64(t[p.quot.off:]) == binary.LittleEndian.Uint64(stored)
	}
	return s.plan.quot.eq(t, stored)
}

// candidate returns the (unique) SharedElem for t's quotient projection,
// publishing a fresh one when absent. Lock-free: bucket heads are atomic
// pointers, inserts compare-and-swap a fully initialized element (Tuple and
// Bits set before publish, so a racing reader never observes a nil bitmap),
// and a failed CAS re-walks only the freshly prepended chain prefix to catch
// a racing insert of the same key. Chain next pointers are immutable after
// publish, which is why readers may walk them without atomics.
func (s *SharedTable) candidate(h uint64, t tuple.Tuple, st *SharedStats) *SharedElem {
	b := &s.buckets[s.bucketFor(h)]
	st.Table.Hashes++
	head := b.Load()
	for e := head; e != nil; e = e.next {
		st.Table.Comparisons++
		if s.equalsCandidate(t, e.Tuple) {
			return e
		}
	}
	n := &SharedElem{
		Tuple: s.plan.project(t),
		Bits:  bitmap.New(int(s.divisorCount)),
	}
	for {
		n.next = head
		if b.CompareAndSwap(head, n) {
			st.Candidates++
			return n
		}
		// Lost the race: someone prepended. Check only the new prefix for a
		// duplicate of our key before retrying with the new head.
		newHead := b.Load()
		for e := newHead; e != head; e = e.next {
			st.Table.Comparisons++
			if s.equalsCandidate(t, e.Tuple) {
				return e
			}
		}
		head = newHead
	}
}

// ScanBuckets streams the COMPLETE candidates (every divisor bit set) of
// buckets [lo, hi) to emit, in bucket order. Callers partition [0,
// NumBuckets()) across workers for a parallel quotient scan; disjoint ranges
// visit disjoint candidates. Must not run concurrently with absorbers — the
// caller provides the happens-before edge (WaitGroup.Wait), after which
// plain bitmap reads are safe.
func (s *SharedTable) ScanBuckets(lo, hi int, emit func(t tuple.Tuple) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.buckets) {
		hi = len(s.buckets)
	}
	for i := lo; i < hi; i++ {
		for e := s.buckets[i].Load(); e != nil; e = e.next {
			if e.Bits.AllSet() {
				if err := emit(e.Tuple); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
