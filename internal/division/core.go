package division

import (
	"encoding/binary"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// Core is Figure 1, implemented once: the divisor table numbering the
// distinct divisor tuples, the quotient table whose candidates carry a bit
// map indexed by those numbers, and the scan for bit maps without a zero.
// Every in-memory hash-division runs through it: the HashDivision operator
// (and with it recursive division) and the exchange workers, in process and
// behind a wire.
//
// A Core is driven in Figure 1's order: AddDivisor for every divisor tuple
// (step 1), then AbsorbBatch or Absorb for the dividend (step 2), then Scan
// (step 3). It is not safe for concurrent use.
type Core struct {
	opts CoreOptions
	plan *KeyPlan

	divisorTable  *hashtab.Table
	quotientTable *hashtab.Table // created by the first absorb
	divisorCount  int64

	stats HashDivisionStats
}

// CoreOptions configure a Core.
type CoreOptions struct {
	HashDivisionOptions
	// MemoryBudget, when positive, bounds the combined footprint of the
	// divisor and quotient tables in bytes; exceeding it fails the run with
	// ErrMemoryBudget.
	MemoryBudget int
	// ExpectedDivisor and ExpectedQuotient size the two tables at HBS
	// tuples per bucket; a wrong guess costs growth, never correctness.
	ExpectedDivisor  int
	ExpectedQuotient int
	HBS              float64
	// DivisorCapacity, when positive, is the exact divisor cardinality: the
	// divisor table is pre-sized for it whatever HBS is
	// (hashtab.NewWithCapacity), so it never grows, and ExpectedDivisor is
	// ignored.
	DivisorCapacity int
	// Counters, when set, is charged the Table 1 cost units of the run.
	Counters *exec.Counters
}

// NewCore prepares a division by divisors laid out by ss whose keys plan
// compiled.
func NewCore(plan *KeyPlan, ss *tuple.Schema, opts CoreOptions) *Core {
	divisorTable := hashtab.NewForExpected(ss, opts.ExpectedDivisor, opts.HBS)
	if opts.DivisorCapacity > 0 {
		divisorTable = hashtab.NewWithCapacity(ss, opts.DivisorCapacity)
	}
	return &Core{opts: opts, plan: plan, divisorTable: divisorTable}
}

// SetFilterBit marks divisor tuple d in a Babb bit-vector filter. A dividend
// tuple passes the filter iff the hash of its divisor attributes, which
// equals HashBytes of the projection, lands on a set bit.
func SetFilterBit(bv *bitmap.Bitmap, d tuple.Tuple) {
	bv.Set(int(tuple.HashBytes(d) % uint64(bv.Len())))
}

// DivisorCount returns the number of distinct divisor tuples added so far.
func (c *Core) DivisorCount() int64 { return c.divisorCount }

// Stats returns the run statistics gathered so far.
func (c *Core) Stats() HashDivisionStats { return c.stats }

// MemBytes reports the footprint of the tables still held.
func (c *Core) MemBytes() int {
	n := 0
	if c.divisorTable != nil {
		n += c.divisorTable.MemBytes()
	}
	if c.quotientTable != nil {
		n += c.quotientTable.MemBytes()
	}
	return n
}

// checkBudget records the memory high-water mark and fails once the tables
// outgrow the budget.
func (c *Core) checkBudget() error {
	m := c.MemBytes()
	if m > c.stats.PeakTableBytes {
		c.stats.PeakTableBytes = m
	}
	if c.opts.MemoryBudget > 0 && m > c.opts.MemoryBudget {
		return ErrMemoryBudget
	}
	return nil
}

// AddDivisor is step 1 for one divisor tuple: duplicates are eliminated on
// the fly ("while building the divisor table"), and each distinct tuple gets
// the next divisor number. It fails with ErrMemoryBudget
// once the tables outgrow the budget. All divisor tuples must be added
// before the first absorb.
func (c *Core) AddDivisor(t tuple.Tuple) error {
	c.stats.DivisorTuples++
	if e, created := c.divisorTable.GetOrInsert(t); created {
		e.Num = c.divisorCount
		c.divisorCount++
		c.stats.DivisorDistinct = c.divisorCount
	}
	return c.checkBudget()
}

// quotient returns the quotient table, creating it after the divisor build
// so the build's budget checks see the divisor table alone.
func (c *Core) quotient() *hashtab.Table {
	if c.quotientTable == nil {
		c.quotientTable = hashtab.NewForExpected(c.plan.qs, c.opts.ExpectedQuotient, c.opts.HBS)
	}
	return c.quotientTable
}

// newCandidate gives a fresh quotient candidate its bit map, charging the
// map to the table footprint.
func (c *Core) newCandidate(qe *hashtab.Element) error {
	qe.Bits = bitmap.New(int(c.divisorCount))
	c.quotientTable.AddMemBytes(qe.Bits.SizeBytes())
	return c.checkBudget()
}

// Absorb is step 2 for one dividend tuple, for inputs without the batch
// protocol and for early emission. In EarlyEmit mode (§3.3) a counter per
// candidate, incremented only for fresh bits, is compared against the
// divisor count, and the candidate's quotient tuple is returned the moment
// it completes; otherwise Absorb returns nil.
func (c *Core) Absorb(t tuple.Tuple) (tuple.Tuple, error) {
	c.stats.DividendTuples++
	return c.absorb(t)
}

// AbsorbBatch is step 2 over one dividend batch in stop-and-go mode (not
// EarlyEmit), with the same probes, bit sets, statistics and counter
// increments as Absorb — also when the budget fails mid-batch: only the
// tuples up to and including the one that overflowed count as read. The
// batch may alias foreign memory: candidates store owned copies.
//
// The plan hashes the whole batch's keys into the batch's hash vector first
// (KeyPlan.HashRows), and the probe loop reads them from there; every probe
// happens as Absorb would make it.
func (c *Core) AbsorbBatch(b *exec.Batch) error {
	hs := c.plan.HashRows(b)
	if c.plan.fastU64 {
		return c.absorbBatchU64(b, hs)
	}
	divisorTable, quotientTable := c.divisorTable, c.quotient()
	p := c.plan
	n := b.Len()
	var bits int64
	for i := 0; i < n; i++ {
		t := b.Tuple(i)
		de := divisorTable.LookupPre(hs[2*i], t, p.div.eq)
		if de == nil {
			c.stats.DiscardedNoMatch++
			continue
		}
		qe, created := quotientTable.GetOrInsertPre(hs[2*i+1], t, p.quot.eq, p.project)
		if created {
			c.stats.Candidates++
			if err := c.newCandidate(qe); err != nil {
				c.endBatch(i+1, bits)
				return err
			}
		}
		bits++
		qe.Bits.Set(int(de.Num))
	}
	c.endBatch(n, bits)
	return nil
}

// absorb is Absorb for a tuple already counted in DividendTuples.
func (c *Core) absorb(t tuple.Tuple) (tuple.Tuple, error) {
	var de, qe *hashtab.Element
	var created bool
	p := c.plan
	if p.fastU64 {
		dk := binary.LittleEndian.Uint64(t[p.div.off:])
		if de = c.divisorTable.LookupU64(p.div.hashRow(t), dk); de != nil {
			qk := binary.LittleEndian.Uint64(t[p.quot.off:])
			qe, created = c.quotient().GetOrInsertU64(p.quot.hashRow(t), qk)
		}
	} else if de = c.divisorTable.LookupPre(p.div.hashRow(t), t, p.div.eq); de != nil {
		qe, created = c.quotient().GetOrInsertPre(p.quot.hashRow(t), t, p.quot.eq, p.project)
	}
	if de == nil {
		// No matching divisor tuple: discard immediately.
		c.stats.DiscardedNoMatch++
		return nil, nil
	}
	ctr := c.opts.Counters
	if created {
		c.stats.Candidates++
		if err := c.newCandidate(qe); err != nil {
			return nil, err
		}
	}
	if ctr != nil {
		ctr.Bit++
	}
	if qe.Bits.SetAndReport(int(de.Num)) {
		return nil, nil
	}
	qe.Num++
	if !c.opts.EarlyEmit {
		return nil, nil
	}
	if ctr != nil {
		ctr.Comp++
	}
	if qe.Num == c.divisorCount {
		c.stats.QuotientTuples++
		return qe.Tuple, nil
	}
	return nil, nil
}

// absorbBatchU64 is AbsorbBatch for the single-8-byte-column shape, the hot
// loop of every benchmark workload: keys load as words, hashes come from hs
// and the chain walks compare words, so no closure or interface call
// remains in the loop. Both batch loops charge bit sets once per batch.
func (c *Core) absorbBatchU64(b *exec.Batch, hs []uint64) error {
	divisorTable, quotientTable := c.divisorTable, c.quotient()
	divOff, quotOff := c.plan.div.off, c.plan.quot.off
	n := b.Len()
	var bits int64
	for i := 0; i < n; i++ {
		t := b.Tuple(i)
		dk := binary.LittleEndian.Uint64(t[divOff:])
		de := divisorTable.LookupU64(hs[2*i], dk)
		if de == nil {
			c.stats.DiscardedNoMatch++
			continue
		}
		qk := binary.LittleEndian.Uint64(t[quotOff:])
		qe, created := quotientTable.GetOrInsertU64(hs[2*i+1], qk)
		if created {
			c.stats.Candidates++
			if err := c.newCandidate(qe); err != nil {
				c.endBatch(i+1, bits)
				return err
			}
		}
		bits++
		qe.Bits.Set(int(de.Num))
	}
	c.endBatch(n, bits)
	return nil
}

// endBatch charges a batch loop's work once: read dividend tuples to the
// statistics and bit sets to the counters.
func (c *Core) endBatch(read int, bits int64) {
	c.stats.DividendTuples += int64(read)
	if c.opts.Counters != nil {
		c.opts.Counters.Bit += bits
	}
}

// Scan is step 3: it emits every candidate whose bit map has no zero — a
// word-level population count equal to the divisor count (§3.3 "inspecting
// a word at a time"). An empty divisor divides nothing, so it yields an
// empty quotient.
func (c *Core) Scan(emit func(tuple.Tuple) error) error {
	if c.quotientTable == nil || c.divisorCount == 0 {
		return nil
	}
	ctr := c.opts.Counters
	return c.quotientTable.Iterate(func(e *hashtab.Element) error {
		if ctr != nil {
			ctr.Bit += int64(e.Bits.SizeBytes() / 8)
		}
		if e.Bits.PopCount() != int(c.divisorCount) {
			return nil
		}
		c.stats.QuotientTuples++
		return emit(e.Tuple)
	})
}

// FreeDivisor drops the divisor table once the dividend is absorbed ("free
// divisor table"), charging its probe work to the counters.
func (c *Core) FreeDivisor() {
	c.free(&c.divisorTable)
}

// Release drops both tables ("free quotient table"), charging their
// remaining probe work to the counters. Stats stay readable, and so do the
// quotient tuples Scan and Absorb returned.
func (c *Core) Release() {
	c.FreeDivisor()
	c.free(&c.quotientTable)
}

// free charges a table's probe work to the counters and releases it.
func (c *Core) free(tp **hashtab.Table) {
	t := *tp
	if t == nil {
		return
	}
	if c.opts.Counters != nil {
		st := t.Stats()
		c.opts.Counters.Hash += st.Hashes
		c.opts.Counters.Comp += st.Comparisons
	}
	t.Release()
	*tp = nil
}
