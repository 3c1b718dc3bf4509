package division

import (
	"errors"
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// ErrMemoryBudget is returned when the divisor and quotient tables exceed
// Env.MemoryBudget; RecursiveHashDivision resolves it by re-partitioning the
// overflowing cell (§3.4).
var ErrMemoryBudget = errors.New("division: hash tables exceed memory budget")

// HashDivisionOptions tune the §3 algorithm.
type HashDivisionOptions struct {
	// EarlyEmit enables the §3.3 modification: a counter per quotient
	// candidate, compared against the divisor count before each bit is
	// set, lets the operator produce quotient tuples as soon as they
	// complete instead of waiting for the full dividend — making
	// hash-division a usable producer in a dataflow system.
	EarlyEmit bool
}

// HashDivisionStats describe one hash-division run, exposed for EXPLAIN
// ANALYZE-style reporting and for the overflow heuristics.
type HashDivisionStats struct {
	DivisorTuples    int64 // divisor input tuples read
	DivisorDistinct  int64 // distinct divisor tuples (duplicates eliminated on the fly)
	DividendTuples   int64 // dividend input tuples read
	DiscardedNoMatch int64 // dividend tuples with no divisor match, dropped in step 2
	Candidates       int64 // quotient candidates created
	QuotientTuples   int64 // candidates whose bit map had no zero
	PeakTableBytes   int   // high-water mark of divisor + quotient table memory
}

// HashDivision is the Figure 1 operator over a Core. Step 1 builds the
// divisor table, numbering divisor tuples and eliminating divisor duplicates
// on the fly. Step 2 consumes the dividend: tuples without a divisor match
// are discarded immediately; matching tuples locate (or create) their
// quotient candidate and set the bit indexed by the divisor number — so
// dividend duplicates are ignored automatically. Step 3 scans the quotient
// table for bit maps with no zero bit.
type HashDivision struct {
	sp   Spec
	env  Env
	opts HashDivisionOptions

	qs   *tuple.Schema
	plan *KeyPlan // compiled by the first Open, or the caller's (divideOp)
	core *Core    // built by Open

	// Stop-and-go result path.
	results []tuple.Tuple
	pos     int

	// Early-emit path.
	streaming bool
	opened    bool

	// Profile spans for the three Figure 1 steps (nil without a tracer).
	buildSpan  *obs.Span
	absorbSpan *obs.Span
	scanQSpan  *obs.Span
}

// Stats returns the run statistics gathered so far (complete after the
// operator is drained).
func (h *HashDivision) Stats() HashDivisionStats {
	if h.core == nil {
		return HashDivisionStats{}
	}
	return h.core.Stats()
}

// NewHashDivision builds the operator.
func NewHashDivision(sp Spec, env Env, opts HashDivisionOptions) *HashDivision {
	h := &HashDivision{sp: sp, env: env, opts: opts, qs: sp.QuotientSchema()}
	h.initSpans()
	return h
}

// initSpans wires the profile tree: the three Figure 1 steps record as phase
// spans, each input scan nested under the phase that drives it. In early-emit
// mode the dividend streams through Next, so its scan attaches directly to
// the algorithm span instead of an absorb phase.
func (h *HashDivision) initSpans() {
	parent := h.env.ProfileParent()
	if parent == nil {
		return
	}
	h.buildSpan = parent.Child("build-divisor-table", "phase")
	h.sp.Divisor = h.env.instrument(h.sp.Divisor, scanSpan(h.buildSpan, "scan(divisor)", h.sp.Divisor))
	if h.opts.EarlyEmit {
		h.sp.Dividend = h.env.instrument(h.sp.Dividend, scanSpan(parent, "scan(dividend)", h.sp.Dividend))
		return
	}
	h.absorbSpan = parent.Child("absorb-dividend", "phase")
	h.scanQSpan = parent.Child("scan-quotient-table", "phase")
	h.sp.Dividend = h.env.instrument(h.sp.Dividend, scanSpan(h.absorbSpan, "scan(dividend)", h.sp.Dividend))
}

// DivisorCount reports the number of distinct divisor tuples seen at Open.
func (h *HashDivision) DivisorCount() int64 {
	if h.core == nil {
		return 0
	}
	return h.core.DivisorCount()
}

// TableMemBytes reports the combined hash table footprint, for overflow
// experiments.
func (h *HashDivision) TableMemBytes() int {
	if h.core == nil {
		return 0
	}
	return h.core.MemBytes()
}

// Schema implements Operator.
func (h *HashDivision) Schema() *tuple.Schema { return h.qs }

// buildDivisorTable is step 1 of Figure 1.
func (h *HashDivision) buildDivisorTable() error {
	if h.plan == nil {
		h.plan = CompileKeyPlan(h.sp.Dividend.Schema(), h.sp.DivisorCols)
	}
	h.core = NewCore(h.plan, h.sp.Divisor.Schema(), CoreOptions{
		HashDivisionOptions: h.opts,
		MemoryBudget:        h.env.MemoryBudget,
		ExpectedDivisor:     h.env.expectedDivisor(),
		ExpectedQuotient:    h.env.expectedQuotient(),
		HBS:                 h.env.hbs(),
		Counters:            h.env.Counters,
	})
	if err := h.sp.Divisor.Open(); err != nil {
		return err
	}
	for {
		t, err := h.sp.Divisor.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = h.core.AddDivisor(t)
		}
		if err != nil {
			h.sp.Divisor.Close()
			return err
		}
	}
	return h.sp.Divisor.Close()
}

// Open implements Operator. In the default mode the entire dividend is
// consumed here (the algorithm "is a stop-and-go operator itself"); in
// early-emit mode only the divisor table is built and the dividend streams
// through Next.
func (h *HashDivision) Open() error {
	if err := h.sp.Validate(); err != nil {
		return err
	}
	ph := h.buildSpan.Start(h.env.Counters)
	err := h.buildDivisorTable()
	ph.End(h.core.Stats().DivisorDistinct)
	if err != nil {
		return err
	}
	h.results = nil
	h.pos = 0
	h.streaming = h.opts.EarlyEmit

	if h.streaming {
		if err := h.sp.Dividend.Open(); err != nil {
			return err
		}
		h.opened = true
		return nil
	}

	ph = h.absorbSpan.Start(h.env.Counters)
	err = h.absorbDividend()
	ph.End(h.core.Stats().DividendTuples)
	if err != nil {
		return err
	}

	// "free divisor table" — the divisor numbers are no longer needed.
	h.core.FreeDivisor()

	// Step 3: find the result in the quotient table.
	ph = h.scanQSpan.Start(h.env.Counters)
	err = h.core.Scan(func(t tuple.Tuple) error {
		h.results = append(h.results, t)
		return nil
	})
	ph.End(h.core.Stats().QuotientTuples)
	return err
}

// absorbDividend is step 2 in stop-and-go mode: the dividend is opened,
// drained, and closed here, entirely inside the absorb phase window, so the
// dividend scan's records nest under that phase. Batch-capable inputs take
// the vectorized pass — one NextBatch per page-sized batch instead of one
// interface dispatch per Transcript tuple; Core.AbsorbBatch performs exactly
// the operations Core.Absorb would, so statistics and cost counters are
// identical on both paths.
func (h *HashDivision) absorbDividend() error {
	if err := h.sp.Dividend.Open(); err != nil {
		return err
	}
	h.opened = true
	if bop, ok := exec.NativeBatch(h.sp.Dividend); ok {
		if err := h.absorbBatches(bop); err != nil {
			h.sp.Dividend.Close()
			return err
		}
	} else {
		for {
			t, err := h.sp.Dividend.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				_, err = h.core.Absorb(t)
			}
			if err != nil {
				h.sp.Dividend.Close()
				return err
			}
		}
	}
	return h.sp.Dividend.Close()
}

// absorbBatches is the vectorized step 2: it drains the dividend through the
// batch protocol into the core, which hashes each batch's keys with the
// plan before probing.
func (h *HashDivision) absorbBatches(bop exec.BatchOperator) error {
	b := exec.NewBatch(h.sp.Dividend.Schema(), h.env.batchSize())
	defer b.Release()
	for {
		err := bop.NextBatch(b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := h.core.AbsorbBatch(b); err != nil {
			return err
		}
	}
}

// NextBatch implements exec.BatchOperator: the quotient-output scan emits
// the completed candidates batch-at-a-time. In early-emit mode quotient
// tuples surface as the dividend streams, so batches are filled through the
// per-tuple path.
func (h *HashDivision) NextBatch(b *exec.Batch) error {
	if !h.opened {
		return errNotOpen("HashDivision")
	}
	if h.streaming {
		return exec.FillBatch(streamNexter{h}, b)
	}
	if h.pos >= len(h.results) {
		return io.EOF
	}
	b.Reset()
	for h.pos < len(h.results) && !b.Full() {
		b.Append(h.results[h.pos])
		h.pos++
	}
	return nil
}

// streamNexter adapts the early-emit Next loop to exec.FillBatch without
// re-entering the opened-state checks per tuple.
type streamNexter struct{ h *HashDivision }

func (s streamNexter) Schema() *tuple.Schema      { return s.h.qs }
func (s streamNexter) Open() error                { return nil }
func (s streamNexter) Close() error               { return nil }
func (s streamNexter) Next() (tuple.Tuple, error) { return s.h.Next() }

// Next implements Operator.
func (h *HashDivision) Next() (tuple.Tuple, error) {
	if !h.opened {
		return nil, errNotOpen("HashDivision")
	}
	if h.streaming {
		if h.core.DivisorCount() == 0 {
			return nil, io.EOF
		}
		for {
			t, err := h.sp.Dividend.Next()
			if err == io.EOF {
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			q, err := h.core.Absorb(t)
			if err != nil {
				return nil, err
			}
			if q != nil {
				return q, nil
			}
		}
	}
	if h.pos >= len(h.results) {
		return nil, io.EOF
	}
	t := h.results[h.pos]
	h.pos++
	return t, nil
}

// Close implements Operator: "free quotient table".
func (h *HashDivision) Close() error {
	var err error
	if h.streaming && h.opened {
		err = h.sp.Dividend.Close()
	}
	if h.core != nil {
		h.core.Release()
	}
	h.results = nil
	h.opened = false
	h.streaming = false
	return err
}
