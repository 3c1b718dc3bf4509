package division

import (
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// part is one partition of a dividend: a partitioning pass's child, with
// its rows resident in a flat arena (row i at [i*w, (i+1)*w), the layout of
// exec.Batch and of a heap page's record area) or in a spill file, or the
// caller's re-openable input itself (the recursion's root).
type part struct {
	rows []byte
	file *storage.File
	op   exec.Operator
	n    int // rows in the partition; -1 when unknown (the root)
}

// scan reads the partition: the input itself, a zero-copy ArenaScan of
// resident rows, or a table scan of a spill file.
func (c part) scan(ds *tuple.Schema) exec.Operator {
	switch {
	case c.op != nil:
		return c.op
	case c.file != nil:
		return exec.NewTableScan(c.file, false)
	default:
		return exec.NewArenaScan(ds, c.rows)
	}
}

// partitionPass is the partitioning loop of recursive division (§3.4), on
// either side. It reads its input a batch at a time, routes every row, keeps
// resident children as flat row arenas, and writes spilled children a page
// at a time: the rows a batch sends to spilled children are gathered per
// child and appended once per batch, so the memory outside the budget stays
// below one batch. Every child starts resident; once the resident rows pass
// the budget, the largest resident child moves to a spill file and grows
// there (hybrid residency). Residency decisions are made per row in input
// order, so each spill file holds the rows routed to its child in input
// order.
type partitionPass struct {
	env    Env
	schema *tuple.Schema
	fanOut int
	// key is the plan's key the pass splits on; route returns the child of
	// a row whose key hashes to h, or -1 to discard the row.
	key   *planKey
	route func(h uint64) int
	// budget bounds the resident bytes; newSpill supplies the file a child
	// moves to when they pass it.
	budget   int
	newSpill func() (*storage.File, error)
}

// run partitions src into fanOut children. Each batch's routing keys are
// hashed in one loop, into the first Len() words of its hash vector, before
// its rows are routed. The caller charges the hashes its route computed and
// owns every spill file newSpill created, on every path.
func (p *partitionPass) run(src exec.Operator) (parts []part, err error) {
	w := p.schema.Width()
	parts = make([]part, p.fanOut)
	aps := make([]*storage.Appender, p.fanOut)
	pending := make([][]byte, p.fanOut) // this batch's rows for spilled children
	// Buffers start at twice a child's even share — of a batch for rows bound
	// for disk, of the budget for resident rows — so they rarely grow.
	share := max(2*p.env.batchSize()/p.fanOut, 1) * w
	for i := range parts {
		parts[i].rows = make([]byte, 0, 2*p.budget/p.fanOut/w*w)
	}
	closeAll := func() (err error) {
		for i, a := range aps {
			if a != nil {
				if cerr := a.Close(); err == nil {
					err = cerr
				}
				aps[i] = nil
			}
		}
		return err
	}
	resident := 0

	// spillLargest stages the largest resident child out to a new spill file
	// and reports whether it made progress.
	spillLargest := func() (bool, error) {
		best, bestBytes := -1, -1
		for i := range parts {
			if aps[i] == nil && len(parts[i].rows) > bestBytes {
				best, bestBytes = i, len(parts[i].rows)
			}
		}
		if bestBytes <= 0 {
			return false, nil
		}
		f, err := p.newSpill()
		if err != nil {
			return false, err
		}
		parts[best].file, aps[best], pending[best] = f, f.NewAppender(), make([]byte, 0, share)
		if err := aps[best].AppendRows(parts[best].rows); err != nil {
			return false, err
		}
		resident -= bestBytes
		parts[best].rows = nil
		return true, nil
	}

	err = eachBatch(src, p.env.batchSize(), func(b *exec.Batch) error {
		raw, hs := b.Raw(), b.HashVector()
		p.key.hashInto(hs, 1, raw, w)
		for i, off := 0, 0; off < len(raw); i, off = i+1, off+w {
			row := raw[off : off+w : off+w]
			c := p.route(hs[i])
			if c < 0 {
				continue
			}
			if aps[c] != nil {
				pending[c] = append(pending[c], row...)
				continue
			}
			parts[c].rows = append(parts[c].rows, row...)
			resident += w
			for resident > p.budget {
				progress, err := spillLargest()
				if err != nil {
					return err
				}
				if !progress {
					break
				}
			}
		}
		for c, rows := range pending {
			if len(rows) > 0 {
				if err := aps[c].AppendRows(rows); err != nil {
					return err
				}
				pending[c] = rows[:0]
			}
		}
		return nil
	})
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for i := range parts {
		parts[i].n = len(parts[i].rows) / w
		if parts[i].file != nil {
			parts[i].n = parts[i].file.NumRecords()
		}
	}
	return parts, nil
}

// divideOp is hash-division of sp under env, probed against a child span of
// parent named name when tracing is on: the probe makes the span's inclusive
// counters cover its children, keeping every self non-negative.
// The division probes with plan, sp's keys compiled once for every cell.
func divideOp(env Env, parent *obs.Span, name string, sp Spec, plan *KeyPlan) (exec.Operator, *HashDivision) {
	var span *obs.Span
	if parent != nil {
		span = parent.Child(name, "hash-division")
		env.ProfileSpan = span
	}
	hd := NewHashDivision(sp, env, HashDivisionOptions{})
	hd.plan = plan
	return obs.Instrument(hd, span, env.Counters), hd
}

// eachBatch runs op to completion a batch at a time, through its native
// batch protocol or a lifting copy for a tuple-only input, and calls fn on
// every batch; the batch's rows are valid until fn returns. Like
// exec.ForEach it closes op on every path and turns a panic in the tree
// into an error.
func eachBatch(op exec.Operator, size int, fn func(*exec.Batch) error) (err error) {
	defer exec.RecoverPanic(&err)
	bop := exec.ToBatch(op)
	if err := bop.Open(); err != nil {
		return err
	}
	defer func() {
		if cerr := bop.Close(); err == nil {
			err = cerr
		}
	}()
	b := exec.NewBatch(op.Schema(), size)
	defer b.Release()
	for {
		if err := bop.NextBatch(b); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// eachTuple is eachBatch handing fn one row at a time.
func eachTuple(op exec.Operator, size int, fn func(tuple.Tuple)) error {
	return eachBatch(op, size, func(b *exec.Batch) error {
		for i := 0; i < b.Len(); i++ {
			fn(b.Tuple(i))
		}
		return nil
	})
}
