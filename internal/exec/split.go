// Morsel splitting: turning one dividend source into many independently
// scannable chunks, the input side of morsel-driven parallelism (DESIGN.md
// §9). A splittable source yields a set of BatchOperators covering disjoint
// slices of its data; parallel workers pull them from a shared queue and scan
// them concurrently, so no single goroutine ever touches every tuple.
package exec

import (
	"io"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// Splittable is implemented by operators whose data can be handed out as
// independently scannable morsels. Each returned BatchOperator covers a
// disjoint slice of the source, has its own open/next/close state, and may be
// driven from a different goroutine than its siblings (concurrently); the
// concatenation of all morsels in order is exactly the source's full output.
// The parent operator itself is NOT opened — splitting replaces scanning it.
//
// tuplesPerMorsel is a target chunk size; implementations round it to their
// natural grain (whole heap pages for table scans) and never return an empty
// morsel for a non-empty source.
type Splittable interface {
	Operator
	Morsels(tuplesPerMorsel int) []BatchOperator
}

// Prefetchable is implemented by morsels that can warm the buffer pool for
// their data ahead of being scanned. Producers call Prefetch on the NEXT
// morsel while absorbing the current one, overlapping its device reads with
// CPU work; the call never blocks on I/O and is a no-op when the pool has no
// prefetcher.
type Prefetchable interface {
	Prefetch()
}

// SplitMorsels splits op when it supports splitting. The bool result reports
// capability, not emptiness: (nil, true) is a legitimate answer for an empty
// splittable source. Wrappers that hide operator capabilities (Opaque,
// instrumentation probes, fault injectors) do not split — callers fall back
// to a single-reader scan.
func SplitMorsels(op Operator, tuplesPerMorsel int) ([]BatchOperator, bool) {
	s, ok := op.(Splittable)
	if !ok {
		return nil, false
	}
	return s.Morsels(tuplesPerMorsel), true
}

// Morsels implements Splittable for MemScan: chunks are subslices of the
// backing tuple slice, which is shared read-only across morsels.
func (m *MemScan) Morsels(tuplesPerMorsel int) []BatchOperator {
	if tuplesPerMorsel < 1 {
		tuplesPerMorsel = DefaultBatchSize
	}
	var out []BatchOperator
	for lo := 0; lo < len(m.tuples); lo += tuplesPerMorsel {
		hi := lo + tuplesPerMorsel
		if hi > len(m.tuples) {
			hi = len(m.tuples)
		}
		out = append(out, NewMemScan(m.schema, m.tuples[lo:hi]))
	}
	return out
}

// Morsels implements Splittable for ArenaScan: chunks are sub-arenas of
// the backing slice, shared read-only across morsels, so every morsel keeps
// the zero-copy batch scan.
func (a *ArenaScan) Morsels(tuplesPerMorsel int) []BatchOperator {
	if tuplesPerMorsel < 1 {
		tuplesPerMorsel = DefaultBatchSize
	}
	step := tuplesPerMorsel * a.schema.Width()
	var out []BatchOperator
	for lo := 0; lo < len(a.rows); lo += step {
		hi := min(lo+step, len(a.rows))
		out = append(out, NewArenaScan(a.schema, a.rows[lo:hi:hi]))
	}
	return out
}

// Morsels implements Splittable for TableScan: chunks are page-index ranges
// of the heap file, scanned through storage.File.ScanPageRange. Whole pages
// are the split grain, so every morsel keeps the one-buffer-fix-per-batch
// economics of the native batch scan; disjoint ranges fix disjoint pages, and
// the buffer pool is safe for concurrent fixes.
func (t *TableScan) Morsels(tuplesPerMorsel int) []BatchOperator {
	if tuplesPerMorsel < 1 {
		tuplesPerMorsel = DefaultBatchSize
	}
	perPage := t.file.RecordsPerPage()
	pagesPerMorsel := tuplesPerMorsel / perPage
	if pagesPerMorsel < 1 {
		pagesPerMorsel = 1
	}
	var out []BatchOperator
	for lo := 0; lo < t.file.NumPages(); lo += pagesPerMorsel {
		hi := lo + pagesPerMorsel
		if hi > t.file.NumPages() {
			hi = t.file.NumPages()
		}
		out = append(out, &pageRangeScan{file: t.file, lo: lo, hi: hi, keep: t.keep})
	}
	return out
}

// pageRangeScan is one table-scan morsel: the batch protocol over a page
// range.
type pageRangeScan struct {
	file   *storage.File
	lo, hi int
	keep   bool
	opened bool
	ps     *storage.PageScanner
}

func (r *pageRangeScan) Schema() *tuple.Schema { return r.file.Schema() }

// Prefetch implements Prefetchable: asynchronously stage this morsel's page
// range so a worker picking it up next finds the frames already resident.
func (r *pageRangeScan) Prefetch() { r.file.PrefetchPages(r.lo, r.hi) }

func (r *pageRangeScan) Open() error {
	if err := r.Close(); err != nil {
		return err
	}
	r.opened = true
	return nil
}

func (r *pageRangeScan) NextBatch(b *Batch) error {
	if !r.opened {
		return errNotOpen("pageRangeScan")
	}
	if r.ps == nil {
		r.ps = r.file.ScanPageRange(r.lo, r.hi, r.keep)
	}
	return nextPageBatch(r.ps, b)
}

// nextPageBatch is the batch loop of every heap-file scan, a whole TableScan
// or one of its morsels: it pins the scanner's next heap page and aliases
// the batch at the page's record area, so a whole page costs one buffer fix
// and zero copies. The page stays fixed until the following call or the
// scanner's Close — exactly the batch validity contract.
func nextPageBatch(ps *storage.PageScanner, b *Batch) error {
	data, n, err := ps.Next()
	if err != nil {
		return err
	}
	b.SetAlias(data, n)
	return nil
}

func (r *pageRangeScan) Close() error {
	r.opened = false
	if r.ps != nil {
		err := r.ps.Close()
		r.ps = nil
		return err
	}
	return nil
}

// DrainMorsel runs one morsel start to finish, handing every batch to sink,
// and always closes the operator — including on error, so no pinned frame
// outlives a failed scan. The scratch batch is reused across calls; its
// contents (possibly an alias into a pinned page) are valid only inside sink.
func DrainMorsel(op BatchOperator, scratch *Batch, sink func(*Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	for {
		err := op.NextBatch(scratch)
		if err == io.EOF {
			return op.Close()
		}
		if err != nil {
			op.Close()
			return err
		}
		if err := sink(scratch); err != nil {
			op.Close()
			return err
		}
	}
}
