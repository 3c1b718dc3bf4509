// Package storage implements the record-oriented files of the paper's
// substrate: extent-based heap files of fixed-width records on a simulated
// device, accessed through the buffer manager. Scans hand out record
// addresses inside fixed buffer frames, so no bytes are copied on the read
// path; a reader that must outlive the frames takes one copy per page with
// ReadArena.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/tuple"
)

// pageHeaderLen is the per-page header: a uint32 record count.
const pageHeaderLen = 4

// RID addresses a record: a page and a slot within it.
type RID struct {
	Page disk.PageID
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// ErrBadRID is returned for out-of-range record ids.
var ErrBadRID = errors.New("storage: bad record id")

// File is an append-only heap file of fixed-width records described by a
// schema. File metadata — the page list and record count — lives with the
// File value, like the catalog of the simulated system; page payloads live
// on the device.
type File struct {
	name    string
	pool    *buffer.Pool
	dev     disk.Dev
	schema  *tuple.Schema
	perPage int
	pages   []disk.PageID
	numRecs int
	// spill marks a file created by NewSpillFile; the first Drop retires it
	// from the live-spill gauge.
	spill bool
}

// NewFile creates an empty heap file for schema records on dev.
func NewFile(pool *buffer.Pool, dev disk.Dev, schema *tuple.Schema, name string) *File {
	perPage := (dev.PageSize() - pageHeaderLen) / schema.Width()
	if perPage <= 0 {
		panic(fmt.Sprintf("storage: record of %d bytes does not fit %d-byte page",
			schema.Width(), dev.PageSize()))
	}
	return &File{name: name, pool: pool, dev: dev, schema: schema, perPage: perPage}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Schema returns the record layout.
func (f *File) Schema() *tuple.Schema { return f.schema }

// Device returns the backing device.
func (f *File) Device() disk.Dev { return f.dev }

// Pool returns the buffer pool the file goes through.
func (f *File) Pool() *buffer.Pool { return f.pool }

// NumRecords returns the record count.
func (f *File) NumRecords() int { return f.numRecs }

// NumPages returns the page count.
func (f *File) NumPages() int { return len(f.pages) }

// RecordsPerPage reports the page capacity in records.
func (f *File) RecordsPerPage() int { return f.perPage }

func pageCount(data []byte) int {
	return int(binary.LittleEndian.Uint32(data[:pageHeaderLen]))
}

func setPageCount(data []byte, n int) {
	binary.LittleEndian.PutUint32(data[:pageHeaderLen], uint32(n))
}

func (f *File) recordOffset(slot int) int {
	return pageHeaderLen + slot*f.schema.Width()
}

// Append adds one record and returns its id. For bulk loads prefer an
// Appender, which keeps the tail page fixed between calls.
func (f *File) Append(t tuple.Tuple) (RID, error) {
	ap := f.NewAppender()
	rid, err := ap.Append(t)
	if cerr := ap.Close(); err == nil {
		err = cerr
	}
	return rid, err
}

// Appender bulk-loads records, holding the tail page fixed across calls.
type Appender struct {
	f      *File
	page   disk.PageID
	handle *buffer.Handle
}

// NewAppender positions an appender at the file tail.
func (f *File) NewAppender() *Appender {
	return &Appender{f: f, page: disk.InvalidPage}
}

// Append writes one record, allocating a new tail page when the current one
// is full. It is AppendRows of a single row.
func (a *Appender) Append(t tuple.Tuple) (RID, error) {
	if len(t) != a.f.schema.Width() {
		return RID{}, fmt.Errorf("storage: record width %d, schema wants %d", len(t), a.f.schema.Width())
	}
	if err := a.AppendRows(t); err != nil {
		return RID{}, err
	}
	return RID{Page: a.page, Slot: pageCount(a.handle.Bytes()) - 1}, nil
}

// AppendRows writes whole records stored back to back in rows (record i at
// [i*w, (i+1)*w), the layout of exec.Batch), in order. It copies as many as
// fit into the tail page with one copy and one MarkDirty per page touched,
// allocating a new tail page only when a record is left over, so the file
// ends up with exactly the pages and slots per-record Append would give it.
func (a *Appender) AppendRows(rows []byte) error {
	f := a.f
	w := f.schema.Width()
	if len(rows)%w != 0 {
		return fmt.Errorf("storage: %d bytes are not whole %d-byte records", len(rows), w)
	}
	for len(rows) > 0 {
		if a.handle == nil {
			if err := a.openTail(); err != nil {
				return err
			}
		}
		data := a.handle.Bytes()
		n := pageCount(data)
		if n >= f.perPage {
			if err := a.rotate(); err != nil {
				return err
			}
			data = a.handle.Bytes()
			n = 0
		}
		k := min(f.perPage-n, len(rows)/w)
		copy(data[f.recordOffset(n):], rows[:k*w])
		setPageCount(data, n+k)
		a.handle.MarkDirty()
		f.numRecs += k
		rows = rows[k*w:]
	}
	return nil
}

func (a *Appender) openTail() error {
	f := a.f
	if len(f.pages) == 0 {
		return a.rotate()
	}
	last := f.pages[len(f.pages)-1]
	h, err := f.pool.Fix(f.dev, last)
	if err != nil {
		return err
	}
	a.page, a.handle = last, h
	return nil
}

func (a *Appender) rotate() error {
	f := a.f
	if a.handle != nil {
		if err := a.handle.Unfix(true); err != nil {
			return err
		}
		a.handle = nil
	}
	page, h, err := f.pool.NewPage(f.dev)
	if err != nil {
		return err
	}
	setPageCount(h.Bytes(), 0)
	h.MarkDirty()
	f.pages = append(f.pages, page)
	a.page, a.handle = page, h
	return nil
}

// Close releases the tail page.
func (a *Appender) Close() error {
	if a.handle == nil {
		return nil
	}
	err := a.handle.Unfix(true)
	a.handle = nil
	return err
}

// Fetch returns a copy of the record at rid.
func (f *File) Fetch(rid RID) (tuple.Tuple, error) {
	t, h, err := f.FetchRef(rid)
	if err != nil {
		return nil, err
	}
	out := t.Clone()
	if err := h.Unfix(true); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchRef returns the record at rid as a slice aliasing the fixed buffer
// frame, plus the handle keeping it fixed. The caller must Unfix the handle;
// the tuple is valid until then. This is the zero-copy path hash tables use
// to keep tuples "fixed in the buffer pool".
func (f *File) FetchRef(rid RID) (tuple.Tuple, *buffer.Handle, error) {
	if f.pageIndex(rid.Page) < 0 {
		return nil, nil, fmt.Errorf("%w: page %d not in file %s", ErrBadRID, rid.Page, f.name)
	}
	h, err := f.pool.Fix(f.dev, rid.Page)
	if err != nil {
		return nil, nil, err
	}
	data := h.Bytes()
	if rid.Slot < 0 || rid.Slot >= pageCount(data) {
		h.Unfix(true)
		return nil, nil, fmt.Errorf("%w: slot %d on page %d of %s", ErrBadRID, rid.Slot, rid.Page, f.name)
	}
	off := f.recordOffset(rid.Slot)
	return tuple.Tuple(data[off : off+f.schema.Width()]), h, nil
}

// PrefetchPages asks the pool's prefetcher (if read-ahead is enabled) to
// load the half-open page-index range [lo, hi) of the file asynchronously.
// It never blocks on device I/O and failures are silently dropped — the
// synchronous Fix path re-reads and reports them. Morsel producers use this
// to warm the next morsel's page range while the current one is absorbed,
// and the sort merge uses it to stage the head page of every run.
func (f *File) PrefetchPages(lo, hi int) {
	pf := f.pool.ReadAhead()
	if pf == nil {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(f.pages) {
		hi = len(f.pages)
	}
	if hi <= lo {
		return
	}
	pf.Prefetch(f.dev, f.pages[lo:hi]...)
}

// readAhead issues prefetches for the pages a sequential cursor will fix
// next: up to the prefetcher's depth, bounded by limit (exclusive).
func (f *File) readAhead(next, limit int) {
	pf := f.pool.ReadAhead()
	if pf == nil {
		return
	}
	if hi := next + pf.Depth(); hi < limit {
		limit = hi
	}
	f.PrefetchPages(next, limit)
}

func (f *File) pageIndex(p disk.PageID) int {
	for i, pg := range f.pages {
		if pg == p {
			return i
		}
	}
	return -1
}

// Scanner iterates over a file's records in storage order.
type Scanner struct {
	f      *File
	pageIx int
	slot   int
	handle *buffer.Handle
	count  int
	keep   bool
	closed bool
}

// Scan opens a sequential scan. keepPages controls the unfix hint: true keeps
// scanned pages in LRU (small files that will be rescanned), false marks them
// immediately replaceable (the large-dividend streaming case).
func (f *File) Scan(keepPages bool) *Scanner {
	return &Scanner{f: f, pageIx: -1, keep: keepPages}
}

// Next returns the next record (aliasing the fixed frame; valid until the
// following Next or Close call) and its id. It returns io.EOF after the last
// record.
func (s *Scanner) Next() (tuple.Tuple, RID, error) {
	if s.closed {
		return nil, RID{}, io.EOF
	}
	for {
		if s.handle != nil && s.slot < s.count {
			rid := RID{Page: s.f.pages[s.pageIx], Slot: s.slot}
			off := s.f.recordOffset(s.slot)
			t := tuple.Tuple(s.handle.Bytes()[off : off+s.f.schema.Width()])
			s.slot++
			return t, rid, nil
		}
		if s.handle != nil {
			if err := s.handle.Unfix(s.keep); err != nil {
				return nil, RID{}, err
			}
			s.handle = nil
		}
		s.pageIx++
		if s.pageIx >= len(s.f.pages) {
			s.closed = true
			return nil, RID{}, io.EOF
		}
		h, err := s.f.pool.Fix(s.f.dev, s.f.pages[s.pageIx])
		if err != nil {
			return nil, RID{}, err
		}
		// The cursor is sequential by construction: overlap the next pages'
		// reads with consuming this one.
		s.f.readAhead(s.pageIx+1, len(s.f.pages))
		s.handle = h
		s.count = pageCount(h.Bytes())
		s.slot = 0
	}
}

// Close releases any fixed page. Safe to call multiple times.
func (s *Scanner) Close() error {
	if s.handle != nil {
		err := s.handle.Unfix(s.keep)
		s.handle = nil
		s.closed = true
		return err
	}
	s.closed = true
	return nil
}

// PageScanner iterates over a file one whole page at a time, handing out the
// page's record area as a single contiguous byte slice. It is the storage
// face of batch execution: one buffer fix serves a full page of records, and
// the caller may alias tuples straight into the pinned frame.
type PageScanner struct {
	f      *File
	pageIx int
	limit  int // exclusive upper page index; -1 = whole file
	handle *buffer.Handle
	keep   bool
	closed bool
}

// ScanPages opens a page-at-a-time scan. keepPages has the same buffer unfix
// meaning as Scan.
func (f *File) ScanPages(keepPages bool) *PageScanner {
	return &PageScanner{f: f, pageIx: -1, limit: -1, keep: keepPages}
}

// ScanPageRange opens a page-at-a-time scan over the half-open page-index
// range [lo, hi) of the file's page list (clamped to it). Disjoint ranges
// touch disjoint pages, so range scans over one file may run concurrently —
// the buffer pool serializes frame management internally — which is how
// morsel-driven parallel scans split a table: every worker owns a page range
// and pays its own buffer fixes.
func (f *File) ScanPageRange(lo, hi int, keepPages bool) *PageScanner {
	if lo < 0 {
		lo = 0
	}
	if hi > len(f.pages) {
		hi = len(f.pages)
	}
	if hi < lo {
		hi = lo
	}
	return &PageScanner{f: f, pageIx: lo - 1, limit: hi, keep: keepPages}
}

// end returns the exclusive page-index bound of this scan.
func (ps *PageScanner) end() int {
	if ps.limit < 0 || ps.limit > len(ps.f.pages) {
		return len(ps.f.pages)
	}
	return ps.limit
}

// Next pins the next non-empty page and returns its record area: data holds
// n records of the file's schema width, back to back. data aliases the
// fixed buffer frame and is valid until the following Next or Close. Next
// returns io.EOF after the last page.
func (ps *PageScanner) Next() (data []byte, n int, err error) {
	if ps.closed {
		return nil, 0, io.EOF
	}
	for {
		if ps.handle != nil {
			if err := ps.handle.Unfix(ps.keep); err != nil {
				return nil, 0, err
			}
			ps.handle = nil
		}
		ps.pageIx++
		if ps.pageIx >= ps.end() {
			ps.closed = true
			return nil, 0, io.EOF
		}
		h, err := ps.f.pool.Fix(ps.f.dev, ps.f.pages[ps.pageIx])
		if err != nil {
			return nil, 0, err
		}
		// Page cursors are sequential within their range; stay ahead of the
		// consumer without crossing into a neighboring morsel's range.
		ps.f.readAhead(ps.pageIx+1, ps.end())
		ps.handle = h
		if n = pageCount(h.Bytes()); n == 0 {
			continue
		}
		return h.Bytes()[pageHeaderLen : pageHeaderLen+n*ps.f.schema.Width()], n, nil
	}
}

// Close releases any fixed page. Safe to call multiple times.
func (ps *PageScanner) Close() error {
	ps.closed = true
	if ps.handle != nil {
		err := ps.handle.Unfix(ps.keep)
		ps.handle = nil
		return err
	}
	return nil
}

// Flush writes the file's dirty pages back to its device, in file order.
func (f *File) Flush() error { return f.pool.FlushPages(f.dev, f.pages) }

// Drop writes nothing back: it discards the file's own buffer frames, leaves
// every other file's frames resident, and frees every page of the file back
// to its device. The file is empty and reusable afterwards. A page still
// fixed by a scanner is reported (buffer.ErrFixed) but freed all the same.
func (f *File) Drop() error {
	if f.spill {
		f.spill = false
		liveSpillFiles.Add(-1)
	}
	err := f.pool.DropPages(f.dev, f.pages)
	for _, p := range f.pages {
		if ferr := f.dev.Free(p); ferr != nil && err == nil {
			err = ferr
		}
	}
	f.pages = nil
	f.numRecs = 0
	return err
}

// Load bulk-appends all tuples.
func (f *File) Load(tuples []tuple.Tuple) error {
	ap := f.NewAppender()
	for _, t := range tuples {
		if _, err := ap.Append(t); err != nil {
			ap.Close()
			return err
		}
	}
	return ap.Close()
}

// ReadArena copies every record, in storage order, into one new slice:
// record i at bytes [i*w, (i+1)*w) for the schema width w, the layout of a
// page's record area and of exec.Batch. Each page is copied with one append
// of its record area. Scanned pages stay cached (Scan(true)).
func (f *File) ReadArena() ([]byte, error) {
	out := make([]byte, 0, f.numRecs*f.schema.Width())
	ps := f.ScanPages(true)
	defer ps.Close()
	for {
		data, _, err := ps.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
}

// ReadAll returns every record as a tuple. The tuples are slices of
// one ReadArena copy, so they outlive the buffer frames they were read from.
func (f *File) ReadAll() ([]tuple.Tuple, error) {
	arena, err := f.ReadArena()
	if err != nil {
		return nil, err
	}
	w := f.schema.Width()
	out := make([]tuple.Tuple, len(arena)/w)
	for i := range out {
		out[i] = tuple.Tuple(arena[i*w : (i+1)*w : (i+1)*w])
	}
	return out, nil
}
