package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/tuple"
)

func testFile(t *testing.T, pageSize, poolBytes int) *File {
	t.Helper()
	dev := disk.NewDevice("t", pageSize)
	pool := buffer.New(poolBytes)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	return NewFile(pool, dev, schema, "test")
}

func TestAppendAndScan(t *testing.T) {
	f := testFile(t, 68, 1024) // header 4 + 4 records of 16 bytes
	if f.RecordsPerPage() != 4 {
		t.Fatalf("RecordsPerPage = %d, want 4", f.RecordsPerPage())
	}
	s := f.Schema()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumRecords() != n {
		t.Errorf("NumRecords = %d, want %d", f.NumRecords(), n)
	}
	if f.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", f.NumPages())
	}

	sc := f.Scan(true)
	defer sc.Close()
	for i := 0; i < n; i++ {
		tp, rid, err := sc.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got := s.Int64(tp, 0); got != int64(i) {
			t.Errorf("record %d: a = %d", i, got)
		}
		if got := s.Int64(tp, 1); got != int64(i*i) {
			t.Errorf("record %d: b = %d", i, got)
		}
		if want := i / 4; int(rid.Page) != want {
			t.Errorf("record %d on page %d, want %d", i, rid.Page, want)
		}
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Errorf("after last record: %v, want EOF", err)
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Errorf("repeated Next after EOF: %v, want EOF", err)
	}
}

func TestScanEmptyFile(t *testing.T) {
	f := testFile(t, 68, 1024)
	sc := f.Scan(true)
	defer sc.Close()
	if _, _, err := sc.Next(); err != io.EOF {
		t.Errorf("empty scan: %v, want EOF", err)
	}
}

func TestAppenderMatchesAppend(t *testing.T) {
	f := testFile(t, 68, 1024)
	s := f.Schema()
	ap := f.NewAppender()
	rids := make([]RID, 0, 9)
	for i := 0; i < 9; i++ {
		rid, err := ap.Append(s.MustMake(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		tp, err := f.Fetch(rid)
		if err != nil {
			t.Fatalf("Fetch %v: %v", rid, err)
		}
		if got := s.Int64(tp, 0); got != int64(i) {
			t.Errorf("Fetch(%v) = %d, want %d", rid, got, i)
		}
	}
	if f.Pool().FixedFrames() != 0 {
		t.Error("appender leaked fixed frames")
	}
}

func TestAppendWrongWidth(t *testing.T) {
	f := testFile(t, 68, 1024)
	if _, err := f.Append(make(tuple.Tuple, 3)); err == nil {
		t.Error("Append with wrong width should fail")
	}
}

func TestFetchErrors(t *testing.T) {
	f := testFile(t, 68, 1024)
	s := f.Schema()
	rid, err := f.Append(s.MustMake(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(RID{Page: 99, Slot: 0}); !errors.Is(err, ErrBadRID) {
		t.Errorf("bad page: %v", err)
	}
	if _, err := f.Fetch(RID{Page: rid.Page, Slot: 7}); !errors.Is(err, ErrBadRID) {
		t.Errorf("bad slot: %v", err)
	}
}

func TestFetchRefAliasesFrame(t *testing.T) {
	f := testFile(t, 68, 1024)
	s := f.Schema()
	rid, err := f.Append(s.MustMake(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	tp, h, err := f.FetchRef(rid)
	if err != nil {
		t.Fatal(err)
	}
	if s.Int64(tp, 0) != 5 {
		t.Error("wrong record")
	}
	if f.Pool().FixedFrames() != 1 {
		t.Error("FetchRef should leave the frame fixed")
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if f.Pool().FixedFrames() != 0 {
		t.Error("unfix did not release")
	}
}

// TestFetchRefRejectsBadRID: a page outside the file and a slot outside the
// page's records fail with ErrBadRID, and a rejected slot leaves the page's
// frame unfixed.
func TestFetchRefRejectsBadRID(t *testing.T) {
	f := testFile(t, 68, 1024)
	s := f.Schema()
	rid, err := f.Append(s.MustMake(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []RID{
		{Page: rid.Page + 99, Slot: 0},
		{Page: rid.Page, Slot: -1},
		{Page: rid.Page, Slot: 1},
	} {
		if tp, h, err := f.FetchRef(bad); !errors.Is(err, ErrBadRID) || tp != nil || h != nil {
			t.Errorf("FetchRef(%+v) = %v, %v, %v, want ErrBadRID", bad, tp, h, err)
		}
		if n := f.Pool().FixedFrames(); n != 0 {
			t.Fatalf("FetchRef(%+v) left %d frames fixed", bad, n)
		}
	}
}

func TestScanSurvivesEvictionPressure(t *testing.T) {
	// Pool of 2 frames, file of many pages: the scan must keep working while
	// pages are continuously evicted behind it.
	dev := disk.NewDevice("t", 68)
	pool := buffer.New(2 * 68)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	f := NewFile(pool, dev, schema, "big")
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := f.Append(schema.MustMake(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sc := f.Scan(false)
	defer sc.Close()
	for i := 0; i < n; i++ {
		tp, _, err := sc.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got := schema.Int64(tp, 0); got != int64(i) {
			t.Fatalf("record %d read as %d", i, got)
		}
	}
}

func TestDropFreesPages(t *testing.T) {
	f := testFile(t, 68, 1024)
	s := f.Schema()
	for i := 0; i < 12; i++ {
		if _, err := f.Append(s.MustMake(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	pages := f.Device().NumPages()
	if pages == 0 {
		t.Fatal("no pages allocated")
	}
	if err := f.Drop(); err != nil {
		t.Fatal(err)
	}
	if f.NumRecords() != 0 || f.NumPages() != 0 {
		t.Error("file not empty after Drop")
	}
	if got := f.Device().NumPages(); got != 0 {
		t.Errorf("device still holds %d pages", got)
	}
	// File is reusable.
	if _, err := f.Append(s.MustMake(1, 1)); err != nil {
		t.Fatal(err)
	}
	all, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("ReadAll after reuse = %d records", len(all))
	}
}

func TestLoadReadAllRoundTrip(t *testing.T) {
	f := testFile(t, 68, 4096)
	s := f.Schema()
	in := make([]tuple.Tuple, 37)
	for i := range in {
		in[i] = s.MustMake(i, -i)
	}
	if err := f.Load(in); err != nil {
		t.Fatal(err)
	}
	out, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if s.CompareAll(in[i], out[i]) != 0 {
			t.Errorf("record %d mismatch: %s vs %s", i, s.Format(in[i]), s.Format(out[i]))
		}
	}
}

// scanRecords is the per-record reference for ReadArena: every record
// through Scan, back to back.
func scanRecords(t *testing.T, f *File) []byte {
	t.Helper()
	sc := f.Scan(true)
	defer sc.Close()
	var out []byte
	for {
		tp, _, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp...)
	}
}

// TestReadArenaMatchesScan: the bulk read equals a per-record Scan on an
// empty file and on a multi-page file with a partial last page, and it
// leaves no frame fixed.
func TestReadArenaMatchesScan(t *testing.T) {
	f := testFile(t, 68, 4096) // 4 records per page
	s := f.Schema()
	check := func(what string) {
		t.Helper()
		got, err := f.ReadArena()
		if err != nil {
			t.Fatal(err)
		}
		if want := scanRecords(t, f); !bytes.Equal(got, want) || len(got) != f.NumRecords()*s.Width() {
			t.Fatalf("%s: ReadArena %d bytes, Scan %d bytes for %d records", what, len(got), len(want), f.NumRecords())
		}
		if n := f.Pool().FixedFrames(); n != 0 {
			t.Fatalf("%s: %d frames still fixed", what, n)
		}
	}
	check("empty file")
	for i := 0; i < 30; i++ {
		if _, err := f.Append(s.MustMake(i, 100-i)); err != nil {
			t.Fatal(err)
		}
	}
	check("eight pages")
}

// Property: any sequence of int64 pairs survives a load/scan round trip in
// order, across varying page sizes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []int64, pageSel uint8) bool {
		pageSizes := []int{36, 68, 132, 1024}
		dev := disk.NewDevice("q", pageSizes[int(pageSel)%len(pageSizes)])
		pool := buffer.New(64 * 1024)
		schema := tuple.NewSchema(tuple.Int64Field("v"), tuple.Int64Field("w"))
		file := NewFile(pool, dev, schema, "q")
		for i, v := range vals {
			if _, err := file.Append(schema.MustMake(v, int64(i))); err != nil {
				return false
			}
		}
		out, err := file.ReadAll()
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i, v := range vals {
			if schema.Int64(out[i], 0) != v || schema.Int64(out[i], 1) != int64(i) {
				return false
			}
		}
		return pool.FixedFrames() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	dev := disk.NewDevice("b", disk.PaperPageSize)
	pool := buffer.New(buffer.PaperPoolBytes)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	f := NewFile(pool, dev, schema, "bench")
	tp := schema.MustMake(1, 2)
	ap := f.NewAppender()
	defer ap.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ap.Append(tp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	dev := disk.NewDevice("b", disk.PaperPageSize)
	pool := buffer.New(4 * buffer.PaperPoolBytes)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	f := NewFile(pool, dev, schema, "bench")
	for i := 0; i < 10000; i++ {
		if _, err := f.Append(schema.MustMake(i, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := f.Scan(true)
		for {
			_, _, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		sc.Close()
	}
}

// rescanFile is a 24-page heap file of 8 KB pages over a 64 KB pool (three
// times the pool), scanned once, so the free list holds evicted frames'
// buffers and every page of the next scan misses.
func rescanFile(tb testing.TB) *File {
	tb.Helper()
	dev := disk.NewDevice("rescan", disk.PaperPageSize)
	pool := buffer.New(64 << 10)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	f := NewFile(pool, dev, schema, "rescan")
	ap := f.NewAppender()
	for i := 0; i < 24*f.RecordsPerPage(); i++ {
		if _, err := ap.Append(schema.MustMake(i, i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		tb.Fatal(err)
	}
	scanAll(tb, f)
	return f
}

// scanAll reads every record of f with a sequential Scanner that keeps its
// pages in LRU order, so a file larger than the pool misses on every page.
func scanAll(tb testing.TB, f *File) {
	tb.Helper()
	sc := f.Scan(true)
	defer sc.Close()
	for n := 0; ; n++ {
		_, _, err := sc.Next()
		if err == io.EOF {
			if n != f.NumRecords() {
				tb.Fatalf("scan read %d of %d records", n, f.NumRecords())
			}
			return
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRescan is a full scan of a heap file three times the size of its
// pool, after a first scan: every page misses, and each miss should take an
// evicted frame's buffer instead of allocating one. It reports the bytes
// allocated per missed page beside allocs/op.
func BenchmarkRescan(b *testing.B) {
	f := rescanFile(b)
	misses := f.Pool().Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, f)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	missed := f.Pool().Stats().Misses - misses
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(missed), "B/miss")
}

func TestPageScannerRecordAreas(t *testing.T) {
	f := testFile(t, 68, 1024) // 4 records per page
	s := f.Schema()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	ps := f.ScanPages(true)
	defer ps.Close()
	width := s.Width()
	var got []int64
	pages := 0
	for {
		data, cnt, err := ps.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cnt*width {
			t.Errorf("page %d: %d bytes for %d records", pages, len(data), cnt)
		}
		for i := 0; i < cnt; i++ {
			got = append(got, s.Int64(tuple.Tuple(data[i*width:(i+1)*width]), 0))
		}
		pages++
	}
	if pages != 3 {
		t.Errorf("scanned %d pages, want 3", pages)
	}
	if len(got) != n {
		t.Fatalf("scanned %d records, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Errorf("record %d = %d", i, v)
		}
	}
}

func TestPageScannerEmptyFileAndClose(t *testing.T) {
	f := testFile(t, 68, 1024)
	ps := f.ScanPages(false)
	if _, _, err := ps.Next(); err != io.EOF {
		t.Fatalf("empty file scan: %v, want EOF", err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// Close mid-scan releases the pinned page; Next afterwards is EOF.
	s := f.Schema()
	for i := 0; i < 8; i++ {
		if _, err := f.Append(s.MustMake(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	ps = f.ScanPages(false)
	if _, _, err := ps.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ps.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v, want EOF", err)
	}
	if got := f.Pool().FixedFrames(); got != 0 {
		t.Errorf("%d pages still fixed after Close", got)
	}
}

// collectRange drains a page-range scan into the records' first columns.
func collectRange(t *testing.T, f *File, lo, hi int) []int64 {
	t.Helper()
	ps := f.ScanPageRange(lo, hi, true)
	defer ps.Close()
	var out []int64
	w := f.Schema().Width()
	for {
		data, n, err := ps.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < n; slot++ {
			rec := tuple.Tuple(data[slot*w : (slot+1)*w])
			out = append(out, f.Schema().Int64(rec, 0))
		}
	}
}

func TestScanPageRange(t *testing.T) {
	f := testFile(t, 68, 4096) // 4 records per page
	s := f.Schema()
	const n = 23 // 6 pages, last one partial
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A disjoint cover of the page list must reproduce the whole file in
	// storage order, regardless of how the split points fall.
	for _, cuts := range [][]int{{0, 6}, {0, 2, 6}, {0, 1, 3, 5, 6}, {0, 3, 3, 6}} {
		var got []int64
		for i := 0; i+1 < len(cuts); i++ {
			got = append(got, collectRange(t, f, cuts[i], cuts[i+1])...)
		}
		if len(got) != n {
			t.Fatalf("cuts %v: %d records, want %d", cuts, len(got), n)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("cuts %v: record %d = %d", cuts, i, v)
			}
		}
	}
	// Bounds are clamped, an empty or inverted range yields io.EOF at once.
	if got := collectRange(t, f, -3, 99); len(got) != n {
		t.Errorf("clamped full range saw %d records, want %d", len(got), n)
	}
	if got := collectRange(t, f, 4, 2); len(got) != 0 {
		t.Errorf("inverted range saw %d records, want 0", len(got))
	}
}

// TestScanPageRangeConcurrent runs disjoint range scans of one file in
// parallel goroutines; with -race this backs the DESIGN.md §9 claim that
// morsel workers may scan their page ranges concurrently through one pool.
func TestScanPageRangeConcurrent(t *testing.T) {
	f := testFile(t, 68, 16*1024)
	s := f.Schema()
	const n = 400 // 100 pages
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	const parts = 8
	counts := make([]int, parts)
	var wg sync.WaitGroup
	per := (f.NumPages() + parts - 1) / parts
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ps := f.ScanPageRange(p*per, (p+1)*per, false)
			defer ps.Close()
			for {
				_, m, err := ps.Next()
				if err != nil {
					return
				}
				counts[p] += m
			}
		}(p)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Errorf("concurrent ranges saw %d records, want %d", total, n)
	}
	if fixed := f.Pool().FixedFrames(); fixed != 0 {
		t.Errorf("%d frames still fixed after concurrent scans", fixed)
	}
}

// TestScanPageRangeDegenerate pins down the edge geometry of range scans:
// empty ranges, ranges entirely past the end of the file, and ranges of
// exactly one page. None of these may pin frames, touch the device beyond
// their pages, or report anything but clean io.EOF at the end.
func TestScanPageRangeDegenerate(t *testing.T) {
	f := testFile(t, 68, 4096) // 4 records per page
	s := f.Schema()
	const n = 9 // 3 pages, last one partial
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Empty range [k, k): immediate EOF, zero device reads, zero fixes.
	fixesBefore := f.Pool().Stats().Fixes
	for _, k := range []int{0, 1, f.NumPages(), f.NumPages() + 5} {
		ps := f.ScanPageRange(k, k, true)
		if _, _, err := ps.Next(); err != io.EOF {
			t.Errorf("empty range [%d,%d): err = %v, want EOF", k, k, err)
		}
		// EOF is sticky.
		if _, _, err := ps.Next(); err != io.EOF {
			t.Errorf("empty range [%d,%d) second Next: err = %v, want EOF", k, k, err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("empty range close: %v", err)
		}
	}
	if got := f.Pool().Stats().Fixes; got != fixesBefore {
		t.Errorf("empty ranges fixed %d pages, want 0", got-fixesBefore)
	}

	// Range entirely past EOF: clamped to nothing.
	if got := collectRange(t, f, f.NumPages(), f.NumPages()+10); len(got) != 0 {
		t.Errorf("past-EOF range saw %d records, want 0", len(got))
	}
	if got := collectRange(t, f, 100, 200); len(got) != 0 {
		t.Errorf("far past-EOF range saw %d records, want 0", len(got))
	}

	// Single-page ranges partition the file exactly, including the final
	// partial page.
	wants := []int{4, 4, 1}
	for pg, want := range wants {
		got := collectRange(t, f, pg, pg+1)
		if len(got) != want {
			t.Errorf("single-page range [%d,%d): %d records, want %d", pg, pg+1, len(got), want)
		}
		for i, v := range got {
			if v != int64(pg*4+i) {
				t.Errorf("single-page range page %d record %d = %d, want %d", pg, i, v, pg*4+i)
			}
		}
	}

	// A partly-overhanging range behaves like its clamped core.
	if got := collectRange(t, f, 2, 50); len(got) != 1 {
		t.Errorf("overhanging range saw %d records, want 1", len(got))
	}
	if fixed := f.Pool().FixedFrames(); fixed != 0 {
		t.Errorf("%d frames still fixed after degenerate scans", fixed)
	}
}

// TestScanReadAhead: with a prefetcher enabled on the pool, a sequential
// page scan should find most of its pages already resident — the scanner
// stays ahead of itself — and a range scan must never prefetch pages beyond
// its own bound into a neighboring morsel's territory.
func TestScanReadAhead(t *testing.T) {
	f := testFile(t, 68, 16*1024)
	s := f.Schema()
	const n = 64 // 16 pages
	for i := 0; i < n; i++ {
		if _, err := f.Append(s.MustMake(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Pool().DropClean(); err != nil {
		t.Fatal(err)
	}
	pf := f.Pool().EnableReadAhead(32, 4)
	defer f.Pool().DisableReadAhead()

	// Staged read-ahead: prefetch the whole file, wait for it, then scan.
	// Every fix must land on a prefetched frame.
	f.PrefetchPages(0, f.NumPages())
	pf.Drain()
	if got := collectRange(t, f, 0, f.NumPages()); len(got) != n {
		t.Fatalf("scan with read-ahead saw %d records, want %d", len(got), n)
	}
	st := f.Pool().Stats()
	if st.PrefetchIssued != f.NumPages() {
		t.Errorf("prefetch issued %d loads, want %d", st.PrefetchIssued, f.NumPages())
	}
	if st.PrefetchHits != f.NumPages() {
		t.Errorf("prefetch hits = %d, want %d", st.PrefetchHits, f.NumPages())
	}
	if st.Misses != 0 {
		t.Errorf("scan over fully prefetched file missed %d times, want 0", st.Misses)
	}

	// Pipelined read-ahead: a cold sequential scan issues prefetches for the
	// pages ahead of the cursor as it goes. (Whether they complete in time
	// is a scheduling question; that they are issued is not.)
	if err := f.Pool().DropClean(); err != nil {
		t.Fatal(err)
	}
	f.Pool().ResetStats()
	if got := collectRange(t, f, 0, f.NumPages()); len(got) != n {
		t.Fatalf("cold scan saw %d records, want %d", len(got), n)
	}
	pf.Drain()
	if st := f.Pool().Stats(); st.PrefetchIssued+st.PrefetchDropped == 0 {
		t.Error("cold sequential scan issued no read-ahead at all")
	}

	// A bounded range must not prefetch past its limit: drop everything,
	// scan only pages [0, 4), and verify pages >= 4+depth were never read.
	if err := f.Pool().DropClean(); err != nil {
		t.Fatal(err)
	}
	f.Pool().ResetStats()
	readsBefore := f.Device().Stats().Reads
	if got := collectRange(t, f, 0, 4); len(got) != 16 {
		t.Fatalf("bounded range saw %d records, want 16", len(got))
	}
	pf.Drain()
	reads := f.Device().Stats().Reads - readsBefore
	if reads > 4 {
		t.Errorf("bounded range of 4 pages read %d pages from the device, want <= 4", reads)
	}
	if fixed := f.Pool().FixedFrames(); fixed != 0 {
		t.Errorf("%d frames still fixed after read-ahead scans", fixed)
	}
}

// pageImages flushes f and returns the device bytes of each of its pages.
func pageImages(t *testing.T, f *File) [][]byte {
	t.Helper()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, f.NumPages())
	for i, p := range f.pages {
		out[i] = make([]byte, f.Device().PageSize())
		if err := f.Device().Read(p, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// scanRIDs returns every record id of f in scan order.
func scanRIDs(t *testing.T, f *File) []RID {
	t.Helper()
	sc := f.Scan(true)
	defer sc.Close()
	var out []RID
	for {
		_, rid, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rid)
	}
}

// TestAppendRowsMatchesAppend: bulk appends leave a file identical to
// per-record Append of the same rows — page images, scanned record ids,
// NumRecords and NumPages — across runs that end mid-page, an empty call,
// and a second appender opened on the non-empty file.
func TestAppendRowsMatchesAppend(t *testing.T) {
	bulk, single := testFile(t, 68, 4096), testFile(t, 68, 4096) // 4 records per page
	s := bulk.Schema()
	var rows []byte
	for i := 0; i < 14; i++ {
		rows = append(rows, s.MustMake(i, -i)...)
	}
	w := s.Width()
	for _, runs := range [][]int{{3, 0, 5, 2}, {4}} { // records per AppendRows call, per appender
		ap, sp := bulk.NewAppender(), single.NewAppender()
		for _, n := range runs {
			if err := ap.AppendRows(rows[:n*w]); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := sp.Append(tuple.Tuple(rows[i*w : (i+1)*w])); err != nil {
					t.Fatal(err)
				}
			}
			rows = rows[n*w:]
		}
		if err := errors.Join(ap.Close(), sp.Close()); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.NumRecords() != 14 || bulk.NumRecords() != single.NumRecords() || bulk.NumPages() != single.NumPages() {
		t.Fatalf("bulk: %d records on %d pages; per record: %d on %d",
			bulk.NumRecords(), bulk.NumPages(), single.NumRecords(), single.NumPages())
	}
	bi, si := pageImages(t, bulk), pageImages(t, single)
	for i := range bi {
		if !bytes.Equal(bi[i], si[i]) {
			t.Errorf("page %d differs:\nbulk   %x\nsingle %x", i, bi[i], si[i])
		}
	}
	if br, sr := scanRIDs(t, bulk), scanRIDs(t, single); fmt.Sprint(br) != fmt.Sprint(sr) {
		t.Errorf("record ids differ:\nbulk   %v\nsingle %v", br, sr)
	}
	if bulk.Pool().FixedFrames() != 0 {
		t.Error("appender leaked fixed frames")
	}
}

// TestAppendRowsEdges: an empty call allocates no page, and a run of partial
// records is rejected without writing anything.
func TestAppendRowsEdges(t *testing.T) {
	f := testFile(t, 68, 1024)
	ap := f.NewAppender()
	defer ap.Close()
	if err := ap.AppendRows(nil); err != nil || f.NumPages() != 0 {
		t.Fatalf("empty AppendRows: err %v, %d pages", err, f.NumPages())
	}
	if err := ap.AppendRows(make([]byte, 20)); err == nil {
		t.Fatal("AppendRows of 20 bytes of 16-byte records succeeded")
	}
	if f.NumRecords() != 0 || f.NumPages() != 0 {
		t.Fatalf("rejected AppendRows left %d records on %d pages", f.NumRecords(), f.NumPages())
	}
}

// TestDropDiscardsOnlyOwnFrames: dropping one of two spill files that share
// a pool writes nothing to the device — the dropped pages are garbage — and
// leaves the other file's frames resident.
func TestDropDiscardsOnlyOwnFrames(t *testing.T) {
	pool := buffer.New(64 << 10)
	dev := disk.NewDevice("spill", disk.PaperRunPageSize)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	a, b := NewSpillFile(pool, dev, schema, "a"), NewSpillFile(pool, dev, schema, "b")
	for _, f := range []*File{a, b} {
		rows := make([]byte, 4*f.RecordsPerPage()*schema.Width())
		ap := f.NewAppender()
		if err := errors.Join(ap.AppendRows(rows), ap.Close()); err != nil {
			t.Fatal(err)
		}
		if f.NumPages() != 4 {
			t.Fatalf("%s has %d pages, want 4", f.Name(), f.NumPages())
		}
	}
	writes := dev.Stats().Writes
	if err := a.Drop(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes - writes; got != 0 {
		t.Errorf("dropping a wrote %d pages, want 0", got)
	}
	misses := pool.Stats().Misses
	if got := len(scanRecords(t, b)) / schema.Width(); got != b.NumRecords() {
		t.Fatalf("scan of b saw %d records, want %d", got, b.NumRecords())
	}
	if got := pool.Stats().Misses - misses; got != 0 {
		t.Errorf("scan of b after dropping a missed %d pages, want 0", got)
	}
	if err := b.Drop(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.LiveBytes != 0 {
		t.Errorf("pool holds %d bytes after both drops", st.LiveBytes)
	}
}
