package server

// Session spill-quota suite, run in the chaos style: queries forced through
// the spill path against a tiny session ceiling must fail with the typed
// CodeSpillQuota error — never unbounded temp growth, a hang, or a broken
// session — and leave zero spill files, zero grants, and zero goroutines.

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/leakcheck"
	"repro/internal/storage"
)

func TestSpillQuotaUnit(t *testing.T) {
	dev := disk.NewDevice("quota-unit", disk.PaperRunPageSize)
	q := newSpillQuota(3 * disk.PaperRunPageSize)
	qd := newQuotaDev(dev, q)
	page := make([]byte, disk.PaperRunPageSize)

	var pages []disk.PageID
	for i := 0; i < 3; i++ {
		p := qd.Alloc()
		if err := qd.Write(p, page); err != nil {
			t.Fatalf("write %d within quota: %v", i, err)
		}
		// Rewriting a charged page must not charge again.
		if err := qd.Write(p, page); err != nil {
			t.Fatalf("rewrite %d within quota: %v", i, err)
		}
		pages = append(pages, p)
	}
	p := qd.Alloc()
	err := qd.Write(p, page)
	var sqe *SpillQuotaError
	if !errors.As(err, &sqe) {
		t.Fatalf("over-quota write: %v, want SpillQuotaError", err)
	}
	if sqe.Limit != 3*disk.PaperRunPageSize || sqe.Used != 3*disk.PaperRunPageSize {
		t.Fatalf("error reports used %d / limit %d", sqe.Used, sqe.Limit)
	}
	if disk.IsTransient(err) {
		t.Fatal("quota exhaustion must not look transient (the pool would retry it)")
	}

	// Free credits the budget back; the once-refused write now fits.
	if err := qd.Free(pages[0]); err != nil {
		t.Fatal(err)
	}
	if err := qd.Write(p, page); err != nil {
		t.Fatalf("write after credit: %v", err)
	}

	// releaseAll returns the rest, so the next query starts from zero.
	qd.releaseAll()
	if got := q.used.Load(); got != 0 {
		t.Fatalf("quota still charged %d bytes after releaseAll", got)
	}
}

func TestSessionSpillQuotaTyped(t *testing.T) {
	liveBefore := storage.LiveSpillFiles()
	goroutinesBefore := runtime.NumGoroutine()

	s := NewServer(Options{
		MemoryBytes:       1 << 20,
		SessionSpillBytes: 4 * disk.PaperRunPageSize,
	})
	c := startPipeSession(t, s)
	transcript, courses := loadWorkload(t, c, 2000, 8, 7)
	wantRows := mustQuotientRows(t, transcript, courses)

	// A grant small enough that the query must recursively partition and
	// spill — and a session ceiling far too small for that spill.
	const grantBytes = 128 << 10
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := c.Do(Request{Op: "divide", Dividend: "transcript",
			Divisor: "courses", MemoryBudget: grantBytes})
		if err != nil {
			t.Fatalf("attempt %d: transport error %v (session should survive a quota rejection)", attempt, err)
		}
		rerr := resp.Err()
		if rerr == nil {
			t.Fatalf("attempt %d: query succeeded with a %d-byte spill ceiling", attempt, 4*disk.PaperRunPageSize)
		}
		var srvErr *ServerError
		if !errors.As(rerr, &srvErr) || srvErr.Code != CodeSpillQuota {
			t.Fatalf("attempt %d: error %v, want code %q", attempt, rerr, CodeSpillQuota)
		}
	}

	// The failed queries released their charges: a query that fits in
	// memory (ample grant, no spill) still runs on the same session.
	resp, err := c.Do(Request{Op: "divide", Dividend: "transcript", Divisor: "courses"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Err(); err != nil {
		t.Fatalf("in-memory query after quota rejections: %v", err)
	}
	if len(resp.Rows) != wantRows {
		t.Fatalf("in-memory query returned %d rows, want %d", len(resp.Rows), wantRows)
	}

	c.Close()
	s.Close()
	leakcheck.Goroutines(t, goroutinesBefore)
	if live := storage.LiveSpillFiles(); live != liveBefore {
		t.Fatalf("spill files leaked: %d before, %d after", liveBefore, live)
	}
	if inUse := s.Governor().InUse(); inUse != 0 {
		t.Fatalf("governor grants leaked: %d bytes", inUse)
	}
}

func TestSessionSpillQuotaDisabledByDefault(t *testing.T) {
	s := NewServer(Options{MemoryBytes: 1 << 20})
	defer s.Close()
	c := startPipeSession(t, s)
	transcript, courses := loadWorkload(t, c, 2000, 8, 8)
	wantRows := mustQuotientRows(t, transcript, courses)

	const grantBytes = 128 << 10
	resp, err := c.Do(Request{Op: "divide", Dividend: "transcript",
		Divisor: "courses", MemoryBudget: grantBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Err(); err != nil {
		t.Fatalf("spilling query without a ceiling: %v", err)
	}
	if len(resp.Rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(resp.Rows), wantRows)
	}
}
