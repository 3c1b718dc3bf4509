package server

import (
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	reldiv "repro"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/obs"
)

// startPipeSession wires one in-process client to the server over net.Pipe.
func startPipeSession(t *testing.T, s *Server) *Client {
	t.Helper()
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	c := NewClient(cc)
	t.Cleanup(func() { c.Close() })
	return c
}

// loadWorkload populates the server (and a mirror pair of reldiv relations)
// with a randomized transcript/courses workload.
func loadWorkload(t *testing.T, c *Client, students, courses int, seed int64) (*reldiv.Relation, *reldiv.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	transcript := reldiv.NewRelation("transcript",
		reldiv.Int64Col("student"), reldiv.Int64Col("course"))
	courseRel := reldiv.NewRelation("courses", reldiv.Int64Col("course"))

	if err := c.CreateTable("transcript", "student", "course"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("courses", "course"); err != nil {
		t.Fatal(err)
	}
	var divisorRows, dividendRows [][]int64
	for cs := 0; cs < courses; cs++ {
		divisorRows = append(divisorRows, []int64{int64(cs)})
		courseRel.MustInsert(int64(cs))
	}
	for s := 0; s < students; s++ {
		full := s%4 == 0
		for cs := 0; cs < courses; cs++ {
			if full || rng.Intn(2) == 0 {
				dividendRows = append(dividendRows, []int64{int64(s), int64(cs)})
				transcript.MustInsert(int64(s), int64(cs))
			}
		}
	}
	if err := c.Insert("courses", divisorRows); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("transcript", dividendRows); err != nil {
		t.Fatal(err)
	}
	return transcript, courseRel
}

// quotientSet renders response rows as a sorted list of first-column values.
func quotientSet(rows [][]int64) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestServerMatchesLibrary is the correctness anchor: the served quotient
// must equal reldiv.Divide over the same data.
func TestServerMatchesLibrary(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	c := startPipeSession(t, s)
	transcript, courses := loadWorkload(t, c, 300, 8, 1)

	resp, err := c.Divide("transcript", "courses", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reldiv.Divide(transcript, courses, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make([]int64, 0, want.NumRows())
	for _, row := range want.Rows() {
		wantIDs = append(wantIDs, row[0].(int64))
	}
	sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })

	got := quotientSet(resp.Rows)
	if len(got) != len(wantIDs) {
		t.Fatalf("quotient has %d rows, library says %d", len(got), len(wantIDs))
	}
	for i := range got {
		if got[i] != wantIDs[i] {
			t.Fatalf("quotient[%d] = %d, library says %d", i, got[i], wantIDs[i])
		}
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "student" {
		t.Fatalf("quotient columns = %v", resp.Columns)
	}
}

// TestPlanCacheSkipsCompile holds the cache to its claim with the
// "rewrite.compiles" obs counter: the first divide of a shape compiles once,
// repeats compile zero times (even as the tables grow), and dropping a
// referenced table invalidates the entry.
func TestPlanCacheSkipsCompile(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	c := startPipeSession(t, s)
	loadWorkload(t, c, 120, 6, 2)
	compiles := obs.Default.Counter("rewrite.compiles")

	before := compiles.Load()
	resp, err := c.Divide("transcript", "courses", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first divide reported a cache hit")
	}
	if got := compiles.Load() - before; got != 1 {
		t.Fatalf("first divide compiled %d times, want 1", got)
	}

	afterMiss := compiles.Load()
	for i := 0; i < 5; i++ {
		// Growing the dividend must not invalidate the plan: the shape is
		// content-independent.
		if err := c.Insert("transcript", [][]int64{{int64(1000 + i), 0}}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Divide("transcript", "courses", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("repeat divide %d missed the cache", i)
		}
	}
	if got := compiles.Load(); got != afterMiss {
		t.Fatalf("cache hits still compiled: counter went %d -> %d", afterMiss, got)
	}
	hits, misses := s.CacheStats()
	if hits != 5 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 5/1", hits, misses)
	}

	// DDL invalidation: drop and re-create a referenced table; the next
	// divide must re-prepare (one more compile), not reuse the stale plan.
	if err := c.DropTable("courses"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("courses", "course"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("courses", [][]int64{{0}}); err != nil {
		t.Fatal(err)
	}
	beforeDDL := compiles.Load()
	resp, err = c.Divide("transcript", "courses", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("divide after drop/re-create hit the stale plan")
	}
	if got := compiles.Load() - beforeDDL; got != 1 {
		t.Fatalf("re-prepare compiled %d times, want 1", got)
	}
}

// TestAdmissionNeverFits pins the typed rejection: a query asking for more
// than the whole budget is refused immediately with CodeNeverFits, not
// queued forever.
func TestAdmissionNeverFits(t *testing.T) {
	s := NewServer(Options{MemoryBytes: 1 << 20})
	defer s.Close()
	c := startPipeSession(t, s)
	loadWorkload(t, c, 50, 4, 3)

	_, err := c.Do(Request{Op: "divide", Dividend: "transcript", Divisor: "courses",
		MemoryBudget: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(Request{Op: "divide", Dividend: "transcript", Divisor: "courses",
		MemoryBudget: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srvErr, ok := resp.Err().(*ServerError)
	if !ok || srvErr.Code != CodeNeverFits {
		t.Fatalf("oversized query returned %v, want ServerError{%s}", resp.Err(), CodeNeverFits)
	}
}

// TestAdmissionQueueingUnderOversubscription runs 8 concurrent clients whose
// grants cannot co-reside, under -race: every query must complete correctly,
// and the governor's high-water mark must never exceed the global budget.
func TestAdmissionQueueingUnderOversubscription(t *testing.T) {
	// 8 queries × 256 KB against a 512 KB budget: at most two run at once.
	// Overlap is made deterministic, not left to scheduling: the temp-device
	// factory runs while the query's grant is held, and the first two calls
	// rendezvous — the first query cannot proceed until a second grant
	// co-resides, so the high water provably exceeds one grant.
	var wg2 sync.WaitGroup
	wg2.Add(2)
	var arrivals int32
	s := NewServer(Options{
		MemoryBytes: 512 << 10,
		TempDevFactory: func(name string) disk.Dev {
			if atomic.AddInt32(&arrivals, 1) <= 2 {
				wg2.Done()
			}
			wg2.Wait()
			return disk.NewDevice(name, disk.PaperRunPageSize)
		},
	})
	defer s.Close()
	setup := startPipeSession(t, s)
	transcript, courses := loadWorkload(t, setup, 1000, 8, 4)
	want, err := reldiv.Divide(transcript, courses, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	rowsCh := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := startPipeSession(t, s)
			resp, err := c.Do(Request{Op: "divide", Dividend: "transcript",
				Divisor: "courses", MemoryBudget: 256 << 10})
			if err != nil {
				errs <- err
				return
			}
			if err := resp.Err(); err != nil {
				errs <- err
				return
			}
			rowsCh <- len(resp.Rows)
		}()
	}
	wg.Wait()
	close(errs)
	close(rowsCh)
	for err := range errs {
		t.Errorf("client: %v", err)
	}
	for n := range rowsCh {
		if n != want.NumRows() {
			t.Errorf("concurrent divide returned %d rows, want %d", n, want.NumRows())
		}
	}
	if hw, total := s.Governor().HighWater(), s.Governor().Total(); hw > total {
		t.Fatalf("governor oversubscribed: high water %d > budget %d", hw, total)
	}
	if hw := s.Governor().HighWater(); hw <= 256<<10 {
		t.Fatalf("high water %d: the 8 grants never overlapped, queueing untested", hw)
	}
	if s.Governor().InUse() != 0 {
		t.Fatalf("grants leaked: %d bytes still in use", s.Governor().InUse())
	}
}

// TestSplitGrantAdmittedGrants: every grant admission hands out is at least
// MinQueryBytes, and for those the table share never falls below the pool
// share — so division.SplitGrant's 1-byte table floor is the only floor the
// server needs.
func TestSplitGrantAdmittedGrants(t *testing.T) {
	for _, grant := range []int64{MinQueryBytes, MinQueryBytes + 1, 3 * MinQueryBytes, DefaultQueryBytes, DefaultMemoryBytes} {
		pool, tables := division.SplitGrant(grant)
		if tables < pool {
			t.Errorf("SplitGrant(%d) = pool %d, tables %d: tables below pool", grant, pool, tables)
		}
		if int64(pool+tables) != grant {
			t.Errorf("SplitGrant(%d) = pool %d + tables %d, want the whole grant", grant, pool, tables)
		}
	}
}

// TestRejectedInsertLeavesTableUnchanged: an insert request is atomic — a
// bad row anywhere in it rejects the whole request, and the rows before it
// never become visible to a divide.
func TestRejectedInsertLeavesTableUnchanged(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	c := startPipeSession(t, s)
	for _, err := range []error{
		c.CreateTable("t", "a", "b"),
		c.CreateTable("d", "b"),
		c.Insert("d", [][]int64{{2}}),
		c.Insert("t", [][]int64{{5, 2}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert("t", [][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("insert of a short row succeeded")
	}
	resp, err := c.Divide("t", "d", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := quotientSet(resp.Rows); len(got) != 1 || got[0] != 5 {
		t.Fatalf("quotient after a rejected insert = %v, want [5]", got)
	}
	if err := c.Insert("t", [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Divide("t", "d", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := quotientSet(resp.Rows); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("quotient after a good insert = %v, want [1 5]", got)
	}
}
