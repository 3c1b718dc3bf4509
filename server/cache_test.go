package server

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// dividePair issues one divide and returns whether it hit the plan cache.
func dividePair(t *testing.T, c *Client, dividend string) bool {
	t.Helper()
	resp, err := c.Do(Request{Op: "divide", Dividend: dividend, Divisor: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Err(); err != nil {
		t.Fatalf("divide %s: %v", dividend, err)
	}
	return resp.CacheHit
}

// TestPlanCacheLRUEviction is the eviction regression test: a cache capped
// at 2 entries must evict the least recently USED shape (not the least
// recently stored one), count each eviction, and never grow past its cap.
func TestPlanCacheLRUEviction(t *testing.T) {
	s := NewServer(Options{PlanCacheEntries: 2})
	defer s.Close()
	c := startPipeSession(t, s)

	if err := c.CreateTable("s", "k"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2", "d3", "d4"} {
		if err := c.CreateTable(name, "q", "k"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert("s", [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}

	// Fill the cache: d1, d2. Then d3 must evict d1 (the LRU).
	for _, name := range []string{"d1", "d2", "d3"} {
		if dividePair(t, c, name) {
			t.Fatalf("first divide of %s hit the cache", name)
		}
	}
	if got := s.cache.evicted(); got != 1 {
		t.Fatalf("evictions after overflow: %d, want 1", got)
	}
	if got := s.cache.size(); got != 2 {
		t.Fatalf("cache size %d, want cap 2", got)
	}

	// Touch d2 so d3 becomes the LRU, then insert d4: d3 must go, d2 stay.
	if !dividePair(t, c, "d2") {
		t.Fatal("d2 should still be cached")
	}
	if dividePair(t, c, "d4") {
		t.Fatal("first divide of d4 hit the cache")
	}
	if got := s.cache.evicted(); got != 2 {
		t.Fatalf("evictions after second overflow: %d, want 2", got)
	}
	if !dividePair(t, c, "d2") {
		t.Fatal("d2 was evicted despite being recently used")
	}
	if dividePair(t, c, "d3") {
		t.Fatal("d3 survived eviction")
	}
	if got := s.cache.size(); got != 2 {
		t.Fatalf("cache size %d, want cap 2", got)
	}
}

// TestPlanCacheEvictionKeepsDDLInvalidation makes sure the LRU machinery
// did not break the generation contract: dropping a table still kills its
// entries, list and map staying in sync.
func TestPlanCacheEvictionKeepsDDLInvalidation(t *testing.T) {
	s := NewServer(Options{PlanCacheEntries: 8})
	defer s.Close()
	c := startPipeSession(t, s)

	if err := c.CreateTable("s", "k"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("d1", "q", "k"); err != nil {
		t.Fatal(err)
	}
	if dividePair(t, c, "d1") {
		t.Fatal("cold divide hit")
	}
	if !dividePair(t, c, "d1") {
		t.Fatal("warm divide missed")
	}
	if err := c.DropTable("d1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("d1", "q", "k"); err != nil {
		t.Fatal(err)
	}
	if dividePair(t, c, "d1") {
		t.Fatal("divide against the re-created table hit a stale plan")
	}
	if got, want := s.cache.size(), 1; got != want {
		t.Fatalf("cache size %d after re-create, want %d", got, want)
	}
}

// TestPlanCacheCompilesConcurrentFirstQueriesOnce: eight sessions that send
// the first divide of one shape at the same moment compile it once; the
// seven that arrive while it compiles wait for it and count as hits.
func TestPlanCacheCompilesConcurrentFirstQueriesOnce(t *testing.T) {
	compiles := obs.Default.Counter("rewrite.compiles")
	for round := 0; round < 100; round++ {
		s := NewServer(Options{})
		loadWorkload(t, startPipeSession(t, s), 40, 4, int64(round))
		clients := make([]*Client, 8)
		for i := range clients {
			clients[i] = startPipeSession(t, s)
		}
		before := compiles.Load()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				<-start
				if _, err := c.Divide("transcript", "courses", nil); err != nil {
					t.Error(err)
				}
			}(c)
		}
		close(start)
		wg.Wait()
		if got := compiles.Load() - before; got != 1 {
			t.Fatalf("round %d: 8 concurrent first divides compiled %d times, want 1", round, got)
		}
		if hits, misses := s.CacheStats(); hits != 7 || misses != 1 {
			t.Fatalf("round %d: cache hits=%d misses=%d, want 7/1", round, hits, misses)
		}
		s.Close()
	}
}
