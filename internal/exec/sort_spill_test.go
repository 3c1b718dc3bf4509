package exec

import (
	"io"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
)

// TestSortRunsAreSpillAccounted pins the run files of an external sort to
// the process-wide live-spill gauge: runs must be visible while the sort is
// open (storage.NewSpillFile, not bare NewFile) and fully retired by Close,
// so leak assertions in the chaos suites see sort scratch space like any
// partition spill.
func TestSortRunsAreSpillAccounted(t *testing.T) {
	base := storage.LiveSpillFiles()
	in := randomPairs(3000, 31)
	s := rsSort(in, false, 1024)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if s.SpilledRuns() == 0 {
		t.Fatal("sort did not spill; shrink the budget or grow the input")
	}
	if live := storage.LiveSpillFiles(); live <= base {
		t.Fatalf("spilling sort left gauge at %d (base %d): run files bypass spill accounting", live, base)
	}
	n := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3000 {
		t.Fatalf("sort returned %d of 3000 tuples", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if live := storage.LiveSpillFiles(); live != base {
		t.Fatalf("gauge %d after Close, want base %d: run files leaked", live, base)
	}
}

// TestSortSpillGaugeClearedOnAbandon closes a spilled sort before draining
// it; the gauge must still return to base.
func TestSortSpillGaugeClearedOnAbandon(t *testing.T) {
	base := storage.LiveSpillFiles()
	s := rsSort(randomPairs(3000, 32), true, 1024)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if s.SpilledRuns() == 0 {
		t.Fatal("sort did not spill")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if live := storage.LiveSpillFiles(); live != base {
		t.Fatalf("gauge %d after abandoning open sort, want base %d", live, base)
	}
}

// TestSortIOIsDeterministic: an external sort's intermediate merge passes
// free run pages and allocate new ones, and every run of the same sort must
// reuse the same page ids. Freed ids are reused lowest first, so seeks (and
// the pool's shard hash of the ids, hence its hits) repeat exactly.
func TestSortIOIsDeterministic(t *testing.T) {
	in := randomPairs(20000, 33)
	var firstDisk disk.Stats
	var firstPool buffer.Stats
	for i := 0; i < 20; i++ {
		pool, dev := buffer.New(64<<10), disk.NewDevice("runs", disk.PaperRunPageSize)
		s := NewSort(NewMemScan(pairSchema, in), SortConfig{
			Keys: []int{0}, MemoryBytes: 4 << 10, Pool: pool, TempDev: dev,
		})
		if n, err := Drain(s); err != nil || n != len(in) {
			t.Fatalf("sort %d: %d of %d tuples, %v", i, n, len(in), err)
		}
		if i == 0 {
			firstDisk, firstPool = dev.Stats(), pool.Stats()
			continue
		}
		if got := dev.Stats(); got != firstDisk {
			t.Fatalf("sort %d: disk %v, first sort %v", i, got, firstDisk)
		}
		if got := pool.Stats(); got != firstPool {
			t.Fatalf("sort %d: pool %+v, first sort %+v", i, got, firstPool)
		}
	}
}
