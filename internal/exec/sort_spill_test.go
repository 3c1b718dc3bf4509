package exec

import (
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// spillSort sorts in on its first column within memoryBytes, spilling runs
// to a temp device.
func spillSort(in []tuple.Tuple, memoryBytes int) *Sort {
	pool, dev := sortTestEnv()
	return NewSort(NewMemScan(pairSchema, in), SortConfig{
		Keys:        []int{0},
		MemoryBytes: memoryBytes,
		Pool:        pool,
		TempDev:     dev,
	})
}

func randomPairs(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = pairSchema.MustMake(rng.Int63n(1<<40), int64(i))
	}
	return out
}

// TestSortPeakWithinBudget is the regression test for the governed-budget
// bypass: a sort whose input dwarfs its MemoryBytes grant must spill runs
// instead of buffering past the grant, and the buffered high-water mark must
// stay within one tuple of the budget — never silently revert to the fixed
// 100 KB paper sort space.
func TestSortPeakWithinBudget(t *testing.T) {
	const budget = 4096
	in := randomPairs(5000, 7) // 5000 × 16 bytes = 80000 bytes of input
	s := spillSort(in, budget)
	got := rows(t, s)
	if len(got) != len(in) {
		t.Fatalf("lost tuples: %d of %d", len(got), len(in))
	}
	if s.SpilledRuns() == 0 {
		t.Error("input over budget did not spill")
	}
	width := pairSchema.Width()
	if peak := s.PeakMemoryBytes(); peak > budget+width {
		t.Errorf("peak buffered bytes %d exceeds budget %d", peak, budget)
	}
	if peak := s.PeakMemoryBytes(); peak == 0 {
		t.Error("peak tracking recorded nothing")
	}
}

// TestSortRunsHoldOneMemoryLoad: every initial run is one memory load of
// quicksorted tuples, whatever the input order, so an input of n tuples
// spills ceil(n / load) runs — the run count the §4.1 external-sort cost
// prices. The budget leaves a fan-in above the run count, so no
// intermediate merge adds a run file.
func TestSortRunsHoldOneMemoryLoad(t *testing.T) {
	const n, budget = 3000, 8 << 10
	load := budget / pairSchema.Width()
	wantRuns := (n + load - 1) / load
	random := randomPairs(n, 34)
	sorted := make([]tuple.Tuple, n)
	reversed := make([]tuple.Tuple, n)
	for i := range sorted {
		sorted[i] = pairSchema.MustMake(int64(i), int64(i))
		reversed[i] = pairSchema.MustMake(int64(n-i), int64(i))
	}
	for _, c := range []struct {
		name string
		in   []tuple.Tuple
	}{{"random", random}, {"sorted", sorted}, {"reversed", reversed}} {
		t.Run(c.name, func(t *testing.T) {
			s := spillSort(c.in, budget)
			got := rows(t, s)
			if len(got) != n {
				t.Fatalf("lost tuples: %d of %d", len(got), n)
			}
			for i := 1; i < n; i++ {
				if got[i][0] < got[i-1][0] {
					t.Fatalf("not sorted at %d", i)
				}
			}
			if s.SpilledRuns() != wantRuns {
				t.Errorf("%d runs, want %d of %d tuples each", s.SpilledRuns(), wantRuns, load)
			}
		})
	}
}

// TestQuickExternalSortMatchesReference: for any input, memory budget and
// Dedup setting, the external sort returns the keys an in-memory stable
// sort returns, through as many intermediate merge passes as the budget's
// fan-in of two forces. Without Dedup every payload comes back once.
func TestQuickExternalSortMatchesReference(t *testing.T) {
	f := func(keys []int16, memRaw uint8, dedup bool) bool {
		in := make([]tuple.Tuple, len(keys))
		for i, k := range keys {
			in[i] = pairSchema.MustMake(int64(k), int64(i))
		}
		pool, dev := sortTestEnv()
		s := NewSort(NewMemScan(pairSchema, in), SortConfig{
			Keys: []int{0}, Dedup: dedup, MemoryBytes: 64 + int(memRaw)*8,
			Pool: pool, TempDev: dev,
		})
		got, err := Collect(s)
		if err != nil {
			return false
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		if dedup {
			want = slices.Compact(want)
		}
		if len(got) != len(want) {
			return false
		}
		payloads := make(map[int64]bool, len(got))
		for i, tp := range got {
			if pairSchema.Int64(tp, 0) != int64(want[i]) {
				return false
			}
			payloads[pairSchema.Int64(tp, 1)] = true
		}
		return dedup || len(payloads) == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSortRunsAreSpillAccounted pins the run files of an external sort to
// the process-wide live-spill gauge: runs must be visible while the sort is
// open (storage.NewSpillFile, not bare NewFile) and fully retired by Close,
// so leak assertions in the chaos suites see sort scratch space like any
// partition spill.
func TestSortRunsAreSpillAccounted(t *testing.T) {
	base := storage.LiveSpillFiles()
	in := randomPairs(3000, 31)
	s := spillSort(in, 1024)
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
	s := spillSort(randomPairs(3000, 32), 1024)
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
