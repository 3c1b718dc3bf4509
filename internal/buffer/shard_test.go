package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/disk"
)

func TestDefaultShardHeuristic(t *testing.T) {
	cases := []struct {
		maxBytes int
		want     int
	}{
		{48, 1},            // tiny test pools stay single-shard and deterministic
		{minShardBytes, 1}, // one shard's worth of memory is not worth splitting
		{2 * minShardBytes, 2},
		{3 * minShardBytes, 2}, // rounded down to a power of two
		{PaperPoolBytes, 8},    // 256 KB → 8 shards
		{1 << 30, 8},           // capped
	}
	for _, c := range cases {
		if got := New(c.maxBytes).NumShards(); got != c.want {
			t.Errorf("New(%d): %d shards, want %d", c.maxBytes, got, c.want)
		}
	}
}

// TestShardedCapacityIsGlobal: the memory budget spans shards — a fix on one
// shard evicts victims from other shards when its own has none, and the pool
// only reports ErrNoMemory when every frame everywhere is fixed.
func TestShardedCapacityIsGlobal(t *testing.T) {
	dev := newDev(512, 64)
	p := NewWithShards(4*512, 4)

	handles := make([]*Handle, 4)
	for i := range handles {
		h, err := p.Fix(dev, disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if _, err := p.Fix(dev, disk.PageID(10)); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over-capacity fix: err = %v, want ErrNoMemory", err)
	}
	// Unfixing any one frame must let a fix of a different page succeed,
	// whatever shards the two pages hash to.
	if err := handles[2].Unfix(true); err != nil {
		t.Fatal(err)
	}
	h, err := p.Fix(dev, disk.PageID(10))
	if err != nil {
		t.Fatalf("fix after cross-shard room should succeed: %v", err)
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	for i, hh := range handles {
		if i != 2 {
			if err := hh.Unfix(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := p.FixedFrames(); got != 0 {
		t.Errorf("fixed frames = %d, want 0", got)
	}
}

// TestShardStats: per-shard counters sum to the aggregate snapshot.
func TestShardStats(t *testing.T) {
	dev := newDev(512, 32)
	p := NewWithShards(64*512, 4)
	for i := 0; i < 32; i++ {
		h, err := p.Fix(dev, disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		h.Unfix(true)
	}
	var misses int
	for _, s := range p.ShardStats() {
		misses += s.Misses
	}
	if st := p.Stats(); misses != st.Misses || st.Misses != 32 {
		t.Errorf("shard misses sum %d, aggregate %d, want 32", misses, st.Misses)
	}
}

// TestStatsConsistentSnapshot: Stats() must hold all shard locks at once, so
// no snapshot — even one taken mid-storm — can violate the
// Hits+Misses == Fixes invariant with torn per-shard reads.
func TestStatsConsistentSnapshot(t *testing.T) {
	dev := newDev(256, 128)
	p := NewWithShards(64*256, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := p.Fix(dev, disk.PageID(rng.Intn(128)))
				if err != nil {
					t.Errorf("fix: %v", err)
					return
				}
				if err := h.Unfix(rng.Intn(2) == 0); err != nil {
					t.Errorf("unfix: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		st := p.Stats()
		if st.Hits+st.Misses != st.Fixes {
			t.Fatalf("torn snapshot: hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
		}
	}
	close(stop)
	wg.Wait()
	if st := p.Stats(); st.Hits+st.Misses != st.Fixes {
		t.Fatalf("final snapshot: hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
	}
}

// TestConcurrentStress hammers Fix/Unfix/FixVirtual/DropPages/Stats from 8
// goroutines; run with -race. The pool is sized so evictions and
// virtual-frame losses happen while the storm is in flight, and its two
// frame sizes keep the free list trading buffers of one size for the other.
// It runs over one shard, where every operation takes the same lock, and
// over eight, where misses also reserve room by evicting from other shards.
func TestConcurrentStress(t *testing.T) {
	for _, nshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			dev := newDev(512, 96)
			p := NewWithShards(24*512, nshards)
			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + g)))
					for i := 0; i < 400; i++ {
						switch i % 4 {
						case 0, 1: // device pages, sometimes dirtied
							h, err := p.Fix(dev, disk.PageID(rng.Intn(96)))
							if err != nil {
								if errors.Is(err, ErrNoMemory) {
									continue // storm peak: every frame fixed
								}
								t.Errorf("fix: %v", err)
								return
							}
							if rng.Intn(4) == 0 {
								h.MarkDirty()
							}
							if err := h.Unfix(rng.Intn(2) == 0); err != nil {
								t.Errorf("unfix: %v", err)
								return
							}
						case 2: // virtual frames
							h, err := p.FixVirtual(256)
							if err != nil {
								if errors.Is(err, ErrNoMemory) {
									continue
								}
								t.Errorf("fix virtual: %v", err)
								return
							}
							if err := h.Unfix(true); err != nil {
								t.Errorf("unfix virtual: %v", err)
								return
							}
						case 3: // snapshots and drops race the storm
							st := p.Stats()
							if st.Hits+st.Misses != st.Fixes {
								t.Errorf("invariant: hits %d + misses %d != fixes %d",
									st.Hits, st.Misses, st.Fixes)
								return
							}
							if resident, _, free := p.mem.usage(); resident+free > p.MaxBytes() {
								t.Errorf("resident %d + free %d bytes exceed budget %d", resident, free, p.MaxBytes())
								return
							}
							pg := disk.PageID(rng.Intn(96))
							if err := p.DropPages(dev, []disk.PageID{pg}); err != nil && !errors.Is(err, ErrFixed) {
								t.Errorf("drop: %v", err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if got := p.FixedFrames(); got != 0 {
				t.Errorf("fixed frames after storm = %d, want 0", got)
			}
			st := p.Stats()
			if st.Hits+st.Misses != st.Fixes {
				t.Errorf("invariant: hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
			}
			if st.LiveBytes > p.MaxBytes() {
				t.Errorf("live bytes %d exceed budget %d", st.LiveBytes, p.MaxBytes())
			}
			if err := p.FlushAll(); err != nil {
				t.Errorf("flush after storm: %v", err)
			}
		})
	}
}
