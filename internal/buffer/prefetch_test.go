package buffer

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
)

// flakyDev wraps a Device and fails reads on demand with a transient fault.
type flakyDev struct {
	*disk.Device
	mu        sync.Mutex
	failReads bool
}

func (d *flakyDev) setFailReads(v bool) {
	d.mu.Lock()
	d.failReads = v
	d.mu.Unlock()
}

func (d *flakyDev) Read(p disk.PageID, buf []byte) error {
	d.mu.Lock()
	fail := d.failReads
	d.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: injected read fault", disk.ErrTransient)
	}
	return d.Device.Read(p, buf)
}

func TestNilPrefetcherIsInert(t *testing.T) {
	p := New(1024)
	if pf := p.ReadAhead(); pf != nil {
		t.Fatalf("fresh pool has a prefetcher: %v", pf)
	}
	var pf *Prefetcher
	pf.Prefetch(newDev(16, 2), 0, 1) // must not panic
	pf.Drain()
	if d := pf.Depth(); d != 0 {
		t.Errorf("nil Depth = %d, want 0", d)
	}
	p.DisableReadAhead() // disabling when never enabled is a no-op
}

func TestPrefetchInstallsAndHits(t *testing.T) {
	dev := newDev(64, 8)
	for i := 0; i < 8; i++ {
		buf := make([]byte, 64)
		buf[0] = byte(i + 1)
		if err := dev.Write(disk.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	p := New(64 * 1024)
	pf := p.EnableReadAhead(8, 4)
	readsBefore := dev.Stats().Reads

	pf.Prefetch(dev, 0, 1, 2)
	pf.Drain()
	if got := dev.Stats().Reads - readsBefore; got != 3 {
		t.Fatalf("prefetch issued %d device reads, want 3", got)
	}
	for i := 0; i < 3; i++ {
		h, err := p.Fix(dev, disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if h.Bytes()[0] != byte(i+1) {
			t.Errorf("page %d: prefetched content %d, want %d", i, h.Bytes()[0], i+1)
		}
		h.Unfix(true)
	}
	if got := dev.Stats().Reads - readsBefore; got != 3 {
		t.Errorf("fixes after prefetch re-read the device (%d reads, want 3)", got)
	}
	st := p.Stats()
	if st.PrefetchIssued != 3 || st.PrefetchHits != 3 || st.Hits != 3 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 3 issued, 3 prefetch hits, 3 hits, 0 misses", st)
	}
	if st.Hits+st.Misses != st.Fixes {
		t.Errorf("invariant: hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
	}
	// Re-prefetching resident pages is a no-op, not a new read.
	pf.Prefetch(dev, 0, 1, 2)
	pf.Drain()
	if got := p.Stats().PrefetchIssued; got != 3 {
		t.Errorf("prefetch of resident pages issued loads (issued = %d, want 3)", got)
	}
}

func TestPrefetchWindowDropsOnFull(t *testing.T) {
	base := newDev(64, 16)
	slow := disk.NewLatency(base, 20*time.Millisecond, 0)
	p := New(64 * 1024)
	pf := p.EnableReadAhead(2, 2)

	pages := make([]disk.PageID, 10)
	for i := range pages {
		pages[i] = disk.PageID(i)
	}
	pf.Prefetch(slow, pages...)
	st := p.Stats()
	if st.PrefetchIssued != 2 {
		t.Errorf("issued = %d, want the window of 2", st.PrefetchIssued)
	}
	if st.PrefetchDropped != 8 {
		t.Errorf("dropped = %d, want 8 beyond the window", st.PrefetchDropped)
	}
	pf.Drain()
	// The dropped pages are simply not resident; a Fix reads them itself.
	readsBefore := base.Stats().Reads
	h, err := p.Fix(slow, pages[9])
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(true)
	if got := base.Stats().Reads - readsBefore; got != 1 {
		t.Errorf("fix of dropped page did %d reads, want 1", got)
	}
}

// TestPrefetchFailureIsSilentAndResurfacesOnFix: a faulted prefetch load
// must neither install a frame nor surface an error anywhere — until the
// synchronous Fix path reads the page itself and reports honestly. Both
// failed reads give their frame buffer back to the free list.
func TestPrefetchFailureIsSilentAndResurfacesOnFix(t *testing.T) {
	fd := &flakyDev{Device: newDev(64, 4)}
	p := New(64 * 1024)
	p.SetRetryPolicy(RetryPolicy{Attempts: 2})
	pf := p.EnableReadAhead(4, 2)

	fd.setFailReads(true)
	pf.Prefetch(fd, 0)
	pf.Drain()
	st := p.Stats()
	if st.PrefetchIssued != 1 || st.PrefetchDropped != 1 {
		t.Errorf("stats = %+v, want 1 issued and 1 dropped", st)
	}
	// Still failing: the sync path surfaces the typed transient error.
	if _, err := p.Fix(fd, 0); !disk.IsTransient(err) {
		t.Fatalf("fix after failed prefetch: err = %v, want transient", err)
	}
	if resident, _, free := p.mem.usage(); resident != 0 || free != 64 {
		t.Errorf("after two failed reads resident=%d free=%d, want 0/64 (one buffer, given back twice)", resident, free)
	}
	// Device healed: the sync path succeeds from scratch.
	fd.setFailReads(false)
	h, err := p.Fix(fd, 0)
	if err != nil {
		t.Fatalf("fix after heal: %v", err)
	}
	h.Unfix(true)
}

// TestPrefetchChecksumMismatchNotInstalled: a prefetched page whose content
// does not match the recorded checksum must not enter the pool; the sync
// path re-reads it and reports the corruption with its full retry policy.
func TestPrefetchChecksumMismatchNotInstalled(t *testing.T) {
	dev := newDev(64, 2)
	p := New(64 * 1024)
	p.SetRetryPolicy(RetryPolicy{Attempts: 2})

	// Write through the pool to record a checksum, then evict it.
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[0] = 7
	h.MarkDirty()
	h.Unfix(true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the page behind the pool's back.
	bad := make([]byte, 64)
	bad[0] = 99
	if err := dev.Write(0, bad); err != nil {
		t.Fatal(err)
	}

	pf := p.EnableReadAhead(4, 2)
	pf.Prefetch(dev, 0)
	pf.Drain()
	if st := p.Stats(); st.PrefetchDropped != 1 {
		t.Errorf("dropped = %d, want 1 (mismatch must not install)", st.PrefetchDropped)
	}
	var cpe *disk.CorruptPageError
	if _, err := p.Fix(dev, 0); !errors.As(err, &cpe) {
		t.Fatalf("fix of corrupt page: err = %v, want CorruptPageError", err)
	}
}

// TestPrefetchWastedOnDrop: prefetched frames discarded before any fix are
// accounted as wasted.
func TestPrefetchWastedOnDrop(t *testing.T) {
	dev := newDev(64, 4)
	p := New(64 * 1024)
	pf := p.EnableReadAhead(4, 4)
	pf.Prefetch(dev, 0, 1)
	pf.Drain()
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PrefetchWasted != 2 {
		t.Errorf("wasted = %d, want 2", st.PrefetchWasted)
	}
}

// gateDev blocks every read until open is closed.
type gateDev struct {
	*disk.Device
	open chan struct{}
}

func (d *gateDev) Read(p disk.PageID, buf []byte) error {
	<-d.open
	return d.Device.Read(p, buf)
}

// TestDropPagesWaitsForLoadingPrefetch: a page whose prefetch is still
// loading is dropped only once the load settles, so no frame lands on the
// freed page afterwards.
func TestDropPagesWaitsForLoadingPrefetch(t *testing.T) {
	dev := &gateDev{Device: newDev(64, 2), open: make(chan struct{})}
	p := New(64 * 1024)
	pf := p.EnableReadAhead(4, 4)
	pf.Prefetch(dev, 0, 1)
	dropped := make(chan error)
	go func() { dropped <- p.DropPages(dev, []disk.PageID{0}) }()
	select {
	case err := <-dropped:
		t.Fatalf("DropPages returned (%v) while page 0 was still loading", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(dev.open)
	if err := <-dropped; err != nil {
		t.Fatal(err)
	}
	pf.Drain()
	if got := p.Stats().LiveBytes; got != 64 {
		t.Errorf("LiveBytes = %d, want only page 1's frame (64)", got)
	}
	reads := dev.Stats().Reads
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(true)
	if got := dev.Stats().Reads - reads; got != 1 {
		t.Errorf("fix of the dropped page read %d pages, want 1 (it must not be resident)", got)
	}
}

// TestPrefetchRacesSyncFix: concurrent prefetches and fixes of the same
// pages must agree on one read per page at a time and leak nothing; run
// with -race.
func TestPrefetchRacesSyncFix(t *testing.T) {
	dev := newDev(128, 32)
	p := NewWithShards(16*128, 4)
	pf := p.EnableReadAhead(8, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pg := disk.PageID((g*7 + i) % 32)
				if i%3 == 0 {
					pf.Prefetch(dev, pg, pg+1)
					continue
				}
				h, err := p.Fix(dev, pg)
				if err != nil {
					if errors.Is(err, ErrNoMemory) {
						continue
					}
					t.Errorf("fix: %v", err)
					return
				}
				h.Unfix(i%2 == 0)
			}
		}(g)
	}
	wg.Wait()
	pf.Drain()
	if got := p.FixedFrames(); got != 0 {
		t.Errorf("fixed frames = %d, want 0", got)
	}
	st := p.Stats()
	if st.Hits+st.Misses != st.Fixes {
		t.Errorf("invariant: hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
	}
}

func TestHooksFireOnPrefetchEvents(t *testing.T) {
	dev := newDev(64, 8)
	p := New(64 * 1024)
	var mu sync.Mutex
	counts := map[string]int{}
	bump := func(k string) func() {
		return func() { mu.Lock(); counts[k]++; mu.Unlock() }
	}
	p.SetHooks(Hooks{
		PrefetchIssued: bump("issued"),
		PrefetchHit:    bump("hit"),
		PrefetchWasted: bump("wasted"),
	})
	pf := p.EnableReadAhead(8, 4)
	pf.Prefetch(dev, 0, 1)
	pf.Drain()
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(true)
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["issued"] != 2 || counts["hit"] != 1 || counts["wasted"] != 1 {
		t.Errorf("hook counts = %v, want issued 2, hit 1, wasted 1", counts)
	}
}
