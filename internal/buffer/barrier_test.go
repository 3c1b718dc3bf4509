package buffer

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/disk"
)

// TestWriteBarrierGatesDirtyWriteBack checks the barrier fires exactly once
// per dirty write-back, before the bytes reach the device, and that its
// error aborts the write.
func TestWriteBarrierGatesDirtyWriteBack(t *testing.T) {
	dev := disk.NewDevice("data", 512)
	p := New(32 * 1024)

	var mu sync.Mutex
	gated := make(map[disk.PageID]int)
	p.SetWriteBarrier(func(d disk.Dev, page disk.PageID) error {
		mu.Lock()
		defer mu.Unlock()
		if d != dev {
			t.Errorf("barrier saw device %s", d.Name())
		}
		// The barrier must run before the write: the device write counter
		// for this page has not moved yet on the first flush.
		gated[page]++
		return nil
	})

	page, h, err := p.NewPage(dev)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Bytes(), []byte("durably gated"))
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if gated[page] != 1 {
		t.Fatalf("barrier fired %d times for page %d, want 1", gated[page], page)
	}
	mu.Unlock()
	if dev.Stats().Writes != 1 {
		t.Fatalf("device writes %d, want 1", dev.Stats().Writes)
	}

	// A failing barrier aborts the write-back and surfaces the error.
	barrierErr := errors.New("log not durable")
	p.SetWriteBarrier(func(disk.Dev, disk.PageID) error { return barrierErr })
	h2, err := p.Fix(dev, page)
	if err != nil {
		t.Fatal(err)
	}
	h2.Bytes()[0] = 'X'
	h2.MarkDirty()
	if err := h2.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); !errors.Is(err, barrierErr) {
		t.Fatalf("FlushAll = %v, want barrier error", err)
	}
	if dev.Stats().Writes != 1 {
		t.Fatal("aborted write-back still reached the device")
	}

	// Removing the barrier unblocks the page.
	p.SetWriteBarrier(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Writes != 2 {
		t.Fatalf("device writes %d after barrier removal, want 2", dev.Stats().Writes)
	}
}

// TestWriteBarrierCoversEviction checks eviction write-backs pass through
// the barrier too, not just explicit flushes.
func TestWriteBarrierCoversEviction(t *testing.T) {
	dev := disk.NewDevice("data", 4096)
	p := NewWithShards(8*4096, 1)
	var barriers int
	var mu sync.Mutex
	p.SetWriteBarrier(func(disk.Dev, disk.PageID) error {
		mu.Lock()
		barriers++
		mu.Unlock()
		return nil
	})
	// Dirty more pages than the pool holds; evictions must write back
	// through the barrier.
	for i := 0; i < 16; i++ {
		_, h, err := p.NewPage(dev)
		if err != nil {
			t.Fatal(err)
		}
		h.Bytes()[0] = byte(i)
		h.MarkDirty()
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if barriers == 0 {
		t.Fatal("evictions bypassed the write barrier")
	}
	if int(dev.Stats().Writes) != barriers {
		t.Fatalf("%d device writes vs %d barrier calls; every write must be gated",
			dev.Stats().Writes, barriers)
	}
}
