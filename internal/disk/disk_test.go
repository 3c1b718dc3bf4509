package disk

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestAllocReadWrite(t *testing.T) {
	d := NewDevice("test", 64)
	p := d.Alloc()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := d.Write(p, buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, 64)
	if err := d.Read(p, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("read back different bytes")
	}
}

func TestBadBuffer(t *testing.T) {
	d := NewDevice("test", 64)
	p := d.Alloc()
	if err := d.Read(p, make([]byte, 32)); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("Read short buffer: %v", err)
	}
	if err := d.Write(p, make([]byte, 128)); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("Write long buffer: %v", err)
	}
}

func TestBadPage(t *testing.T) {
	d := NewDevice("test", 16)
	buf := make([]byte, 16)
	if err := d.Read(5, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("Read unallocated: %v", err)
	}
	p := d.Alloc()
	if err := d.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := d.Read(p, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("Read freed: %v", err)
	}
	if err := d.Free(p); !errors.Is(err, ErrBadPage) {
		t.Errorf("double Free: %v", err)
	}
}

func TestFreeReuseZeroesPage(t *testing.T) {
	d := NewDevice("test", 8)
	p := d.Alloc()
	if err := d.Write(p, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	q := d.Alloc()
	if q != p {
		t.Fatalf("expected freed page %d to be reused, got %d", p, q)
	}
	buf := make([]byte, 8)
	if err := d.Read(q, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
	// Freed bytes go to the recycler every device of the page size shares;
	// whichever device takes them gets them zeroed.
	if err := d.Write(q, []byte{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(q); err != nil {
		t.Fatal(err)
	}
	other := NewDevice("other", 8)
	for p := other.AllocExtent(3); p < 3; p++ {
		if err := other.Read(p, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatalf("page %d of a new extent not zeroed", p)
			}
		}
	}
}

// TestFreedPagesReusedLowestFirst: Alloc reuses the lowest freed id, so
// the same frees and allocations give the same ids on every run, and a
// freed run reallocates in ascending (sequential) order.
func TestFreedPagesReusedLowestFirst(t *testing.T) {
	d := NewDevice("test", 8)
	d.AllocExtent(10)
	for _, p := range []PageID{7, 2, 9, 4, 3} {
		if err := d.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(); got != 5 {
		t.Fatalf("NumPages = %d, want 5", got)
	}
	for _, want := range []PageID{2, 3, 4, 7, 9, 10} {
		if got := d.Alloc(); got != want {
			t.Fatalf("Alloc = %d, want %d", got, want)
		}
	}
	if got := d.NumPages(); got != 11 {
		t.Errorf("NumPages = %d, want 11", got)
	}
}

func TestExtentIsContiguous(t *testing.T) {
	d := NewDevice("test", 16)
	first := d.AllocExtent(10)
	if first != 0 {
		t.Fatalf("first extent should start at 0, got %d", first)
	}
	second := d.AllocExtent(4)
	if second != 10 {
		t.Fatalf("second extent should start at 10, got %d", second)
	}
	if d.NumPages() != 14 {
		t.Errorf("NumPages = %d, want 14", d.NumPages())
	}
}

func TestSequentialVsRandomSeekAccounting(t *testing.T) {
	d := NewDevice("test", 16)
	d.AllocExtent(10)
	buf := make([]byte, 16)

	// Sequential scan: first access seeks, the rest do not.
	for p := PageID(0); p < 10; p++ {
		if err := d.Read(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Seeks != 1 {
		t.Errorf("sequential scan seeks = %d, want 1", s.Seeks)
	}
	if s.Transfers != 10 || s.Reads != 10 {
		t.Errorf("transfers = %d reads = %d, want 10/10", s.Transfers, s.Reads)
	}
	if s.Bytes != 160 {
		t.Errorf("bytes = %d, want 160", s.Bytes)
	}

	// Random access pattern: every jump seeks.
	d.ResetStats()
	for _, p := range []PageID{9, 0, 5, 2} {
		if err := d.Read(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Seeks != 4 {
		t.Errorf("random seeks = %d, want 4", s.Seeks)
	}

	// Re-reading the same page does not seek.
	d.ResetStats()
	_ = d.Read(3, buf)
	_ = d.Read(3, buf)
	if s := d.Stats(); s.Seeks != 1 {
		t.Errorf("same-page re-read seeks = %d, want 1", s.Seeks)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	p := PaperCost()
	// One seek + 10 transfers of 8 KB: 20 + 10*8 + 80*0.5 = 140 ms I/O,
	// 10*2 = 20 ms CPU.
	s := Stats{Seeks: 1, Transfers: 10, Bytes: 80 * 1024}
	if got := s.IOCostMS(p); math.Abs(got-140) > 1e-9 {
		t.Errorf("IOCostMS = %g, want 140", got)
	}
	if got := s.CPUCostMS(p); math.Abs(got-20) > 1e-9 {
		t.Errorf("CPUCostMS = %g, want 20", got)
	}
	if got := s.TotalCostMS(p); math.Abs(got-160) > 1e-9 {
		t.Errorf("TotalCostMS = %g, want 160", got)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Seeks: 1, Transfers: 2, Reads: 1, Writes: 1, Bytes: 100}
	b := Stats{Seeks: 3, Transfers: 4, Reads: 2, Writes: 2, Bytes: 50}
	sum := a.Add(b)
	if sum.Seeks != 4 || sum.Transfers != 6 || sum.Bytes != 150 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(a)
	if diff != b {
		t.Errorf("Sub = %+v, want %+v", diff, b)
	}
}

func TestPaperConstants(t *testing.T) {
	p := PaperCost()
	if p.SeekMS != 20 || p.RotationalMS != 8 || p.TransferMSPerKB != 0.5 || p.CPUMSPerTransfer != 2 {
		t.Errorf("PaperCost = %+v does not match Table 3", p)
	}
	if PaperPageSize != 8192 || PaperRunPageSize != 1024 {
		t.Error("paper transfer sizes wrong")
	}
}

// Property: data written to distinct pages is read back intact regardless of
// interleaving order.
func TestQuickReadBack(t *testing.T) {
	f := func(payloads [][16]byte) bool {
		if len(payloads) == 0 {
			return true
		}
		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		d := NewDevice("q", 16)
		ids := make([]PageID, len(payloads))
		for i := range payloads {
			ids[i] = d.Alloc()
			if err := d.Write(ids[i], payloads[i][:]); err != nil {
				return false
			}
		}
		// Read back in reverse.
		buf := make([]byte, 16)
		for i := len(payloads) - 1; i >= 0; i-- {
			if err := d.Read(ids[i], buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, payloads[i][:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDevice("conc", 32)
	d.AllocExtent(8)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(p PageID) {
			buf := make([]byte, 32)
			for i := 0; i < 100; i++ {
				if err := d.Write(p, buf); err != nil {
					done <- err
					return
				}
				if err := d.Read(p, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(PageID(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Transfers != 1600 {
		t.Errorf("Transfers = %d, want 1600", s.Transfers)
	}
}

func BenchmarkSequentialRead(b *testing.B) {
	d := NewDevice("bench", PaperPageSize)
	d.AllocExtent(256)
	buf := make([]byte, PaperPageSize)
	b.SetBytes(PaperPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Read(PageID(i%256), buf); err != nil {
			b.Fatal(err)
		}
	}
}
