package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
)

func newDev(pageSize, pages int) *disk.Device {
	d := disk.NewDevice("t", pageSize)
	if pages > 0 {
		d.AllocExtent(pages)
	}
	return d
}

func TestFixReadsAndCaches(t *testing.T) {
	dev := newDev(16, 2)
	payload := make([]byte, 16)
	payload[0] = 42
	if err := dev.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	devReads := dev.Stats().Reads

	p := New(1024)
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bytes()[0] != 42 {
		t.Error("Fix did not read page content")
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}

	// Second fix must be a cache hit with no device read.
	h2, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Unfix(true)
	if got := dev.Stats().Reads - devReads; got != 1 {
		t.Errorf("device reads = %d, want 1 (second fix should hit)", got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	dev := newDev(16, 4)
	p := New(32) // room for exactly 2 frames

	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[0] = 7
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}

	// Touch two other pages to force eviction of page 0.
	for _, pg := range []disk.PageID{1, 2} {
		hh, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]byte, 16)
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Error("dirty page was not written back on eviction")
	}
	if s := p.Stats(); s.WriteBacks != 1 || s.Evictions != 1 {
		t.Errorf("writebacks=%d evictions=%d, want 1/1", s.WriteBacks, s.Evictions)
	}
}

func TestPoolExhaustion(t *testing.T) {
	dev := newDev(16, 4)
	p := New(32)
	h1, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Fix(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fix(dev, 2); !errors.Is(err, ErrNoMemory) {
		t.Errorf("expected ErrNoMemory with all frames fixed, got %v", err)
	}
	// Unfixing one frame makes room again.
	if err := h1.Unfix(false); err != nil {
		t.Fatal(err)
	}
	h3, err := p.Fix(dev, 2)
	if err != nil {
		t.Fatalf("Fix after unfix: %v", err)
	}
	h3.Unfix(true)
	h2.Unfix(true)
}

func TestFrameLargerThanPool(t *testing.T) {
	dev := newDev(64, 1)
	p := New(32)
	if _, err := p.Fix(dev, 0); !errors.Is(err, ErrNoMemory) {
		t.Errorf("want ErrNoMemory, got %v", err)
	}
}

func TestUnfixKeepHintControlsVictimOrder(t *testing.T) {
	dev := newDev(16, 4)
	p := New(48) // 3 frames

	fix := func(pg disk.PageID, keep bool) {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Unfix(keep); err != nil {
			t.Fatal(err)
		}
	}
	fix(0, true)
	fix(1, false) // immediately replaceable
	fix(2, true)

	// Page 3 should evict page 1 (front of LRU), leaving 0 and 2 resident.
	fix(3, true)
	r := dev.Stats().Reads
	fix(0, true)
	fix(2, true)
	if got := dev.Stats().Reads - r; got != 0 {
		t.Errorf("pages 0/2 were evicted (%d extra reads); victim hint ignored", got)
	}
}

func TestMultipleFixCount(t *testing.T) {
	dev := newDev(16, 1)
	p := New(64)
	h1, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.FixedFrames() != 1 {
		t.Errorf("FixedFrames = %d, want 1", p.FixedFrames())
	}
	if err := h1.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if p.FixedFrames() != 1 {
		t.Error("frame released too early with outstanding fix")
	}
	if err := h2.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if p.FixedFrames() != 0 {
		t.Error("frame still fixed after final unfix")
	}
	if err := h2.Unfix(true); !errors.Is(err, ErrNotFixed) {
		t.Errorf("double unfix: %v", err)
	}
}

func TestNewPage(t *testing.T) {
	dev := newDev(16, 0)
	p := New(64)
	pg, h, err := p.NewPage(dev)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[3] = 9
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := dev.Read(pg, buf); err != nil {
		t.Fatal(err)
	}
	if buf[3] != 9 {
		t.Error("NewPage content did not reach device after flush")
	}
	// NewPage must not read from the device.
	if got := dev.Stats().Reads; got != 1 { // only our own verification read
		t.Errorf("device reads = %d, want 1", got)
	}
}

func TestVirtualFramesDisappearOnEviction(t *testing.T) {
	p := New(32)
	h, err := p.FixVirtual(16)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[0] = 1
	if h.Page() != disk.InvalidPage {
		t.Error("virtual frame should have no page id")
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}

	// Refix while resident works.
	h2, err := p.Refix(h)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Bytes()[0] != 1 {
		t.Error("virtual content lost while resident")
	}
	if err := h2.Unfix(true); err != nil {
		t.Fatal(err)
	}

	// Force eviction with other virtual frames.
	for i := 0; i < 2; i++ {
		hh, err := p.FixVirtual(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Refix(h); !errors.Is(err, ErrEvicted) {
		t.Errorf("refix of evicted virtual frame: %v", err)
	}
	if s := p.Stats(); s.VirtualLost == 0 {
		t.Error("VirtualLost not counted")
	}
}

func TestDropClean(t *testing.T) {
	dev := newDev(16, 2)
	p := New(64)
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[0] = 5
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().LiveBytes; got != 0 {
		t.Errorf("LiveBytes after DropClean = %d", got)
	}
	buf := make([]byte, 16)
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Error("DropClean lost dirty data")
	}
}

// TestDropPagesDiscardsOnlyThosePages: DropPages writes nothing back, keeps
// every other page resident, and forgets the dropped pages' checksums, so a
// page id reused with new device contents reads back clean.
func TestDropPagesDiscardsOnlyThosePages(t *testing.T) {
	dev := newDev(16, 4)
	p := New(1024)
	for pg := disk.PageID(0); pg < 4; pg++ {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Bytes()[0] = byte(pg + 1)
		h.MarkDirty()
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushPages(dev, []disk.PageID{1}); err != nil { // records page 1's checksum
		t.Fatal(err)
	}
	writes := dev.Stats().Writes
	if err := p.DropPages(dev, []disk.PageID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes - writes; got != 0 {
		t.Errorf("DropPages wrote %d pages, want 0", got)
	}
	if got := p.Stats().LiveBytes; got != 2*16 {
		t.Errorf("LiveBytes = %d, want the two undropped frames (32)", got)
	}
	misses := p.Stats().Misses
	for pg := disk.PageID(2); pg < 4; pg++ {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		if h.Bytes()[0] != byte(pg+1) {
			t.Errorf("page %d lost its dirty bytes", pg)
		}
		h.Unfix(true)
	}
	if got := p.Stats().Misses - misses; got != 0 {
		t.Errorf("undropped pages missed %d times", got)
	}
	if err := dev.Write(1, make([]byte, 16)); err != nil { // a new owner's bytes
		t.Fatal(err)
	}
	h, err := p.Fix(dev, 1)
	if err != nil {
		t.Fatalf("fix of a reused page: %v", err)
	}
	h.Unfix(true)
}

// TestDropPagesDetachesFixedPage: a page still fixed is reported with
// ErrFixed but leaves the pool all the same; its memory returns when the
// holder unfixes it.
func TestDropPagesDetachesFixedPage(t *testing.T) {
	dev := newDev(16, 1)
	p := New(1024)
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropPages(dev, []disk.PageID{0}); !errors.Is(err, ErrFixed) {
		t.Fatalf("DropPages of a fixed page = %v, want ErrFixed", err)
	}
	if got := p.FixedFrames(); got != 1 {
		t.Errorf("FixedFrames = %d, want the detached frame its holder still fixes (1)", got)
	}
	h2, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Bytes() == nil || &h2.Bytes()[0] == &h.Bytes()[0] {
		t.Error("a fix after the drop reused the detached frame")
	}
	if err := errors.Join(h.Unfix(true), h2.Unfix(true)); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().LiveBytes; got != 16 {
		t.Errorf("LiveBytes = %d, want one frame (16) once the detached one is unfixed", got)
	}
	if got := p.FixedFrames(); got != 0 {
		t.Errorf("FixedFrames = %d after every handle was unfixed", got)
	}
}

// failFirstReadDev blocks its first read until release is closed and then
// fails it; every later read succeeds.
type failFirstReadDev struct {
	*disk.Device
	started, release chan struct{}
	reads            atomic.Int32
}

func (d *failFirstReadDev) Read(p disk.PageID, buf []byte) error {
	if d.reads.Add(1) == 1 {
		close(d.started)
		<-d.release
		return errors.New("injected read failure")
	}
	return d.Device.Read(p, buf)
}

// TestFailedFixAfterDropPages: DropPages detaches a page whose first Fix is
// still reading it, a second Fix installs a frame of its own, and then the
// first read fails. The failure withdraws only the detached placeholder: the
// second frame stays resident, and once its handle is unfixed no frame
// counts as fixed.
func TestFailedFixAfterDropPages(t *testing.T) {
	dev := &failFirstReadDev{Device: newDev(16, 1), started: make(chan struct{}), release: make(chan struct{})}
	p := New(1024)
	failed := make(chan error)
	go func() {
		_, err := p.Fix(dev, 0)
		failed <- err
	}()
	<-dev.started
	if err := p.DropPages(dev, []disk.PageID{0}); !errors.Is(err, ErrFixed) {
		t.Fatalf("DropPages of a loading page = %v, want ErrFixed", err)
	}
	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	close(dev.release)
	if err := <-failed; err == nil {
		t.Fatal("the fix whose read failed succeeded")
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if got := p.FixedFrames(); got != 0 {
		t.Errorf("FixedFrames = %d after every handle was unfixed", got)
	}
	before := p.Stats()
	if h, err = p.Fix(dev, 0); err != nil {
		t.Fatal(err)
	}
	h.Unfix(true)
	if st := p.Stats(); st.Hits-before.Hits != 1 || st.Misses != before.Misses {
		t.Errorf("fix of the resident page: %d hits, %d misses; want 1 hit",
			st.Hits-before.Hits, st.Misses-before.Misses)
	}
	if got := p.Stats().LiveBytes; got != 16 {
		t.Errorf("LiveBytes = %d, want one frame (16)", got)
	}
}

func TestPeakBytesTracksHighWater(t *testing.T) {
	dev := newDev(16, 4)
	p := New(64)
	hs := make([]*Handle, 0, 3)
	for pg := disk.PageID(0); pg < 3; pg++ {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Unfix(false)
	}
	if got := p.Stats().PeakBytes; got != 48 {
		t.Errorf("PeakBytes = %d, want 48", got)
	}
}

// TestSequentialScanMissesEveryPage: a sequential scan with the release
// hint through a pool smaller than the file retains no scan page.
func TestSequentialScanMissesEveryPage(t *testing.T) {
	dev := newDev(16, 8)
	p := New(32)
	for pg := disk.PageID(0); pg < 8; pg++ {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Unfix(false); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Misses != 8 {
		t.Errorf("misses = %d, want 8", s.Misses)
	}
}

// TestEvictsLeastRecentlyUnfixed: among frames all unfixed with the keep
// hint, the victim is the one unfixed longest ago; a hit moves a frame to
// the back of the list, and one miss evicts exactly one frame.
func TestEvictsLeastRecentlyUnfixed(t *testing.T) {
	dev := newDev(16, 4)
	p := New(48) // 3 frames

	fix := func(pg disk.PageID) {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	fix(0)
	fix(1)
	fix(2)
	fix(0) // hit: page 1 is now the least recently unfixed

	fix(3)
	if s := p.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	r := dev.Stats().Reads
	fix(0)
	fix(2)
	fix(3)
	if got := dev.Stats().Reads - r; got != 0 {
		t.Errorf("pages 0, 2 and 3 should be resident (%d extra reads)", got)
	}
	fix(1)
	if got := dev.Stats().Reads - r; got != 1 {
		t.Errorf("page 1 should have been the victim (extra reads = %d, want 1)", got)
	}
}

// TestFailedWriteBackKeepsVictim: when the write-back of the front victim
// fails, the miss fails with that error and the dirty frame stays resident
// at the front of the list, so the next miss writes it back and evicts it.
func TestFailedWriteBackKeepsVictim(t *testing.T) {
	dev := newDev(16, 4)
	p := New(32) // 2 frames

	h, err := p.Fix(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Bytes()[0] = 9
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	h, err = p.Fix(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}

	barrierErr := errors.New("log not durable")
	p.SetWriteBarrier(func(disk.Dev, disk.PageID) error { return barrierErr })
	if _, err := p.Fix(dev, 2); !errors.Is(err, barrierErr) {
		t.Fatalf("Fix with a failing write-back = %v, want the barrier error", err)
	}
	if s := p.Stats(); s.Evictions != 0 || s.WriteBacks != 0 {
		t.Fatalf("evictions=%d writebacks=%d after the failed write-back, want 0/0", s.Evictions, s.WriteBacks)
	}
	if got := dev.Stats().Writes; got != 0 {
		t.Fatalf("device writes = %d, want 0", got)
	}

	p.SetWriteBarrier(nil)
	h, err = p.Fix(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Evictions != 1 || s.WriteBacks != 1 {
		t.Errorf("evictions=%d writebacks=%d, want 1/1", s.Evictions, s.WriteBacks)
	}
	buf := make([]byte, 16)
	if err := dev.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Error("the retried eviction did not write page 0 back")
	}
	r := dev.Stats().Reads
	h, err = p.Fix(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Unfix(true)
	if got := dev.Stats().Reads - r; got != 0 {
		t.Errorf("page 1 was evicted in place of the dirty front frame (%d extra reads)", got)
	}
}

func TestConcurrentFixUnfix(t *testing.T) {
	dev := newDev(64, 8)
	p := New(8 * 64)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int) {
			for i := 0; i < 200; i++ {
				pg := disk.PageID((seed + i) % 8)
				h, err := p.Fix(dev, pg)
				if err != nil {
					done <- err
					return
				}
				if err := h.Unfix(i%2 == 0); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p.FixedFrames() != 0 {
		t.Errorf("leaked %d fixed frames", p.FixedFrames())
	}
}

func BenchmarkFixHit(b *testing.B) {
	dev := newDev(disk.PaperPageSize, 1)
	p := New(PaperPoolBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := p.Fix(dev, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Unfix(true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFreeListBoundedByMaxBytes: frames that leave the pool give their
// buffers to the free list, later misses take them back, and with two frame
// sizes in one pool resident plus free bytes never exceed MaxBytes, also
// after DropPages of more bytes than MaxBytes.
func TestFreeListBoundedByMaxBytes(t *testing.T) {
	big, small := newDev(64, 12), newDev(16, 12)
	p := New(256) // four 64-byte frames
	check := func(step string) {
		t.Helper()
		resident, _, free := p.mem.usage()
		if resident+free > p.MaxBytes() {
			t.Fatalf("%s: resident %d + free %d > MaxBytes %d", step, resident, free, p.MaxBytes())
		}
	}
	fixUnfix := func(dev disk.Dev, pg disk.PageID) *byte {
		t.Helper()
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		data := &h.Bytes()[0]
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fix of page %d on %s", pg, dev.Name()))
		return data
	}

	pages := make([]disk.PageID, 12)
	bufs := map[*byte]bool{}
	for i := range pages {
		pages[i] = disk.PageID(i)
		bufs[fixUnfix(big, pages[i])] = true
	}
	if len(bufs) != 4 {
		t.Errorf("12 misses over 4 frames used %d buffers, want 4 (evicted buffers reused)", len(bufs))
	}
	if err := p.DropPages(big, pages); err != nil { // 768 bytes of pages
		t.Fatal(err)
	}
	check("DropPages")
	if resident, _, free := p.mem.usage(); resident != 0 || free != 256 {
		t.Errorf("after DropPages resident=%d free=%d, want 0/256", resident, free)
	}
	// A small frame finds no buffer of its size: each one drops big buffers
	// until the sum fits again.
	for pg := disk.PageID(0); pg < 12; pg++ {
		fixUnfix(small, pg)
	}
	if resident, _, free := p.mem.usage(); resident != 192 || free != 64 {
		t.Errorf("after 12 small frames resident=%d free=%d, want 192/64", resident, free)
	}
	if !bufs[fixUnfix(big, 0)] {
		t.Error("a big miss did not reuse the big buffer left on the free list")
	}
	for pg := disk.PageID(1); pg < 4; pg++ {
		fixUnfix(big, pg)
	}
	if got := p.Stats().LiveBytes; got != 256 {
		t.Errorf("LiveBytes = %d, want 256", got)
	}
}

// TestNewPageZeroesRecycledBuffer: NewPage and FixVirtual may be handed the
// buffer of a dirty frame that was just evicted; they return it zeroed.
func TestNewPageZeroesRecycledBuffer(t *testing.T) {
	dev := newDev(16, 0)
	p := New(16) // one frame
	_, h, err := p.NewPage(dev)
	if err != nil {
		t.Fatal(err)
	}
	old := &h.Bytes()[0]
	for i := range h.Bytes() {
		h.Bytes()[i] = 0xFF
	}
	h.MarkDirty()
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	_, h2, err := p.NewPage(dev) // evicts (writes back) the first page
	if err != nil {
		t.Fatal(err)
	}
	if &h2.Bytes()[0] != old {
		t.Fatal("NewPage did not reuse the evicted frame's buffer")
	}
	if !bytes.Equal(h2.Bytes(), make([]byte, 16)) {
		t.Errorf("NewPage on a recycled buffer = %x, want zeros", h2.Bytes())
	}
	h2.Bytes()[3] = 0xFF
	if err := h2.Unfix(true); err != nil {
		t.Fatal(err)
	}
	v, err := p.FixVirtual(16)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Unfix(true)
	if !bytes.Equal(v.Bytes(), make([]byte, 16)) {
		t.Errorf("FixVirtual on a recycled buffer = %x, want zeros", v.Bytes())
	}
	if s := p.Stats(); s.Evictions != 2 || s.WriteBacks != 2 {
		t.Errorf("evictions=%d writebacks=%d, want 2/2", s.Evictions, s.WriteBacks)
	}
}
