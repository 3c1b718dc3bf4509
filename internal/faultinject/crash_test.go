package faultinject

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
)

// TestTornWriteOffsetsSweepFullRange checks that deterministic torn writes
// tear at offsets that walk the whole [0, pageSize-1] range, including both
// edges, rather than the old fixed half-page split.
func TestTornWriteOffsetsSweepFullRange(t *testing.T) {
	const pageSize = 4
	inner := disk.NewDevice("d", pageSize)
	dev := Wrap(inner, Plan{TornWriteEvery: 1})
	p := inner.Alloc()

	old := []byte{0xA0, 0xA1, 0xA2, 0xA3}
	if err := inner.Write(p, old); err != nil { // pristine content, no injector
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for n := 1; n <= pageSize; n++ {
		buf := []byte{0xB0, 0xB1, 0xB2, 0xB3}
		if err := dev.Write(p, buf); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		got := make([]byte, pageSize)
		if err := inner.Read(p, got); err != nil {
			t.Fatal(err)
		}
		// The tear point is where new bytes stop and old bytes survive.
		tear := 0
		for tear < pageSize && got[tear] == buf[tear] {
			tear++
		}
		for i := tear; i < pageSize; i++ {
			if got[i] != old[i] {
				t.Fatalf("write %d: byte %d is neither old nor a new prefix: % x", n, i, got)
			}
		}
		if tear == pageSize {
			tear = 0 // all-new can only be the tearAt==0 case leaving new==old... disambiguate below
		}
		seen[tear] = true
		// Restore distinct old content for the next round.
		old = []byte{byte(0xC0 + n), byte(0xC1 + n), byte(0xC2 + n), byte(0xC3 + n)}
		if err := inner.Write(p, old); err != nil {
			t.Fatal(err)
		}
	}
	for off := 0; off < pageSize; off++ {
		if !seen[off] {
			t.Fatalf("tear offsets %v never hit %d; edges must be covered", seen, off)
		}
	}
}

// TestTornWriteProbUsesRNG checks the probabilistic schedule draws its tear
// offset from the seeded PRNG (deterministic per seed).
func TestTornWriteProbUsesRNG(t *testing.T) {
	run := func(seed int64) []byte {
		inner := disk.NewDevice("d", 64)
		dev := Wrap(inner, Plan{Seed: seed, TornWriteProb: 1})
		p := inner.Alloc()
		buf := bytes.Repeat([]byte{0xEE}, 64)
		if err := dev.Write(p, buf); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64)
		if err := inner.Read(p, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a1, a2, b := run(7), run(7), run(8)
	if !bytes.Equal(a1, a2) {
		t.Fatal("same seed produced different tears")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("different seeds produced identical tears (suspicious)")
	}
}

func TestCrashDeviceDirectModeTearsAtOffset(t *testing.T) {
	const pageSize = 64
	inner := disk.NewDevice("d", pageSize)
	// Crash 100 bytes in: page 0 fully durable, page 1 torn at byte 36.
	dev := WrapCrash(inner, CrashPlan{CrashAtByte: 100})
	p0, p1 := dev.Alloc(), dev.Alloc()

	full := bytes.Repeat([]byte{0x11}, pageSize)
	if err := dev.Write(p0, full); err != nil {
		t.Fatalf("first write: %v", err)
	}
	err := dev.Write(p1, bytes.Repeat([]byte{0x22}, pageSize))
	if !errors.Is(err, ErrCrashed) || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: %v, want ErrCrashed wrapping ErrInjected", err)
	}
	if !dev.Crashed() {
		t.Fatal("device should be crashed")
	}
	if got := dev.DurableBytes(); got != 100 {
		t.Fatalf("durable bytes %d, want 100", got)
	}

	got := make([]byte, pageSize)
	if err := inner.Read(p1, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pageSize; i++ {
		want := byte(0)
		if i < 100-pageSize {
			want = 0x22
		}
		if got[i] != want {
			t.Fatalf("page 1 byte %d = %#x, want %#x", i, got[i], want)
		}
	}

	// Everything post-crash fails except reads, which serve the durable image.
	if err := dev.Write(p0, full); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := dev.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := dev.Read(p0, got); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("post-crash read: %v", err)
	}
}

func TestCrashDevicePowerCutDropsUnsynced(t *testing.T) {
	const pageSize = 32
	inner := disk.NewDevice("d", pageSize)
	dev := WrapCrash(inner, NeverCrash(true))
	p := dev.Alloc()

	synced := bytes.Repeat([]byte{0x33}, pageSize)
	if err := dev.Write(p, synced); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite without syncing: visible before the cut, gone after.
	unsynced := bytes.Repeat([]byte{0x44}, pageSize)
	if err := dev.Write(p, unsynced); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	if err := dev.Read(p, got); err != nil || !bytes.Equal(got, unsynced) {
		t.Fatalf("pre-cut read should see the write cache: %v", err)
	}
	dev.Crash()
	if err := dev.Read(p, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, synced) {
		t.Fatal("power cut should drop the unsynced overwrite")
	}
}

// TestCrashDevicePowerCutFreeDropsUnsynced: a freed page takes its unsynced
// bytes with it. Re-allocating the id reads zeros, and a Sync after the Free
// promotes nothing onto the freed page.
func TestCrashDevicePowerCutFreeDropsUnsynced(t *testing.T) {
	const pageSize = 8
	dev := WrapCrash(disk.NewDevice("d", pageSize), NeverCrash(true))
	p := dev.Alloc()
	if err := dev.Write(p, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(p); err != nil {
		t.Fatal(err)
	}
	if q := dev.Alloc(); q != p {
		t.Fatalf("Alloc after Free = page %d, want the freed page %d", q, p)
	}
	got := make([]byte, pageSize)
	if err := dev.Read(p, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, pageSize)) {
		t.Errorf("re-allocated page reads %v, want zeros", got)
	}

	if err := dev.Write(p, bytes.Repeat([]byte{9}, pageSize)); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Errorf("Sync after freeing an unsynced page: %v", err)
	}
	if got := dev.DurableBytes(); got != 0 {
		t.Errorf("DurableBytes = %d, want 0: nothing was promoted", got)
	}
}

func TestCrashDevicePowerCutTearsMidPromotion(t *testing.T) {
	const pageSize = 16
	inner := disk.NewDevice("d", pageSize)
	// Three pages written then synced; the crash offset lands inside the
	// second page's promotion, so page 1 tears and page 2 vanishes.
	dev := WrapCrash(inner, CrashPlan{CrashAtByte: pageSize + 5, PowerCut: true})
	pages := []disk.PageID{dev.Alloc(), dev.Alloc(), dev.Alloc()}
	for i, p := range pages {
		if err := dev.Write(p, bytes.Repeat([]byte{byte(0x50 + i)}, pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync across the crash offset: %v, want ErrCrashed", err)
	}

	buf := make([]byte, pageSize)
	if err := inner.Read(pages[0], buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{0x50}, pageSize)) {
		t.Fatalf("page 0 should be fully durable: %v % x", err, buf)
	}
	if err := inner.Read(pages[1], buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		want := byte(0)
		if i < 5 {
			want = 0x51
		}
		if buf[i] != want {
			t.Fatalf("page 1 byte %d = %#x, want %#x (torn at 5)", i, buf[i], want)
		}
	}
	if err := inner.Read(pages[2], buf); err != nil || !bytes.Equal(buf, make([]byte, pageSize)) {
		t.Fatalf("page 2 should have been dropped: %v % x", err, buf)
	}
}

func TestCrashDeviceImplementsDev(t *testing.T) {
	inner := disk.NewDevice("d", 32)
	var dev disk.Dev = WrapCrash(inner, NeverCrash(false))
	if dev.PageSize() != 32 || dev.Name() != "d" {
		t.Fatal("delegation broken")
	}
	p := dev.AllocExtent(3)
	if dev.NumPages() != 3 {
		t.Fatalf("NumPages %d", dev.NumPages())
	}
	if err := dev.Free(p + 2); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Syncs; got != 1 {
		t.Fatalf("sync stat %d", got)
	}
}
