package faultinject

import (
	"fmt"
	"sync"

	"repro/internal/disk"
)

// ErrCrashed marks operations attempted after a simulated device crash (a
// kill at a chosen byte offset, an explicit Crash call, or a power cut). It
// wraps ErrInjected but NOT disk.ErrTransient: a dead device does not come
// back, so the buffer pool's retry policy fails immediately instead of
// spinning on it.
var ErrCrashed = fmt.Errorf("%w: device crashed", ErrInjected)

// CrashPlan schedules when a CrashDevice dies.
type CrashPlan struct {
	// CrashAtByte kills the device once this many bytes have reached the
	// durable image: the write (or, under PowerCut, the sync promotion)
	// that would cross the offset persists only its prefix up to the
	// offset — a torn page at the crash point — and every later operation
	// fails with ErrCrashed. Negative means never.
	CrashAtByte int64
	// PowerCut gives the device a volatile write cache: Writes are held in
	// memory and only reach the durable image when Sync promotes them, in
	// write order. A crash (scheduled or explicit) drops everything not
	// yet promoted — the unsynced-writes-are-lost semantics of a power
	// failure on a caching disk.
	PowerCut bool
}

// NeverCrash is the plan for a device with PowerCut caching but no scheduled
// kill — crash it explicitly with Crash, or not at all.
func NeverCrash(powerCut bool) CrashPlan {
	return CrashPlan{CrashAtByte: -1, PowerCut: powerCut}
}

// CrashDevice wraps a disk.Dev with crash-point injection. The wrapped
// ("durable") device holds exactly the bytes that survive the crash;
// post-crash reads serve that image, which is what a recovery path replays
// from. It implements disk.Dev and is safe for concurrent use.
type CrashDevice struct {
	inner disk.Dev
	plan  CrashPlan

	mu       sync.Mutex
	volatile map[disk.PageID][]byte // written, not yet promoted (PowerCut)
	order    []disk.PageID          // promotion order = first-write order
	durable  int64                  // bytes that have reached the durable image
	crashed  bool
}

var _ disk.Dev = (*CrashDevice)(nil)

// WrapCrash layers crash-point injection over dev.
func WrapCrash(dev disk.Dev, plan CrashPlan) *CrashDevice {
	return &CrashDevice{inner: dev, plan: plan, volatile: make(map[disk.PageID][]byte)}
}

// Inner returns the wrapped device — the durable image a recovery reads.
func (d *CrashDevice) Inner() disk.Dev { return d.inner }

// Crashed reports whether the device has died.
func (d *CrashDevice) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// DurableBytes reports how many bytes have reached the durable image, the
// coordinate system CrashAtByte is expressed in. Property tests run an
// uncrashed rehearsal to learn the range and then draw random crash offsets
// from it.
func (d *CrashDevice) DurableBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable
}

// Crash kills the device now, dropping every unpromoted volatile write.
// Subsequent operations fail with ErrCrashed; the durable image stays
// readable through Inner (and through Read, which serves it after a crash).
func (d *CrashDevice) Crash() {
	d.mu.Lock()
	d.crashed = true
	d.volatile = make(map[disk.PageID][]byte)
	d.order = nil
	d.mu.Unlock()
}

func (d *CrashDevice) crashedErr(op string) error {
	return fmt.Errorf("%w: %s on %s (killed at byte %d)", ErrCrashed, op, d.inner.Name(), d.durable)
}

// Name implements disk.Dev.
func (d *CrashDevice) Name() string { return d.inner.Name() }

// PageSize implements disk.Dev.
func (d *CrashDevice) PageSize() int { return d.inner.PageSize() }

// NumPages implements disk.Dev.
func (d *CrashDevice) NumPages() int { return d.inner.NumPages() }

// Alloc implements disk.Dev. Allocation is metadata, not data: it survives a
// crash (a replay tolerates allocated-but-never-written pages).
func (d *CrashDevice) Alloc() disk.PageID { return d.inner.Alloc() }

// AllocExtent implements disk.Dev.
func (d *CrashDevice) AllocExtent(n int) disk.PageID { return d.inner.AllocExtent(n) }

// Free implements disk.Dev. The page's unsynced bytes go with it: a later
// owner of the id starts from the inner device's zeros, and Sync never
// promotes them onto the freed page.
func (d *CrashDevice) Free(p disk.PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.volatile[p]; ok {
		delete(d.volatile, p)
		for i, q := range d.order {
			if q == p {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	return d.inner.Free(p)
}

// Read implements disk.Dev. Before the crash it sees the device through its
// write cache (volatile content included); after the crash it serves the
// durable image — the view a recovery path replays from.
func (d *CrashDevice) Read(p disk.PageID, buf []byte) error {
	d.mu.Lock()
	if !d.crashed {
		if v, ok := d.volatile[p]; ok {
			copy(buf, v)
			d.mu.Unlock()
			return nil
		}
	}
	d.mu.Unlock()
	return d.inner.Read(p, buf)
}

// Write implements disk.Dev. Under PowerCut the bytes land in the volatile
// cache; otherwise they go straight to the durable image, tearing at the
// crash offset if this write crosses it.
func (d *CrashDevice) Write(p disk.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return d.crashedErr(fmt.Sprintf("write of page %d", p))
	}
	if d.plan.PowerCut {
		c := make([]byte, len(buf))
		copy(c, buf)
		if _, ok := d.volatile[p]; !ok {
			d.order = append(d.order, p)
		}
		d.volatile[p] = c
		return nil
	}
	return d.promoteLocked(p, buf)
}

// promoteLocked moves one page's bytes into the durable image, advancing the
// durable byte count and tearing the page if the count crosses the crash
// offset. Caller holds d.mu.
func (d *CrashDevice) promoteLocked(p disk.PageID, buf []byte) error {
	if d.plan.CrashAtByte >= 0 && d.durable+int64(len(buf)) > d.plan.CrashAtByte {
		keep := d.plan.CrashAtByte - d.durable
		if keep < 0 {
			keep = 0
		}
		old := make([]byte, len(buf))
		if err := d.inner.Read(p, old); err == nil {
			copy(old[:keep], buf[:keep])
			// The torn prefix lands regardless of this write's outcome; the
			// write itself is reported dead.
			_ = d.inner.Write(p, old)
		}
		d.durable += keep
		d.crashed = true
		d.volatile = make(map[disk.PageID][]byte)
		d.order = nil
		return d.crashedErr(fmt.Sprintf("write of page %d", p))
	}
	if err := d.inner.Write(p, buf); err != nil {
		return err
	}
	d.durable += int64(len(buf))
	return nil
}

// Sync implements disk.Dev. Under PowerCut it promotes the volatile cache to
// the durable image in write order — crashing mid-promotion if the crash
// offset falls inside the batch, so a partially synced group commit tears
// exactly like a real power failure during fsync. Without PowerCut writes
// are already durable and Sync only flushes (and counts on) the inner
// device.
func (d *CrashDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return d.crashedErr("sync")
	}
	for len(d.order) > 0 {
		p := d.order[0]
		buf := d.volatile[p]
		if err := d.promoteLocked(p, buf); err != nil {
			return err
		}
		d.order = d.order[1:]
		delete(d.volatile, p)
	}
	return d.inner.Sync()
}

// Stats implements disk.Dev (transfer statistics of the wrapped device).
func (d *CrashDevice) Stats() disk.Stats { return d.inner.Stats() }

// ResetStats implements disk.Dev.
func (d *CrashDevice) ResetStats() { d.inner.ResetStats() }
