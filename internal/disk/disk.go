// Package disk simulates the paged disk devices underneath the buffer
// manager and accounts for I/O the same way the paper does.
//
// The paper's experiments (§5.1) did not measure wall-clock disk time;
// instead the file system gathered transfer statistics and the reported I/O
// cost was *calculated* from them with the weights of Table 3: 20 ms per
// physical seek, 8 ms rotational latency per transfer, 0.5 ms per KB
// transferred, and 2 ms of CPU per transfer. Devices here hold their pages in
// memory, detect sequential vs. random access to decide when a seek is
// charged, and expose the same statistics so higher layers can report
// paper-style costs.
package disk

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies a page within a device. Page numbers are dense and
// reflect physical adjacency: page p+1 is physically next to page p, so
// accessing it after p needs no seek.
type PageID int32

// InvalidPage is the zero-value "no page" marker.
const InvalidPage PageID = -1

// CostParams carries the Table 3 weights used to turn transfer statistics
// into milliseconds.
type CostParams struct {
	SeekMS           float64 // physical seek on device
	RotationalMS     float64 // rotational latency per transfer
	TransferMSPerKB  float64 // transfer time per KB
	CPUMSPerTransfer float64 // CPU cost per transfer
	SyncMS           float64 // cache flush (fsync) per Sync call
}

// PaperCost returns the Table 3 constants. The paper predates durability
// experiments and prices no fsync; SyncMS charges a flush as one seek plus
// one rotational delay — the head movement a forced cache drain costs on the
// simulated device.
func PaperCost() CostParams {
	return CostParams{
		SeekMS:           20,
		RotationalMS:     8,
		TransferMSPerKB:  0.5,
		CPUMSPerTransfer: 2,
		SyncMS:           28,
	}
}

// PaperPageSize is the 8 KB transfer unit the paper uses for data files.
const PaperPageSize = 8 * 1024

// PaperRunPageSize is the 1 KB transfer unit the paper uses for sort runs
// "to allow high fan-in".
const PaperRunPageSize = 1024

// Stats are the transfer statistics a device gathers.
type Stats struct {
	Seeks     int   // transfers that required a physical seek
	Transfers int   // total page transfers (reads + writes)
	Reads     int   // read transfers
	Writes    int   // write transfers
	Syncs     int   // cache flushes (Sync calls)
	Bytes     int64 // bytes transferred
}

// Add returns the element-wise sum of two stat sets.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Seeks:     s.Seeks + o.Seeks,
		Transfers: s.Transfers + o.Transfers,
		Reads:     s.Reads + o.Reads,
		Writes:    s.Writes + o.Writes,
		Syncs:     s.Syncs + o.Syncs,
		Bytes:     s.Bytes + o.Bytes,
	}
}

// Sub returns s - o, for interval measurements.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Seeks:     s.Seeks - o.Seeks,
		Transfers: s.Transfers - o.Transfers,
		Reads:     s.Reads - o.Reads,
		Writes:    s.Writes - o.Writes,
		Syncs:     s.Syncs - o.Syncs,
		Bytes:     s.Bytes - o.Bytes,
	}
}

// IOCostMS converts the statistics to simulated I/O milliseconds
// (seek + rotation + transfer + flush), excluding the per-transfer CPU
// charge.
func (s Stats) IOCostMS(p CostParams) float64 {
	return float64(s.Seeks)*p.SeekMS +
		float64(s.Transfers)*p.RotationalMS +
		float64(s.Bytes)/1024*p.TransferMSPerKB +
		float64(s.Syncs)*p.SyncMS
}

// CPUCostMS is the per-transfer CPU charge of the cost model.
func (s Stats) CPUCostMS(p CostParams) float64 {
	return float64(s.Transfers) * p.CPUMSPerTransfer
}

// TotalCostMS is IOCostMS + CPUCostMS.
func (s Stats) TotalCostMS(p CostParams) float64 {
	return s.IOCostMS(p) + s.CPUCostMS(p)
}

func (s Stats) String() string {
	return fmt.Sprintf("seeks=%d transfers=%d (r=%d w=%d) syncs=%d bytes=%d",
		s.Seeks, s.Transfers, s.Reads, s.Writes, s.Syncs, s.Bytes)
}

// Dev is the paged-device interface the buffer manager and file layers
// consume. *Device is the in-memory implementation; fault injectors wrap any
// Dev to produce transient errors and corruption (internal/faultinject), so
// every layer above must accept Dev rather than the concrete type.
//
// Implementations must be safe for concurrent use. Read errors wrapping
// ErrTransient may be retried; see errors.go for the fault taxonomy.
type Dev interface {
	// Name identifies the device in diagnostics and errors.
	Name() string
	// PageSize returns the transfer unit in bytes.
	PageSize() int
	// NumPages returns the number of allocated (live) pages.
	NumPages() int
	// Alloc allocates one zeroed page.
	Alloc() PageID
	// AllocExtent allocates n physically contiguous zeroed pages.
	AllocExtent(n int) PageID
	// Free releases a page for reuse.
	Free(p PageID) error
	// Read copies page p into buf (exactly one page long).
	Read(p PageID, buf []byte) error
	// Write copies buf onto page p. A completed Write is visible to
	// subsequent Reads but not necessarily durable: devices may hold
	// written pages in a volatile cache until Sync.
	Write(p PageID, buf []byte) error
	// Sync flushes the device write cache: every Write that completed
	// before Sync returns is durable afterwards — it survives a simulated
	// crash or power cut (internal/faultinject). The write-ahead log calls
	// this on commit; data devices call it through the buffer pool's
	// flush-coordination barrier.
	Sync() error
	// Stats returns a snapshot of the transfer statistics.
	Stats() Stats
	// ResetStats zeroes the statistics.
	ResetStats()
}

// ErrBadPage is returned for out-of-range or freed page accesses.
var ErrBadPage = errors.New("disk: bad page id")

// ErrBadBuffer is returned when a caller buffer does not match the page size.
var ErrBadBuffer = errors.New("disk: buffer size does not match page size")

// Device is one simulated disk: a dense array of fixed-size pages plus
// transfer statistics. Devices are safe for concurrent use.
type Device struct {
	name     string
	pageSize int
	recycler *sync.Pool // freed pages of this page size, process-wide

	mu    sync.Mutex
	pages []*[]byte // nil for a freed page
	freed idHeap
	last  PageID // last page touched, for sequential-access detection
	stats Stats
}

var _ Dev = (*Device)(nil)

// NewDevice creates an empty device with the given page (transfer) size.
func NewDevice(name string, pageSize int) *Device {
	if pageSize <= 0 {
		panic(fmt.Sprintf("disk: page size must be positive, got %d", pageSize))
	}
	return &Device{
		name:     name,
		pageSize: pageSize,
		recycler: recyclerFor(pageSize),
		last:     InvalidPage,
	}
}

// pageRecyclers maps a page size to the sync.Pool of freed pages (*[]byte)
// that every Device of that size shares. A server query's temp device frees
// its spill pages when the query ends, and the next query's device takes them
// back instead of allocating.
var pageRecyclers sync.Map

func recyclerFor(pageSize int) *sync.Pool {
	if r, ok := pageRecyclers.Load(pageSize); ok {
		return r.(*sync.Pool)
	}
	r, _ := pageRecyclers.LoadOrStore(pageSize, new(sync.Pool))
	return r.(*sync.Pool)
}

// newPage returns a zeroed page, recycled when some device freed one.
func (d *Device) newPage() *[]byte {
	if b, ok := d.recycler.Get().(*[]byte); ok {
		clear(*b)
		return b
	}
	b := make([]byte, d.pageSize)
	return &b
}

// Name returns the device name (for diagnostics).
func (d *Device) Name() string { return d.name }

// PageSize returns the transfer unit in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated (live) pages.
func (d *Device) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages) - len(d.freed)
}

// Alloc allocates one zeroed page and returns its id. Allocation itself is a
// metadata operation and is not charged as a transfer.
func (d *Device) Alloc() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocLocked()
}

// allocLocked reuses the lowest freed page id, so the ids a run of
// reallocations gets are ascending (sequential to read back) and the same on
// every run; it grows the device when none is free.
func (d *Device) allocLocked() PageID {
	if len(d.freed) > 0 {
		id := d.freed.pop()
		d.pages[id] = d.newPage()
		return id
	}
	d.pages = append(d.pages, d.newPage())
	return PageID(len(d.pages) - 1)
}

// AllocExtent allocates n physically contiguous zeroed pages and returns the
// first id; pages first..first+n-1 belong to the extent. Extent-based
// allocation is what lets the scans below run sequentially.
func (d *Device) AllocExtent(n int) PageID {
	if n <= 0 {
		panic(fmt.Sprintf("disk: extent size must be positive, got %d", n))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, d.newPage())
	}
	return first
}

// Free releases a page for reuse and hands its bytes to the recycler of its
// page size. Freeing an already-freed or out-of-range page returns
// ErrBadPage.
func (d *Device) Free(p PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(p); err != nil {
		return err
	}
	d.recycler.Put(d.pages[p])
	d.pages[p] = nil
	d.freed.push(p)
	return nil
}

func (d *Device) checkLocked(p PageID) error {
	if p < 0 || int(p) >= len(d.pages) {
		return fmt.Errorf("%w: %d of %d on %s", ErrBadPage, p, len(d.pages), d.name)
	}
	if d.pages[p] == nil {
		return fmt.Errorf("%w: %d freed on %s", ErrBadPage, p, d.name)
	}
	return nil
}

// account records one transfer of the page and updates seek detection.
func (d *Device) accountLocked(p PageID, write bool) {
	if d.last == InvalidPage || (p != d.last+1 && p != d.last) {
		d.stats.Seeks++
	}
	d.stats.Transfers++
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.Bytes += int64(d.pageSize)
	d.last = p
}

// Read copies page p into buf, which must be exactly one page long.
func (d *Device) Read(p PageID, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBuffer, len(buf), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(p); err != nil {
		return err
	}
	d.accountLocked(p, false)
	copy(buf, *d.pages[p])
	return nil
}

// Write copies buf onto page p.
func (d *Device) Write(p PageID, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBuffer, len(buf), d.pageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(p); err != nil {
		return err
	}
	d.accountLocked(p, true)
	copy(*d.pages[p], buf)
	return nil
}

// Sync counts one cache flush. The in-memory device has no volatile cache —
// every Write is immediately "durable" — so the call is pure accounting;
// crash semantics come from the faultinject wrappers that stand in front of
// the device.
func (d *Device) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Syncs++
	return nil
}

// Stats returns a snapshot of the transfer statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the statistics (the allocated pages stay).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.last = InvalidPage
}

// idHeap is a min-heap of freed page ids.
type idHeap []PageID

func (h *idHeap) push(id PageID) {
	*h = append(*h, id)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
}

func (h *idHeap) pop() PageID {
	s := *h
	low, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return low
}
