// Package buffer implements the buffer manager of the paper's substrate
// (§5.1): a pool of page frames with a fix/unfix interface, LRU replacement,
// dynamic growth up to a memory limit, write-back of dirty pages, and
// "virtual" frames for intermediate results that live only in the pool and
// disappear when evicted.
//
// Scans and operators above receive direct references into the pool
// ("copying is avoided as scans give memory addresses to records fixed in the
// buffer pool"), so a frame's bytes stay valid exactly while it is fixed.
//
// # Frame memory
//
// Frame buffers are recycled, as a real buffer manager's frames are: every
// frame that leaves the pool (eviction, DropPages, DropClean, a failed read)
// gives its buffer to a free list, and every miss, NewPage and FixVirtual
// takes one from it before allocating. Resident plus free bytes never exceed
// the memory limit. Under the race detector a returned buffer is filled with
// PoisonByte, so bytes read after their frame was unfixed show up as garbage.
//
// # Sharding
//
// The pool is sharded by page-id hash into independent shards, each with its
// own mutex, frame table, LRU victim list, checksum table, and
// statistics. Concurrent fixes of different pages therefore contend only when
// the pages hash to the same shard. The memory budget stays global: frame
// bytes are reserved against one atomic counter, and a shard that needs room
// may evict victims from any shard (one shard lock at a time, never nested,
// so cross-shard eviction cannot deadlock). Aggregate Stats() sums the shards
// under their locks for a consistent snapshot.
//
// No shard lock is ever held across a device read: a miss installs a loading
// placeholder, releases the shard lock, performs the read, and then publishes
// the bytes. Concurrent fixes of the page being loaded wait on the
// placeholder instead of issuing a duplicate read.
//
// # Fault tolerance
//
// The pool is the integrity boundary of the storage path. Every page it
// writes back is checksummed (disk.Checksum) and the checksum is verified
// when the page is next read into a frame. Transient device faults
// (disk.IsTransient) and checksum mismatches are retried with bounded
// exponential backoff (RetryPolicy); a mismatch that survives all retries
// surfaces as *disk.CorruptPageError carrying the device name and page id.
// Pages never written through the pool (e.g. read before first write) have
// no recorded checksum and are not verified.
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// Errors reported by the pool.
var (
	// ErrNoMemory means every frame is fixed and the pool is at its limit.
	ErrNoMemory = errors.New("buffer: pool exhausted, all frames fixed")
	// ErrEvicted means a virtual page was evicted and its data is gone.
	ErrEvicted = errors.New("buffer: virtual page was evicted")
	// ErrNotFixed is returned when releasing a handle twice.
	ErrNotFixed = errors.New("buffer: page not fixed")
	// ErrFixed is returned by DropPages for a page that was still fixed.
	ErrFixed = errors.New("buffer: dropped page still fixed")
)

// RetryPolicy bounds how the pool reissues faulted transfers. Attempts
// counts total tries (first try included); Backoff is the sleep before the
// first retry, doubling per retry. The zero value disables retries entirely
// (one attempt, no verification is still performed).
type RetryPolicy struct {
	Attempts int
	Backoff  time.Duration
}

// DefaultRetryPolicy is what New installs: four attempts with a short
// doubling backoff — enough to ride out injected transient faults without
// stalling tests.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, Backoff: 50 * time.Microsecond}
}

func (rp RetryPolicy) attempts() int {
	if rp.Attempts < 1 {
		return 1
	}
	return rp.Attempts
}

// PaperPoolBytes is the paper's initial 256 KB buffer size.
const PaperPoolBytes = 256 * 1024

// PaperSortBytes is the paper's 100 KB sort space.
const PaperSortBytes = 100 * 1024

// minShardBytes is the smallest memory budget worth a shard of its own.
// Pools below 2*minShardBytes get a single shard, which keeps the many tiny
// pools in tests (and the victim-order guarantees they assert) exactly as
// deterministic as the pre-sharding pool.
const minShardBytes = 32 * 1024

// maxDefaultShards caps the shard count New picks on its own; NewWithShards
// accepts any count.
const maxDefaultShards = 8

// defaultShards picks a power-of-two shard count scaled to the memory
// budget.
func defaultShards(maxBytes int) int {
	n := maxBytes / minShardBytes
	if n < 1 {
		return 1
	}
	if n > maxDefaultShards {
		n = maxDefaultShards
	}
	// Round down to a power of two so shard selection is a mask.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

type frameKey struct {
	dev  disk.Dev // nil for virtual frames
	page disk.PageID
}

type frame struct {
	key        frameKey
	home       *shard
	data       []byte
	fixCount   int
	dirty      bool
	virtual    bool
	prefetched bool          // loaded by the prefetcher, not yet fixed
	dropped    bool          // detached by DropPages while fixed; the last Unfix frees it
	loading    bool          // a reader owns this frame; data not yet valid
	ready      chan struct{} // closed when loading completes (or fails)
	lruElem    *list.Element // non-nil iff on the victim list (fixCount == 0)
}

// Stats describe pool behaviour since creation or the last ResetStats.
type Stats struct {
	Fixes           int // Fix calls served; always equals Hits + Misses
	Hits            int // Fix found the page resident
	Misses          int // Fix had to read the page from its device
	Evictions       int // frames pushed out to make room
	WriteBacks      int // dirty frames written to their device on eviction/flush
	PeakBytes       int // high-water mark of pool memory
	LiveBytes       int // current pool memory
	VirtualLost     int // virtual frames discarded by eviction
	Retries         int // transfers reissued after a transient fault or mismatch
	ChecksumFails   int // reads whose content did not match the recorded checksum
	PrefetchIssued  int // asynchronous read-aheads started
	PrefetchHits    int // fixes satisfied by a prefetched frame
	PrefetchWasted  int // prefetched frames evicted or dropped before any fix
	PrefetchDropped int // read-aheads declined (window full or load failed)
	_               [0]byte
}

// add folds o into s (the byte-level fields are left alone).
func (s *Stats) add(o Stats) {
	s.Fixes += o.Fixes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.VirtualLost += o.VirtualLost
	s.Retries += o.Retries
	s.ChecksumFails += o.ChecksumFails
}

// shard is one independently locked slice of the pool: its own frame table,
// victim list, checksum table, and counters.
type shard struct {
	id        int
	mu        sync.Mutex
	frames    map[frameKey]*frame
	lru       *list.List // unpinned frames; front = next eviction candidate
	checksums map[frameKey]uint64
	stats     Stats
}

// Pool is the buffer manager. It is safe for concurrent use.
type Pool struct {
	maxBytes int
	shards   []*shard
	mask     uint64 // len(shards)-1 when power of two, else 0 and mod is used

	mem      frameMem
	nextVirt atomic.Int64
	retry    atomic.Pointer[RetryPolicy]

	prefetcher atomic.Pointer[Prefetcher]
	hooks      atomic.Pointer[Hooks]
	barrier    atomic.Pointer[WriteBarrier]

	pfIssued  atomic.Int64
	pfHits    atomic.Int64
	pfWasted  atomic.Int64
	pfDropped atomic.Int64

	detached atomic.Int64 // frames DropPages detached while fixed, not yet unfixed
}

// New creates an LRU pool limited to maxBytes of frame memory. The pool
// starts empty and grows on demand ("the buffer pool grows dynamically until
// the main memory pool is exhausted, and shrinks as buffer slots are
// unfixed"). The shard count scales with the budget (one shard per 32 KB,
// capped at 8); use NewWithShards for explicit control.
func New(maxBytes int) *Pool {
	return NewWithShards(maxBytes, defaultShards(maxBytes))
}

// NewWithShards creates a pool with an explicit shard count. A single shard
// reproduces the fully serialized pre-sharding pool (useful as a contention
// baseline); counts that are not powers of two work but select shards by
// modulo instead of mask.
func NewWithShards(maxBytes, nshards int) *Pool {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("buffer: pool size must be positive, got %d", maxBytes))
	}
	if nshards < 1 {
		panic(fmt.Sprintf("buffer: shard count must be positive, got %d", nshards))
	}
	p := &Pool{
		maxBytes: maxBytes,
		shards:   make([]*shard, nshards),
	}
	if nshards&(nshards-1) == 0 {
		p.mask = uint64(nshards - 1)
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			id:        i,
			frames:    make(map[frameKey]*frame),
			lru:       list.New(),
			checksums: make(map[frameKey]uint64),
		}
	}
	rp := DefaultRetryPolicy()
	p.retry.Store(&rp)
	return p
}

// shardFor hashes a frame key to its home shard. Virtual frames use the
// same page-id hash over their private id space.
func (p *Pool) shardFor(key frameKey) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	// Fibonacci hashing spreads the dense sequential page ids scans produce.
	h := (uint64(uint32(key.page)) + 1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	if p.mask != 0 {
		return p.shards[h&p.mask]
	}
	return p.shards[h%uint64(len(p.shards))]
}

// NumShards reports how many independently locked shards the pool has.
func (p *Pool) NumShards() int { return len(p.shards) }

// SetRetryPolicy replaces the transfer retry policy (DefaultRetryPolicy by
// default). A zero RetryPolicy disables retries; checksum verification stays
// on regardless.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	p.retry.Store(&rp)
}

func (p *Pool) retryPolicy() RetryPolicy { return *p.retry.Load() }

// MaxBytes returns the configured memory limit.
func (p *Pool) MaxBytes() int { return p.maxBytes }

// Handle is a fixed page. Bytes stay valid until Unfix.
type Handle struct {
	pool *Pool
	f    *frame
}

// Bytes returns the frame contents. The slice aliases pool memory; it must
// not be used after Unfix.
func (h *Handle) Bytes() []byte { return h.f.data }

// Page returns the backing page id (InvalidPage for virtual frames).
func (h *Handle) Page() disk.PageID {
	if h.f.virtual {
		return disk.InvalidPage
	}
	return h.f.key.page
}

// MarkDirty records that the frame was modified and must be written back.
func (h *Handle) MarkDirty() {
	s := h.f.home
	s.mu.Lock()
	h.f.dirty = true
	s.mu.Unlock()
}

// Unfix releases the handle. keepLRU=true inserts the frame into the LRU
// list for possible reuse; keepLRU=false marks it immediately replaceable
// (front of the list), the paper's "can be replaced immediately" hint.
func (h *Handle) Unfix(keepLRU bool) error {
	p := h.pool
	s := h.f.home
	s.mu.Lock()
	defer s.mu.Unlock()
	f := h.f
	if f.fixCount <= 0 {
		return ErrNotFixed
	}
	f.fixCount--
	if f.fixCount == 0 {
		if f.dropped {
			p.giveBack(f.data)
			p.detached.Add(-1)
			return nil
		}
		if keepLRU {
			f.lruElem = s.lru.PushBack(f)
		} else {
			f.lruElem = s.lru.PushFront(f)
		}
	}
	return nil
}

// WriteBarrier gates dirty-page write-back. When one is installed, the pool
// invokes it with the destination device and page before any dirty frame's
// bytes are written (eviction, FlushAll, DropClean); an error aborts the
// write-back. The write-ahead logging layer uses this to enforce the
// WAL-before-data invariant: the barrier blocks until the log record
// covering the page's latest change is durable, so no data page can reach
// its device ahead of its log record.
type WriteBarrier func(dev disk.Dev, page disk.PageID) error

// SetWriteBarrier installs the write-back barrier (nil removes it). The
// barrier runs with a shard lock held and must not re-enter the pool; it may
// block (e.g. on a group commit joining a device sync).
func (p *Pool) SetWriteBarrier(b WriteBarrier) {
	if b == nil {
		p.barrier.Store(nil)
		return
	}
	p.barrier.Store(&b)
}

// writePageLocked writes a frame's bytes to its device, retrying transient
// faults per the retry policy, and records the page checksum for
// verification on the next read. Backoff sleeps happen under the shard lock;
// with the default microsecond-scale policy that is harmless, and it keeps
// the frame bytes stable while they are on their way to the device.
func (p *Pool) writePageLocked(s *shard, key frameKey, data []byte) error {
	if b := p.barrier.Load(); b != nil {
		if err := (*b)(key.dev, key.page); err != nil {
			return fmt.Errorf("buffer: write barrier for page %d on %s: %w", key.page, key.dev.Name(), err)
		}
	}
	var err error
	rp := p.retryPolicy()
	backoff := rp.Backoff
	for attempt := 0; attempt < rp.attempts(); attempt++ {
		if attempt > 0 {
			s.stats.Retries++
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		err = key.dev.Write(key.page, data)
		if err == nil {
			s.checksums[key] = disk.Checksum(data)
			return nil
		}
		if !disk.IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("buffer: write of page %d on %s gave up after %d attempts: %w",
		key.page, key.dev.Name(), rp.attempts(), err)
}

// readPage reads a page into data without holding any shard lock, retrying
// transient faults and checksum mismatches (in-flight corruption heals on
// re-read); a mismatch that outlives the retries is permanent corruption and
// surfaces as *disk.CorruptPageError. Pages without a recorded checksum —
// never written through this pool — are not verified (verify=false). The
// retry and mismatch counts are returned so the caller can fold them into
// shard statistics under the lock.
func (p *Pool) readPage(key frameKey, data []byte, want uint64, verify bool) (retries, csFails int, err error) {
	rp := p.retryPolicy()
	backoff := rp.Backoff
	for attempt := 0; attempt < rp.attempts(); attempt++ {
		if attempt > 0 {
			retries++
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		err = key.dev.Read(key.page, data)
		if err != nil {
			if disk.IsTransient(err) {
				continue
			}
			return retries, csFails, err
		}
		if !verify {
			return retries, csFails, nil
		}
		got := disk.Checksum(data)
		if got == want {
			return retries, csFails, nil
		}
		csFails++
		err = &disk.CorruptPageError{Device: key.dev.Name(), Page: key.page, Want: want, Got: got}
	}
	if disk.IsTransient(err) {
		err = fmt.Errorf("buffer: read of page %d on %s gave up after %d attempts: %w",
			key.page, key.dev.Name(), rp.attempts(), err)
	}
	return retries, csFails, err
}

// evictOne evicts a single unpinned frame from some shard, starting at the
// preferred shard and rotating. Exactly one shard lock is held at a time, so
// two threads evicting across shards cannot deadlock. Returns false when no
// shard has an evictable frame.
func (p *Pool) evictOne(prefer *shard) (bool, error) {
	start := 0
	if prefer != nil {
		start = prefer.id
	}
	for i := 0; i < len(p.shards); i++ {
		s := p.shards[(start+i)%len(p.shards)]
		s.mu.Lock()
		evicted, wasPrefetched, err := p.evictFromShardLocked(s)
		s.mu.Unlock()
		if err != nil {
			return false, err
		}
		if evicted {
			if wasPrefetched {
				p.notePrefetchWasted()
			}
			p.noteEviction(s.id)
			return true, nil
		}
	}
	return false, nil
}

// evictFromShardLocked removes the front of s's victim list, writing back
// a dirty real frame and discarding a virtual one. A failed write-back
// leaves the frame at the front of the victim list so a later attempt can
// retry.
func (p *Pool) evictFromShardLocked(s *shard) (evicted, wasPrefetched bool, err error) {
	el := s.lru.Front()
	if el == nil {
		return false, false, nil
	}
	f := el.Value.(*frame)
	if f.dirty && !f.virtual {
		if err := p.writePageLocked(s, f.key, f.data); err != nil {
			return false, false, fmt.Errorf("buffer: write-back: %w", err)
		}
		f.dirty = false
		s.stats.WriteBacks++
	}
	s.lru.Remove(el)
	f.lruElem = nil
	if f.virtual {
		s.stats.VirtualLost++
	}
	delete(s.frames, f.key)
	p.giveBack(f.data)
	s.stats.Evictions++
	return true, f.prefetched, nil
}

// pinLocked marks an existing frame fixed, removing it from the victim list.
func (s *shard) pinLocked(f *frame) {
	if f.lruElem != nil {
		s.lru.Remove(f.lruElem)
		f.lruElem = nil
	}
	f.fixCount++
}

// Fix pins the given device page in the pool, reading it from the device if
// it is not resident, and returns a handle to its bytes. Reads are verified
// against the page's recorded checksum and retried on transient faults; see
// the package comment for the fault-tolerance contract.
//
// A miss installs a loading placeholder and performs the device read with no
// shard lock held; concurrent fixes of the same page wait for that read
// instead of duplicating it. If the read fails, the waiters retry as
// initiators with the full retry policy — this is also how a dropped
// prefetch re-surfaces its error on the synchronous path.
func (p *Pool) Fix(dev disk.Dev, page disk.PageID) (*Handle, error) {
	key := frameKey{dev: dev, page: page}
	s := p.shardFor(key)
	for {
		s.mu.Lock()
		if f, ok := s.frames[key]; ok {
			if f.loading {
				ready := f.ready
				s.mu.Unlock()
				<-ready
				continue
			}
			s.stats.Fixes++
			s.stats.Hits++
			hitPrefetch := f.prefetched
			f.prefetched = false
			s.pinLocked(f)
			s.mu.Unlock()
			if hitPrefetch {
				p.notePrefetchHit()
			}
			return &Handle{pool: p, f: f}, nil
		}
		// Miss: own the slot with a loading placeholder, then read with no
		// lock held.
		f := &frame{
			key:      key,
			home:     s,
			fixCount: 1,
			loading:  true,
			ready:    make(chan struct{}),
		}
		s.frames[key] = f
		want, verify := s.checksums[key]
		s.stats.Fixes++
		s.stats.Misses++
		s.mu.Unlock()

		data, err := p.reserve(dev.PageSize(), s, false)
		var retries, csFails int
		if err == nil {
			retries, csFails, err = p.readPage(key, data, want, verify)
			if err != nil {
				p.giveBack(data)
			}
		}

		s.mu.Lock()
		s.stats.Retries += retries
		s.stats.ChecksumFails += csFails
		if err != nil {
			p.discardLoadingLocked(s, f)
			s.mu.Unlock()
			return nil, err
		}
		f.data = data
		f.loading = false
		close(f.ready)
		s.mu.Unlock()
		return &Handle{pool: p, f: f}, nil
	}
}

// discardLoadingLocked withdraws a loading placeholder whose read failed and
// wakes its waiters. DropPages may have detached it meanwhile, and another
// fix may then have installed a frame of its own under the same key: that
// frame stays, and the detached placeholder is no longer counted. Caller
// holds s.mu.
func (p *Pool) discardLoadingLocked(s *shard, f *frame) {
	if s.frames[f.key] == f {
		delete(s.frames, f.key)
	}
	if f.dropped {
		p.detached.Add(-1)
	}
	f.loading = false
	close(f.ready)
}

// NewPage allocates a fresh page on the device and fixes a zeroed frame for
// it without reading (the page is new, so its device content is irrelevant).
// The frame starts dirty so it reaches the device on eviction or flush.
func (p *Pool) NewPage(dev disk.Dev) (disk.PageID, *Handle, error) {
	page := dev.Alloc()
	key := frameKey{dev: dev, page: page}
	s := p.shardFor(key)
	data, err := p.reserve(dev.PageSize(), s, true)
	if err != nil {
		return disk.InvalidPage, nil, err
	}
	f := &frame{key: key, home: s, data: data, dirty: true, fixCount: 1}
	s.mu.Lock()
	s.frames[key] = f
	s.mu.Unlock()
	return page, &Handle{pool: p, f: f}, nil
}

// FixVirtual creates an anonymous frame of the given size that exists only in
// the pool. Re-fixing it after eviction returns ErrEvicted; virtual frames
// model the paper's virtual devices for intermediate results.
func (p *Pool) FixVirtual(size int) (*Handle, error) {
	key := frameKey{dev: nil, page: disk.PageID(p.nextVirt.Add(1) - 1)}
	s := p.shardFor(key)
	data, err := p.reserve(size, s, true)
	if err != nil {
		return nil, err
	}
	f := &frame{key: key, home: s, data: data, virtual: true, fixCount: 1}
	s.mu.Lock()
	s.frames[key] = f
	s.mu.Unlock()
	return &Handle{pool: p, f: f}, nil
}

// Refix pins a handle's frame again if it is still resident. For virtual
// frames that were evicted it returns ErrEvicted.
func (p *Pool) Refix(h *Handle) (*Handle, error) {
	s := h.f.home
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[h.f.key]
	if !ok || f != h.f {
		if h.f.virtual {
			return nil, ErrEvicted
		}
		return nil, fmt.Errorf("buffer: page %d no longer resident", h.f.key.page)
	}
	s.pinLocked(f)
	return &Handle{pool: p, f: f}, nil
}

// FlushAll writes every dirty real frame back to its device. Fixed frames are
// flushed but stay resident and fixed.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty && !f.virtual && !f.loading {
				if err := p.writePageLocked(s, f.key, f.data); err != nil {
					s.mu.Unlock()
					return fmt.Errorf("buffer: flush: %w", err)
				}
				f.dirty = false
				s.stats.WriteBacks++
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// FlushPages writes the dirty frames of the given pages of dev back to the
// device, in the order given; the frames stay resident, clean.
func (p *Pool) FlushPages(dev disk.Dev, pages []disk.PageID) error {
	for _, pg := range pages {
		key := frameKey{dev: dev, page: pg}
		s := p.shardFor(key)
		s.mu.Lock()
		if f, ok := s.frames[key]; ok && f.dirty && !f.loading {
			if err := p.writePageLocked(s, key, f.data); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("buffer: flush: %w", err)
			}
			f.dirty = false
			s.stats.WriteBacks++
		}
		s.mu.Unlock()
	}
	return nil
}

// DropClean discards every unfixed frame without write-back accounting
// changes (dirty unfixed frames are written back first). Used between
// experiment runs to cold-start the cache.
func (p *Pool) DropClean() error {
	for _, s := range p.shards {
		var droppedPrefetched int
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			f := el.Value.(*frame)
			if f.dirty && !f.virtual {
				if err := p.writePageLocked(s, f.key, f.data); err != nil {
					s.mu.Unlock()
					return fmt.Errorf("buffer: drop: %w", err)
				}
				s.stats.WriteBacks++
			}
			if f.prefetched {
				droppedPrefetched++
			}
			s.lru.Remove(el)
			f.lruElem = nil
			delete(s.frames, f.key)
			p.giveBack(f.data)
			el = next
		}
		s.mu.Unlock()
		for i := 0; i < droppedPrefetched; i++ {
			p.notePrefetchWasted()
		}
	}
	return nil
}

// DropPages discards the frames of the given pages of dev without writing
// them back and forgets their checksums: the pages are about to be freed, so
// their bytes are garbage, and a later owner of the same page ids starts
// clean. Frames of every other page stay resident. A prefetch of one of the
// pages still in flight is waited for first, so its frame cannot land on a
// freed page. A page still fixed is detached all the same (its memory returns
// at its last Unfix) and reported with ErrFixed.
func (p *Pool) DropPages(dev disk.Dev, pages []disk.PageID) error {
	p.ReadAhead().settle(dev, pages)
	fixed := 0
	for _, pg := range pages {
		key := frameKey{dev: dev, page: pg}
		s := p.shardFor(key)
		s.mu.Lock()
		f, ok := s.frames[key]
		delete(s.checksums, key)
		if !ok {
			s.mu.Unlock()
			continue
		}
		delete(s.frames, key)
		wasPrefetched := f.prefetched
		if f.fixCount > 0 {
			f.dropped = true
			p.detached.Add(1)
			fixed++
		} else {
			s.lru.Remove(f.lruElem)
			f.lruElem = nil
			p.giveBack(f.data)
		}
		s.mu.Unlock()
		if wasPrefetched {
			p.notePrefetchWasted()
		}
	}
	if fixed > 0 {
		return fmt.Errorf("%w: %d pages of %s", ErrFixed, fixed, dev.Name())
	}
	return nil
}

// Stats returns a consistent snapshot of pool statistics: all shard locks
// are held simultaneously while summing, so the Hits+Misses == Fixes
// invariant holds in every snapshot even under concurrent fixes.
func (p *Pool) Stats() Stats {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	var out Stats
	for _, s := range p.shards {
		out.add(s.stats)
	}
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
	out.LiveBytes, out.PeakBytes, _ = p.mem.usage()
	out.PrefetchIssued = int(p.pfIssued.Load())
	out.PrefetchHits = int(p.pfHits.Load())
	out.PrefetchWasted = int(p.pfWasted.Load())
	out.PrefetchDropped = int(p.pfDropped.Load())
	return out
}

// ShardStats returns each shard's own counters (aggregate byte and prefetch
// fields are left zero). Shards are snapshotted one at a time.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (resident pages stay).
func (p *Pool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
	p.mem.resetPeak()
	p.pfIssued.Store(0)
	p.pfHits.Store(0)
	p.pfWasted.Store(0)
	p.pfDropped.Store(0)
}

// FixedFrames reports how many frames are currently pinned, for leak checks
// in tests, frames DropPages detached while fixed included. In-flight
// prefetch loads count as pinned until they publish; call
// (*Prefetcher).Drain first for a quiescent count.
func (p *Pool) FixedFrames() int {
	n := int(p.detached.Load())
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.fixCount > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
