package buffer

import (
	"sync"

	"repro/internal/disk"
)

// Default read-ahead geometry: how many loads may be in flight at once and
// how many pages ahead of the cursor scanners ask for.
const (
	DefaultPrefetchWindow = 16
	DefaultPrefetchDepth  = 8
)

// Hooks receives pool events for external instrumentation (the obs registry
// binds counters here; see obs.InstrumentPool). All fields are optional.
// Hooks are invoked outside shard locks but possibly concurrently, and must
// not call back into the pool.
type Hooks struct {
	PrefetchIssued  func()          // an asynchronous read was started
	PrefetchHit     func()          // a Fix was satisfied by a prefetched frame
	PrefetchWasted  func()          // a prefetched frame was evicted/dropped unused
	PrefetchDropped func()          // a read-ahead was declined or its load failed
	ShardEviction   func(shard int) // a frame was evicted from the given shard
}

// SetHooks installs event hooks; pass a zero Hooks to remove them.
func (p *Pool) SetHooks(h Hooks) { p.hooks.Store(&h) }

func (p *Pool) notePrefetchIssued() {
	p.pfIssued.Add(1)
	if h := p.hooks.Load(); h != nil && h.PrefetchIssued != nil {
		h.PrefetchIssued()
	}
}

func (p *Pool) notePrefetchHit() {
	p.pfHits.Add(1)
	if h := p.hooks.Load(); h != nil && h.PrefetchHit != nil {
		h.PrefetchHit()
	}
}

func (p *Pool) notePrefetchWasted() {
	p.pfWasted.Add(1)
	if h := p.hooks.Load(); h != nil && h.PrefetchWasted != nil {
		h.PrefetchWasted()
	}
}

func (p *Pool) notePrefetchDropped() {
	p.pfDropped.Add(1)
	if h := p.hooks.Load(); h != nil && h.PrefetchDropped != nil {
		h.PrefetchDropped()
	}
}

func (p *Pool) noteEviction(shard int) {
	if h := p.hooks.Load(); h != nil && h.ShardEviction != nil {
		h.ShardEviction(shard)
	}
}

// Prefetcher issues bounded asynchronous read-ahead into its pool. Requests
// beyond the in-flight window are dropped, not queued — read-ahead is an
// optimization, never a promise — and a load that fails for any reason
// (transient fault, corruption, pool pressure) is silently discarded: the
// page simply misses later and the synchronous Fix path, with its full
// retry-and-verify policy, surfaces whatever is wrong with it. Prefetch
// loads take a single read attempt and never hold a shard lock across the
// device read.
//
// The zero/nil Prefetcher is inert: all methods are nil-safe no-ops, so call
// sites can thread pool.ReadAhead() through unconditionally.
type Prefetcher struct {
	pool  *Pool
	depth int
	sem   chan struct{} // in-flight window tokens

	mu       sync.Mutex
	settled  sync.Cond // broadcast whenever a load leaves inflight
	inflight map[frameKey]struct{}
	wg       sync.WaitGroup
}

// EnableReadAhead installs a prefetcher on the pool with the given in-flight
// window and scan depth (values < 1 select the defaults; depth is clamped to
// the window) and returns it. Replaces any previous prefetcher.
func (p *Pool) EnableReadAhead(window, depth int) *Prefetcher {
	if window < 1 {
		window = DefaultPrefetchWindow
	}
	if depth < 1 {
		depth = DefaultPrefetchDepth
	}
	if depth > window {
		depth = window
	}
	pf := &Prefetcher{
		pool:     p,
		depth:    depth,
		sem:      make(chan struct{}, window),
		inflight: make(map[frameKey]struct{}),
	}
	pf.settled.L = &pf.mu
	p.prefetcher.Store(pf)
	return pf
}

// DisableReadAhead detaches the pool's prefetcher (if any) and waits for its
// in-flight loads to settle.
func (p *Pool) DisableReadAhead() {
	if pf := p.prefetcher.Swap(nil); pf != nil {
		pf.Drain()
	}
}

// ReadAhead returns the pool's prefetcher, or nil when read-ahead is
// disabled. The nil result is safe to use directly.
func (p *Pool) ReadAhead() *Prefetcher {
	return p.prefetcher.Load()
}

// Depth reports how many pages ahead of a sequential cursor scanners should
// request (0 when read-ahead is disabled).
func (pf *Prefetcher) Depth() int {
	if pf == nil {
		return 0
	}
	return pf.depth
}

// Prefetch starts asynchronous loads for the given pages. Pages already
// resident or already being loaded are skipped; pages beyond the in-flight
// window are dropped. It never blocks on device I/O.
func (pf *Prefetcher) Prefetch(dev disk.Dev, pages ...disk.PageID) {
	if pf == nil || dev == nil {
		return
	}
	for _, pg := range pages {
		if pg == disk.InvalidPage {
			continue
		}
		key := frameKey{dev: dev, page: pg}
		s := pf.pool.shardFor(key)
		s.mu.Lock()
		_, resident := s.frames[key]
		s.mu.Unlock()
		if resident {
			continue
		}
		pf.mu.Lock()
		if _, dup := pf.inflight[key]; dup {
			pf.mu.Unlock()
			continue
		}
		select {
		case pf.sem <- struct{}{}:
		default:
			pf.mu.Unlock()
			pf.pool.notePrefetchDropped()
			continue
		}
		pf.inflight[key] = struct{}{}
		pf.wg.Add(1)
		pf.mu.Unlock()
		pf.pool.notePrefetchIssued()
		go pf.load(key)
	}
}

// Drain blocks until every in-flight load has settled. Loads requested
// concurrently with Drain may or may not be waited for; call it at
// quiescence (end of scan, before leak checks).
func (pf *Prefetcher) Drain() {
	if pf == nil {
		return
	}
	pf.wg.Wait()
}

// settle blocks until no load of the given pages is in flight. A load that
// has left inflight has either published its frame or discarded it.
func (pf *Prefetcher) settle(dev disk.Dev, pages []disk.PageID) {
	if pf == nil {
		return
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for _, pg := range pages {
		for {
			if _, busy := pf.inflight[frameKey{dev: dev, page: pg}]; !busy {
				break
			}
			pf.settled.Wait()
		}
	}
}

// load performs one asynchronous page read and publishes the frame unpinned
// at the warm end of its shard's victim list. Any failure deletes the
// placeholder so the next synchronous Fix retries from scratch.
func (pf *Prefetcher) load(key frameKey) {
	p := pf.pool
	defer func() {
		pf.mu.Lock()
		delete(pf.inflight, key)
		pf.settled.Broadcast()
		pf.mu.Unlock()
		<-pf.sem
		pf.wg.Done()
	}()

	s := p.shardFor(key)
	s.mu.Lock()
	if _, ok := s.frames[key]; ok {
		// A synchronous Fix beat us to it; nothing to do.
		s.mu.Unlock()
		return
	}
	f := &frame{
		key:      key,
		home:     s,
		fixCount: 1, // owned by the loader until published
		loading:  true,
		ready:    make(chan struct{}),
	}
	s.frames[key] = f
	want, verify := s.checksums[key]
	s.mu.Unlock()

	abort := func() {
		s.mu.Lock()
		p.discardLoadingLocked(s, f)
		s.mu.Unlock()
		p.notePrefetchDropped()
	}

	data, err := p.reserve(key.dev.PageSize(), s, false)
	if err != nil {
		abort()
		return
	}
	if err := key.dev.Read(key.page, data); err != nil {
		p.giveBack(data)
		abort()
		return
	}
	if verify && disk.Checksum(data) != want {
		// Possibly in-flight corruption: do not install, do not record a
		// failure against the page. The sync path re-reads and retries.
		p.giveBack(data)
		abort()
		return
	}

	s.mu.Lock()
	f.data = data
	f.loading = false
	f.fixCount = 0
	f.prefetched = true
	f.lruElem = s.lru.PushBack(f)
	close(f.ready)
	s.mu.Unlock()
}
