package buffer

import (
	"fmt"
	"sync"
)

// PoisonByte fills every frame buffer the pool takes back, in builds with
// the race detector on. Frame memory is recycled: the buffer an evicted or
// dropped frame gives back serves a later miss, usually of another page. A
// reader that keeps a page's bytes past their validity (after Unfix; for a
// scan, after its following Next) would silently read that other page; under
// -race it reads this pattern instead, which the tests notice.
const PoisonByte = 0xDB

// frameMem is the pool's frame memory: the bytes that resident frames hold,
// reserved against the pool's limit, and a free list of the buffers frames
// gave back, one stack per frame size. A buffer moves between resident and
// free without changing their sum, and a reservation that finds no free
// buffer of its size drops buffers of other sizes until the sum fits, so
// resident plus free bytes never exceed the limit.
type frameMem struct {
	mu        sync.Mutex
	resident  int
	peak      int
	freeBytes int
	free      []freeStack
}

// freeStack holds the free buffers of one frame size.
type freeStack struct {
	size int
	bufs [][]byte
}

func (st *freeStack) pop() []byte {
	n := len(st.bufs) - 1
	buf := st.bufs[n]
	st.bufs[n] = nil
	st.bufs = st.bufs[:n]
	return buf
}

// stack returns the free stack of the given frame size, adding it on first
// use. A pool sees one or two frame sizes, so a linear search suffices.
func (m *frameMem) stack(size int) *freeStack {
	for i := range m.free {
		if m.free[i].size == size {
			return &m.free[i]
		}
	}
	m.free = append(m.free, freeStack{size: size})
	return &m.free[len(m.free)-1]
}

// take reserves size bytes if they fit under limit and returns a free buffer
// of that size, or nil when there is none and the caller must allocate. ok
// is false when the bytes do not fit.
func (m *frameMem) take(size, limit int) (buf []byte, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.resident+size > limit {
		return nil, false
	}
	m.resident += size
	m.peak = max(m.peak, m.resident)
	if st := m.stack(size); len(st.bufs) > 0 {
		m.freeBytes -= size
		return st.pop(), true
	}
	for i := range m.free {
		st := &m.free[i]
		for m.resident+m.freeBytes > limit && len(st.bufs) > 0 {
			st.pop()
			m.freeBytes -= st.size
		}
	}
	return nil, true
}

// put moves a buffer from the resident count to the free list.
func (m *frameMem) put(buf []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resident -= len(buf)
	st := m.stack(len(buf))
	st.bufs = append(st.bufs, buf)
	m.freeBytes += len(buf)
}

// usage reports resident bytes, their high-water mark and free bytes.
func (m *frameMem) usage() (resident, peak, free int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident, m.peak, m.freeBytes
}

func (m *frameMem) resetPeak() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peak = 0
}

// reserve claims a frame buffer of need bytes against the budget, evicting
// unpinned frames (preferring the caller's home shard) until the claim fits.
// The buffer comes from the free list when one of that size is there; zero
// clears it for a caller that does not overwrite every byte. No shard lock is
// held while it loops, so concurrent reservations make independent progress.
func (p *Pool) reserve(need int, prefer *shard, zero bool) ([]byte, error) {
	if need > p.maxBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds pool of %d", ErrNoMemory, need, p.maxBytes)
	}
	for {
		if buf, ok := p.mem.take(need, p.maxBytes); ok {
			if buf == nil {
				return make([]byte, need), nil
			}
			if zero {
				clear(buf)
			}
			return buf, nil
		}
		evicted, err := p.evictOne(prefer)
		if err != nil {
			return nil, err
		}
		if !evicted {
			resident, _, _ := p.mem.usage()
			return nil, fmt.Errorf("%w: need %d bytes, %d in use", ErrNoMemory, need, resident)
		}
	}
}

// giveBack returns the buffer of a frame that has left the pool (or never
// joined it) to the free list, poisoned first under the race detector.
func (p *Pool) giveBack(buf []byte) {
	if raceEnabled && len(buf) > 0 {
		buf[0] = PoisonByte
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
	}
	p.mem.put(buf)
}
