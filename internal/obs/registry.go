package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is an expvar-style process-wide metrics sink: named monotonic
// counters, cheap to bump from any goroutine, snapshotted for assertions and
// status pages. Unlike a Tracer (per-query, structural) the Registry
// aggregates across queries for the life of the process.
type Registry struct {
	mu   sync.Mutex
	vars map[string]*Counter
}

// Default is the process-wide registry the public API records into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.vars[name]
	if !ok {
		c = &Counter{}
		r.vars[name] = c
	}
	return c
}

// Get returns the named counter's current value (0 if never touched).
func (r *Registry) Get(name string) int64 {
	r.mu.Lock()
	c, ok := r.vars[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// Snapshot returns a point-in-time copy of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.vars))
	for name, c := range r.vars {
		out[name] = c.Load()
	}
	return out
}

// Do invokes fn for every counter in sorted name order.
func (r *Registry) Do(fn func(name string, value int64)) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, snap[name])
	}
}

// Counter is a single atomic metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// SetMax raises the counter to v if v exceeds the current value — a
// high-water gauge for quantities like spill recursion depth, where the
// interesting number is the worst level any query ever reached.
func (c *Counter) SetMax(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}
