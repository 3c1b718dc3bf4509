// Package obs is the query observability layer: per-operator spans recording
// rows, wall time, and snapshot-deltas of exec.Counters, accumulated into a
// profile tree (EXPLAIN ANALYZE), plus a process-wide expvar-style Registry.
//
// The overhead contract (DESIGN.md §8): every entry point is nil-safe, so
// instrumented code paths carry a tracer unconditionally and pay only a nil
// check when no sink is installed — zero allocations, no time.Now calls, no
// behavior change. Counter attribution works by snapshot-delta: a probe
// copies the query's shared *exec.Counters before delegating and records the
// difference after, so a span's counters are INCLUSIVE of its subtree and a
// span's self cost is its inclusive cost minus its children's.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
)

// Span is one node of a profile tree: an operator, a phase of a stop-and-go
// algorithm, or a parallel worker. All methods are safe on a nil *Span (they
// no-op or return nil/zero), and safe for concurrent use — parallel workers
// record into sibling spans of one tree.
type Span struct {
	name string // role in this plan, e.g. "sort(dividend)"
	kind string // operator or phase type, e.g. "Sort"

	mu       sync.Mutex
	opens    int64
	rows     int64
	batches  int64
	wall     time.Duration
	counters exec.Counters // inclusive of children
	notes    []string
	children []*Span
}

// Name returns the span's role label.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Kind returns the span's operator/phase type label.
func (s *Span) Kind() string {
	if s == nil {
		return ""
	}
	return s.kind
}

// Child creates (and links) a child span. On a nil receiver it returns nil,
// so span construction chains freely whether or not a sink is installed.
func (s *Span) Child(name, kind string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, kind: kind}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Record folds one observation into the span. delta must be the counter
// growth observed across the recorded window (inclusive of any nested calls).
func (s *Span) Record(opens, rows, batches int64, wall time.Duration, delta exec.Counters) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.opens += opens
	s.rows += rows
	s.batches += batches
	s.wall += wall
	s.counters.Add(delta)
	s.mu.Unlock()
}

// Notef attaches a free-form annotation (worker stats, partition fan-out).
func (s *Span) Notef(format string, args ...any) {
	if s == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.notes = append(s.notes, msg)
	s.mu.Unlock()
}

// setCounters overwrites the inclusive counters (Tracer.Profile stamps the
// root with the query total so un-probed paths keep self(root) ≥ 0).
func (s *Span) setCounters(c exec.Counters) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters = c
	s.mu.Unlock()
}

// Rows returns the number of tuples the span's subject produced.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Batches returns the number of batches produced (0 on tuple-only paths).
func (s *Span) Batches() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// Opens returns how many Open (or phase-start) windows were recorded.
func (s *Span) Opens() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens
}

// Wall returns the accumulated wall time spent inside the span's windows.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// Counters returns the span's INCLUSIVE counter deltas (subtree included).
func (s *Span) Counters() exec.Counters {
	if s == nil {
		return exec.Counters{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Children returns a snapshot of the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Notes returns a snapshot of the span's annotations.
func (s *Span) Notes() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// SelfCounters returns the span's EXCLUSIVE cost: inclusive counters minus
// the sum of its direct children's inclusive counters. With strict window
// nesting the selves over a tree telescope, so they sum exactly to the root's
// inclusive counters.
func (s *Span) SelfCounters() exec.Counters {
	if s == nil {
		return exec.Counters{}
	}
	self := s.Counters()
	for _, c := range s.Children() {
		self = diff(self, c.Counters())
	}
	return self
}

func diff(a, b exec.Counters) exec.Counters {
	return exec.Counters{Comp: a.Comp - b.Comp, Hash: a.Hash - b.Hash, Move: a.Move - b.Move, Bit: a.Bit - b.Bit}
}

// Phase measures one window of work (a stop-and-go phase such as
// hash-division's dividend absorption) against a span. It is a value type:
// starting a phase on a nil span allocates nothing and End is a no-op.
type Phase struct {
	span     *Span
	counters *exec.Counters
	snap     exec.Counters
	start    time.Time
}

// Start opens a phase window against s, snapshotting counters (which may be
// nil). On a nil span it returns the zero Phase without touching the clock.
func (s *Span) Start(counters *exec.Counters) Phase {
	if s == nil {
		return Phase{}
	}
	p := Phase{span: s, counters: counters, start: time.Now()}
	if counters != nil {
		p.snap = *counters
	}
	return p
}

// End closes the window, recording elapsed wall time, the counter delta since
// Start, and rows produced by the phase.
func (p Phase) End(rows int64) {
	if p.span == nil {
		return
	}
	var delta exec.Counters
	if p.counters != nil {
		delta = diff(*p.counters, p.snap)
	}
	p.span.Record(1, rows, 0, time.Since(p.start), delta)
}

// Tracer owns a profile tree for one query. A nil *Tracer disables profiling
// everywhere downstream (Root returns nil, and every Span method on nil
// no-ops).
type Tracer struct {
	root *Span
}

// NewTracer returns a tracer with a fresh root span named "query".
func NewTracer() *Tracer {
	return &Tracer{root: &Span{name: "query", kind: "query"}}
}

// Root returns the root span, or nil on a nil tracer.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Profile finalizes the tree into a Profile. When total is non-nil the root
// span's inclusive counters are stamped with the query total, so container
// paths that run outside any probe (partition planning, parallel shuffle)
// surface as root self cost instead of making some self negative.
func (t *Tracer) Profile(total *exec.Counters) *Profile {
	if t == nil {
		return nil
	}
	p := &Profile{Root: t.root}
	if total != nil {
		t.root.setCounters(*total)
		p.Total = *total
	} else {
		p.Total = t.root.Counters()
	}
	return p
}

// Profile is a finalized span tree plus the query-level counter total.
type Profile struct {
	Root  *Span
	Total exec.Counters
}

// Walk visits every span depth-first in creation order.
func (p *Profile) Walk(fn func(s *Span, depth int)) {
	if p == nil || p.Root == nil {
		return
	}
	var rec func(s *Span, depth int)
	rec = func(s *Span, depth int) {
		fn(s, depth)
		for _, c := range s.Children() {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
}

// SumSelf returns the sum of SelfCounters over the whole tree. With correct
// window nesting it equals Total exactly — the EXPLAIN ANALYZE invariant
// property-tested in internal/division.
func (p *Profile) SumSelf() exec.Counters {
	var sum exec.Counters
	p.Walk(func(s *Span, _ int) { sum.Add(s.SelfCounters()) })
	return sum
}

// Format renders the profile as an indented EXPLAIN ANALYZE tree. Counters
// shown per line are the span's SELF cost; the header line carries the query
// total.
func (p *Profile) Format() string {
	if p == nil || p.Root == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "total: comp=%d hash=%d move=%d bit=%d\n",
		p.Total.Comp, p.Total.Hash, p.Total.Move, p.Total.Bit)
	p.Walk(func(s *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s-> %s", indent, s.Name())
		if k := s.Kind(); k != "" && k != s.Name() {
			fmt.Fprintf(&b, " [%s]", k)
		}
		fmt.Fprintf(&b, "  rows=%d", s.Rows())
		if n := s.Batches(); n > 0 {
			fmt.Fprintf(&b, " batches=%d", n)
		}
		if n := s.Opens(); n > 1 {
			fmt.Fprintf(&b, " opens=%d", n)
		}
		fmt.Fprintf(&b, " time=%s", s.Wall().Round(time.Microsecond))
		self := s.SelfCounters()
		fmt.Fprintf(&b, " self[comp=%d hash=%d move=%d bit=%d]\n",
			self.Comp, self.Hash, self.Move, self.Bit)
		for _, note := range s.Notes() {
			fmt.Fprintf(&b, "%s     %s\n", indent, note)
		}
	})
	return b.String()
}

// Tree returns the span tree as a JSON-marshalable structure. Wall times are
// included only when includeWall is set: divbench emits profiles with
// includeWall=false so the JSON section is byte-identical across runs of a
// deterministic workload.
func (p *Profile) Tree(includeWall bool) map[string]any {
	if p == nil || p.Root == nil {
		return nil
	}
	return spanTree(p.Root, includeWall)
}

func spanTree(s *Span, includeWall bool) map[string]any {
	self := s.SelfCounters()
	m := map[string]any{
		"name": s.Name(),
		"kind": s.Kind(),
		"rows": s.Rows(),
		"self": map[string]int64{
			"comp": self.Comp, "hash": self.Hash, "move": self.Move, "bit": self.Bit,
		},
	}
	if n := s.Batches(); n > 0 {
		m["batches"] = n
	}
	if includeWall {
		m["wall_ns"] = int64(s.Wall())
	}
	if notes := s.Notes(); len(notes) > 0 {
		m["notes"] = notes
	}
	if children := s.Children(); len(children) > 0 {
		kids := make([]any, len(children))
		for i, c := range children {
			kids[i] = spanTree(c, includeWall)
		}
		m["children"] = kids
	}
	return m
}

// OpName derives a span kind from an operator's concrete type, e.g.
// "*exec.MemScan" -> "MemScan". It allocates; call it only when a span will
// actually be created.
func OpName(v any) string {
	s := fmt.Sprintf("%T", v)
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
