package exec

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// SortConfig parameterizes a Sort operator.
type SortConfig struct {
	// Keys are the sort key columns, major to minor.
	Keys []int
	// MemoryBytes bounds the in-memory run size (the paper's 100 KB sort
	// space). Inputs below the bound sort entirely in memory.
	MemoryBytes int
	// Dedup drops tuples whose keys equal the previous tuple's keys,
	// keeping the first — the paper's duplicate elimination "during the
	// initial sort phase" (no intermediate run contains duplicate keys).
	Dedup bool
	// Pool and TempDev host spilled runs. They may be nil when the caller
	// guarantees the input fits in MemoryBytes.
	Pool    *buffer.Pool
	TempDev disk.Dev
	// Counters, when non-nil, accumulate comparison and move counts.
	Counters *Counters
}

// Sort is the external merge sort operator. Open sorts initial runs with
// quicksort and merges until one merge step remains; the final merge happens
// on demand in Next — exactly the staging the paper's footnote 2 describes.
type Sort struct {
	input  Operator
	cfg    SortConfig
	schema *tuple.Schema

	// In-memory result path.
	mem    []tuple.Tuple
	memPos int
	inMem  bool

	// External path.
	runs    []*storage.File
	merge   *mergeState
	pending tuple.Tuple

	opened bool
	runSeq int

	// peakBytes is the high-water mark of tuple bytes buffered for run
	// formation — the witness that the sort stayed within its governed
	// memory grant (see PeakMemoryBytes).
	peakBytes int

	// cmp is the comparator compiled for the sort keys at construction,
	// the paper's "functions ... compiled prior to execution and passed to
	// the processing algorithms by means of pointers" (§5.1).
	cmp func(a, b tuple.Tuple) int
}

// NewSort sorts input according to cfg.
func NewSort(input Operator, cfg SortConfig) *Sort {
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = buffer.PaperSortBytes
	}
	return &Sort{
		input:  input,
		cfg:    cfg,
		schema: input.Schema(),
		cmp:    input.Schema().CompareFunc(cfg.Keys),
	}
}

// Schema implements Operator.
func (s *Sort) Schema() *tuple.Schema { return s.schema }

func (s *Sort) compare(a, b tuple.Tuple) int {
	if s.cfg.Counters != nil {
		s.cfg.Counters.Comp++
	}
	return s.cmp(a, b)
}

// reduceSorted applies Dedup to a sorted slice in place and returns the
// reduced prefix.
func (s *Sort) reduceSorted(ts []tuple.Tuple) []tuple.Tuple {
	if !s.cfg.Dedup || len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if s.compare(out[len(out)-1], t) != 0 {
			out = append(out, t)
		}
	}
	return out
}

func (s *Sort) sortRun(ts []tuple.Tuple) []tuple.Tuple {
	sort.SliceStable(ts, func(i, j int) bool { return s.compare(ts[i], ts[j]) < 0 })
	return s.reduceSorted(ts)
}

func (s *Sort) spillRun(ts []tuple.Tuple) error {
	if s.cfg.Pool == nil || s.cfg.TempDev == nil {
		return errors.New("exec: Sort input exceeds MemoryBytes but no temp device configured")
	}
	f := storage.NewSpillFile(s.cfg.Pool, s.cfg.TempDev, s.schema, fmt.Sprintf("sortrun-%d", s.runSeq))
	s.runSeq++
	err := f.Load(ts)
	if err == nil {
		err = f.Flush()
	}
	if err != nil {
		f.Drop() // not yet in s.runs; Close would never reclaim it
		return err
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.Move += int64(f.NumPages())
	}
	s.runs = append(s.runs, f)
	return nil
}

// fanIn is how many runs one merge step can consume: one input page per run
// within the memory budget, minus an output page.
func (s *Sort) fanIn() int {
	ps := s.cfg.TempDev.PageSize()
	f := s.cfg.MemoryBytes/ps - 1
	if f < 2 {
		f = 2
	}
	return f
}

// formRuns consumes the input, sorting it in memory when it fits and
// spilling quicksorted runs of one memory load otherwise. It reports whether
// anything spilled.
func (s *Sort) formRuns(maxTuples int) (spilled bool, err error) {
	width := s.schema.Width()
	var cur []tuple.Tuple
	for {
		t, err := s.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return spilled, err
		}
		cur = append(cur, t.Clone())
		if b := len(cur) * width; b > s.peakBytes {
			s.peakBytes = b
		}
		if len(cur) >= maxTuples {
			if err := s.spillRun(s.sortRun(cur)); err != nil {
				return spilled, err
			}
			cur = nil
			spilled = true
		}
	}
	if !spilled {
		s.mem = s.sortRun(cur)
		s.memPos = 0
		s.inMem = true
		return false, nil
	}
	if len(cur) > 0 {
		if err := s.spillRun(s.sortRun(cur)); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Open implements Operator: consume the input, create sorted runs, and merge
// until at most one merge step remains.
func (s *Sort) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	width := s.schema.Width()
	maxTuples := s.cfg.MemoryBytes / width
	if maxTuples < 1 {
		maxTuples = 1
	}
	// Callers are not required to Close an operator whose Open failed, so
	// every error exit below this point must release the run files itself.
	fail := func(err error) error {
		for _, r := range s.runs {
			r.Drop()
		}
		s.runs = nil
		return err
	}

	spilled, err := s.formRuns(maxTuples)
	if cerr := s.input.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if !spilled {
		s.opened = true
		return nil
	}

	// Intermediate merge passes until the final merge fits one step.
	fan := s.fanIn()
	for len(s.runs) > fan {
		batch := s.runs[:fan]
		rest := s.runs[fan:]
		merged, err := s.mergeToFile(batch)
		if err != nil {
			return fail(err)
		}
		// Hand merged to s.runs before dropping the batch, so a failed drop
		// leaves everything still reclaimable.
		s.runs = append(rest, merged)
		var dropErr error
		for _, r := range batch {
			if err := r.Drop(); err != nil && dropErr == nil {
				dropErr = err
			}
		}
		if dropErr != nil {
			return fail(dropErr)
		}
	}

	m, err := s.newMergeState(s.runs)
	if err != nil {
		return fail(err)
	}
	s.merge = m
	s.opened = true
	return nil
}

// mergeToFile merges runs into one new run file.
func (s *Sort) mergeToFile(runs []*storage.File) (*storage.File, error) {
	m, err := s.newMergeState(runs)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := storage.NewSpillFile(s.cfg.Pool, s.cfg.TempDev, s.schema, fmt.Sprintf("sortrun-%d", s.runSeq))
	s.runSeq++
	ap := out.NewAppender()
	fail := func(err error) (*storage.File, error) {
		out.Drop() // not yet in s.runs; Close would never reclaim it
		return nil, err
	}
	for {
		t, err := s.nextMerged(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			ap.Close()
			return fail(err)
		}
		if _, err := ap.Append(t); err != nil {
			ap.Close()
			return fail(err)
		}
	}
	if err := ap.Close(); err != nil {
		return fail(err)
	}
	if err := out.Flush(); err != nil {
		return fail(err)
	}
	if s.cfg.Counters != nil {
		s.cfg.Counters.Move += int64(out.NumPages())
	}
	return out, nil
}

// mergeState is a k-way merge over run scanners with a binary heap.
type mergeState struct {
	s       *Sort
	cursors []*runCursor
	h       cursorHeap
}

type runCursor struct {
	sc    *storage.Scanner
	cur   tuple.Tuple
	index int
}

type cursorHeap struct {
	m    *mergeState
	curs []*runCursor
}

func (h cursorHeap) Len() int { return len(h.curs) }
func (h cursorHeap) Less(i, j int) bool {
	c := h.m.s.compare(h.curs[i].cur, h.curs[j].cur)
	if c != 0 {
		return c < 0
	}
	return h.curs[i].index < h.curs[j].index // stability across runs
}
func (h cursorHeap) Swap(i, j int) { h.curs[i], h.curs[j] = h.curs[j], h.curs[i] }
func (h *cursorHeap) Push(x any)   { h.curs = append(h.curs, x.(*runCursor)) }
func (h *cursorHeap) Pop() any {
	old := h.curs
	n := len(old)
	x := old[n-1]
	h.curs = old[:n-1]
	return x
}

func (s *Sort) newMergeState(runs []*storage.File) (*mergeState, error) {
	m := &mergeState{s: s}
	m.h.m = m
	// Stage the head page of every run before opening the cursors: the merge
	// will touch all of them immediately, and issuing the reads together
	// overlaps their device latency. Each run cursor then keeps its own
	// read-ahead going as it advances.
	for _, r := range runs {
		r.PrefetchPages(0, 1)
	}
	for i, r := range runs {
		rc := &runCursor{sc: r.Scan(false), index: i}
		t, _, err := rc.sc.Next()
		if err == io.EOF {
			rc.sc.Close()
			continue
		}
		if err != nil {
			m.close()
			return nil, err
		}
		rc.cur = t.Clone()
		m.cursors = append(m.cursors, rc)
		m.h.curs = append(m.h.curs, rc)
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *mergeState) close() {
	for _, c := range m.cursors {
		c.sc.Close()
	}
	m.cursors = nil
	m.h.curs = nil
}

// nextRaw pops the globally smallest tuple from the merge heap.
func (m *mergeState) nextRaw() (tuple.Tuple, error) {
	if m.h.Len() == 0 {
		return nil, io.EOF
	}
	top := m.h.curs[0]
	out := top.cur
	t, _, err := top.sc.Next()
	if err == io.EOF {
		heap.Pop(&m.h)
		top.sc.Close()
	} else if err != nil {
		return nil, err
	} else {
		top.cur = t.Clone()
		heap.Fix(&m.h, 0)
	}
	return out, nil
}

// nextMerged applies Dedup across run boundaries using a pending tuple.
func (s *Sort) nextMerged(m *mergeState) (tuple.Tuple, error) {
	if !s.cfg.Dedup {
		return m.nextRaw()
	}
	for {
		t, err := m.nextRaw()
		if err == io.EOF {
			if s.pending != nil {
				out := s.pending
				s.pending = nil
				return out, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if s.pending == nil {
			s.pending = t
			continue
		}
		if s.compare(s.pending, t) == 0 {
			continue
		}
		out := s.pending
		s.pending = t
		return out, nil
	}
}

// Next implements Operator.
func (s *Sort) Next() (tuple.Tuple, error) {
	if !s.opened {
		return nil, errNotOpen("Sort")
	}
	if s.inMem {
		if s.memPos >= len(s.mem) {
			return nil, io.EOF
		}
		t := s.mem[s.memPos]
		s.memPos++
		return t, nil
	}
	return s.nextMerged(s.merge)
}

// Close implements Operator.
func (s *Sort) Close() error {
	if s.merge != nil {
		s.merge.close()
		s.merge = nil
	}
	var firstErr error
	for _, r := range s.runs {
		if err := r.Drop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	s.mem = nil
	s.pending = nil
	s.opened = false
	return firstErr
}

// SpilledRuns reports how many run files the sort created (0 for in-memory
// sorts), for tests and diagnostics.
func (s *Sort) SpilledRuns() int { return s.runSeq }

// PeakMemoryBytes reports the high-water mark of tuple bytes the sort
// buffered in memory for run formation. An input larger than MemoryBytes
// spills instead of growing the buffer, so the peak never exceeds the
// configured budget by more than one tuple — the regression witness that a
// governed sort stays within its admission grant instead of silently
// reverting to the fixed paper sort space.
func (s *Sort) PeakMemoryBytes() int { return s.peakBytes }
