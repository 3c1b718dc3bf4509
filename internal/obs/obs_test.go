package obs

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/tuple"
)

var testSchema = tuple.NewSchema(tuple.Int64Field("v"))

func testTuples(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		t := make(tuple.Tuple, testSchema.Width())
		testSchema.SetInt64(t, 0, int64(i))
		out[i] = t
	}
	return out
}

func TestNilSpanIsInert(t *testing.T) {
	var s *Span
	if c := s.Child("x", "y"); c != nil {
		t.Fatalf("nil span Child = %v", c)
	}
	s.Record(1, 2, 3, 4, exec.Counters{Comp: 1})
	s.Notef("costly %d", 1)
	ph := s.Start(nil)
	ph.End(10)
	if s.Rows() != 0 || s.Opens() != 0 || s.Wall() != 0 {
		t.Fatal("nil span accumulated state")
	}
	if got := (exec.Counters{}); s.Counters() != got || s.SelfCounters() != got {
		t.Fatal("nil span has counters")
	}
	var tr *Tracer
	if tr.Root() != nil || tr.Profile(nil) != nil {
		t.Fatal("nil tracer not inert")
	}
}

// TestProbeZeroAllocWithoutSink is the overhead contract of ISSUE 3: with no
// sink installed (nil span), the probe hot path — Instrument at build time,
// phase start/end at run time — performs zero allocations.
func TestProbeZeroAllocWithoutSink(t *testing.T) {
	op := exec.NewMemScan(testSchema, testTuples(4))
	counters := &exec.Counters{}
	var span *Span

	if n := testing.AllocsPerRun(100, func() {
		if got := Instrument(op, span, counters); got != exec.Operator(op) {
			t.Fatal("nil-span Instrument did not return op unchanged")
		}
	}); n != 0 {
		t.Errorf("Instrument with nil span: %v allocs/run", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		ph := span.Start(counters)
		ph.End(5)
	}); n != 0 {
		t.Errorf("Phase start/end with nil span: %v allocs/run", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		span.Child("scan", "MemScan").Record(1, 1, 0, 0, exec.Counters{})
	}); n != 0 {
		t.Errorf("nil-span Child/Record: %v allocs/run", n)
	}
}

func TestProbeRecordsRowsAndDeltas(t *testing.T) {
	counters := &exec.Counters{}
	tr := NewTracer()
	scanSpan := tr.Root().Child("scan", "MemScan")
	scan := exec.NewMemScan(testSchema, testTuples(7))
	op := Instrument(scan, scanSpan, counters)
	if _, ok := op.(exec.BatchOperator); !ok {
		t.Fatal("probe over a native batch operator lost NextBatch")
	}
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("collected %d rows", len(out))
	}
	if scanSpan.Rows() != 7 {
		t.Errorf("span rows = %d, want 7", scanSpan.Rows())
	}
	if scanSpan.Opens() != 1 {
		t.Errorf("span opens = %d, want 1", scanSpan.Opens())
	}
}

func TestBatchProbeCountsBatches(t *testing.T) {
	tr := NewTracer()
	span := tr.Root().Child("scan", "MemScan")
	scan := exec.NewMemScan(testSchema, testTuples(10))
	op := Instrument(scan, span, nil)
	bop, ok := exec.NativeBatch(op)
	if !ok {
		t.Fatal("NativeBatch discovery broken by probe")
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	b := exec.NewBatch(testSchema, 4)
	defer b.Release()
	var rows int64
	for {
		err := bop.NextBatch(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += int64(b.Len())
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("streamed %d rows", rows)
	}
	if span.Rows() != 10 || span.Batches() != 3 {
		t.Errorf("span rows=%d batches=%d, want 10 and 3", span.Rows(), span.Batches())
	}
}

// TestTupleProbeHidesBatchProtocol: probing a tuple-only operator must not
// invent a batch capability, or downstream NativeBatch discovery would change
// the execution path under profiling.
func TestTupleProbeHidesBatchProtocol(t *testing.T) {
	tr := NewTracer()
	scan := exec.Opaque(exec.NewMemScan(testSchema, testTuples(3)))
	op := Instrument(scan, tr.Root().Child("scan", "opaque"), nil)
	if _, ok := exec.NativeBatch(op); ok {
		t.Fatal("probe added a batch protocol to a tuple-only operator")
	}
}

func TestSelfCountersAndSumSelf(t *testing.T) {
	tr := NewTracer()
	parent := tr.Root().Child("sort", "Sort")
	child := parent.Child("scan", "MemScan")
	child.Record(1, 5, 0, 0, exec.Counters{Comp: 3, Move: 2})
	parent.Record(1, 5, 0, 0, exec.Counters{Comp: 10, Move: 2}) // inclusive of child
	total := exec.Counters{Comp: 10, Move: 2}
	prof := tr.Profile(&total)
	if got := parent.SelfCounters(); got != (exec.Counters{Comp: 7}) {
		t.Errorf("parent self = %+v", got)
	}
	if got := prof.SumSelf(); got != total {
		t.Errorf("sum of selves = %+v, want %+v", got, total)
	}
	if prof.Root.SelfCounters() != (exec.Counters{}) {
		t.Errorf("root self = %+v, want zero", prof.Root.SelfCounters())
	}
}

func TestProfileFormatAndTree(t *testing.T) {
	tr := NewTracer()
	span := tr.Root().Child("hash-division", "HashDivision")
	span.Record(1, 42, 2, 1000, exec.Counters{Hash: 9})
	span.Notef("divisor table: %d entries", 4)
	total := exec.Counters{Hash: 9}
	prof := tr.Profile(&total)

	text := prof.Format()
	for _, want := range []string{"total: comp=0 hash=9", "hash-division", "rows=42", "batches=2", "divisor table: 4 entries"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}

	tree := prof.Tree(false)
	if tree["name"] != "query" {
		t.Errorf("tree root = %v", tree["name"])
	}
	if _, ok := tree["wall_ns"]; ok {
		t.Error("wall time present with includeWall=false")
	}
	kids := tree["children"].([]any)
	if len(kids) != 1 {
		t.Fatalf("tree children = %d", len(kids))
	}
	kid := kids[0].(map[string]any)
	if _, ok := kid["wall_ns"]; ok {
		t.Error("child wall time present with includeWall=false")
	}
	withWall := prof.Tree(true)
	if _, ok := withWall["wall_ns"]; !ok {
		t.Error("wall time missing with includeWall=true")
	}
}

func TestOpName(t *testing.T) {
	if got := OpName(exec.NewMemScan(testSchema, nil)); got != "MemScan" {
		t.Errorf("OpName = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	r.Counter("b").Add(5)
	if got := r.Get("a"); got != 3 {
		t.Errorf("a = %d", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Errorf("missing = %d", got)
	}
	snap := r.Snapshot()
	if snap["a"] != 3 || snap["b"] != 5 {
		t.Errorf("snapshot = %v", snap)
	}
	var order []string
	r.Do(func(name string, v int64) { order = append(order, name) })
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("Do order = %v", order)
	}
}

func TestCounterSetMax(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("depth")
	c.SetMax(3)
	if got := c.Load(); got != 3 {
		t.Fatalf("after SetMax(3): %d", got)
	}
	c.SetMax(1) // lower value must not regress the high-water mark
	if got := c.Load(); got != 3 {
		t.Fatalf("after SetMax(1): %d", got)
	}
	c.SetMax(7)
	if got := c.Load(); got != 7 {
		t.Fatalf("after SetMax(7): %d", got)
	}

	// Concurrent racers: the gauge must end at the global maximum.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SetMax(int64(i*100 + j))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 799 {
		t.Fatalf("concurrent SetMax high-water = %d, want 799", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Get("hits"); got != 800 {
		t.Errorf("hits = %d", got)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer()
	parent := tr.Root().Child("parallel", "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w := parent.Child("worker", "worker")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				w.Record(0, 1, 0, 0, exec.Counters{})
			}
		}()
	}
	wg.Wait()
	var rows int64
	for _, c := range parent.Children() {
		rows += c.Rows()
	}
	if rows != 400 {
		t.Errorf("worker rows = %d", rows)
	}
}
