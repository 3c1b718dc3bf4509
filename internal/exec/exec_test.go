package exec

import (
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

var pairSchema = tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))

func pairs(vals ...int64) []tuple.Tuple {
	if len(vals)%2 != 0 {
		panic("pairs wants an even number of values")
	}
	out := make([]tuple.Tuple, 0, len(vals)/2)
	for i := 0; i < len(vals); i += 2 {
		out = append(out, pairSchema.MustMake(vals[i], vals[i+1]))
	}
	return out
}

func rows(t *testing.T, op Operator) [][2]int64 {
	t.Helper()
	ts, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]int64, len(ts))
	s := op.Schema()
	for i, tp := range ts {
		out[i] = [2]int64{s.Int64(tp, 0), s.Int64(tp, 1)}
	}
	return out
}

func TestMemScanAndDrain(t *testing.T) {
	m := NewMemScan(pairSchema, pairs(1, 2, 3, 4, 5, 6))
	n, err := Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Drain = %d, want 3", n)
	}
	if _, err := m.Next(); err == nil {
		t.Error("Next after Close should fail")
	}
}

func TestTableScan(t *testing.T) {
	dev := disk.NewDevice("t", 256)
	pool := buffer.New(1 << 16)
	f := storage.NewFile(pool, dev, pairSchema, "r")
	if err := f.Load(pairs(1, 10, 2, 20, 3, 30)); err != nil {
		t.Fatal(err)
	}
	got := rows(t, NewTableScan(f, true))
	want := [][2]int64{{1, 10}, {2, 20}, {3, 30}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFilterProject(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(1, 10, 2, 20, 3, 30, 4, 40))
	f := NewFilter(in, func(tp tuple.Tuple) bool { return pairSchema.Int64(tp, 0)%2 == 0 })
	p := NewProject(f, []int{1})
	ts, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d tuples", len(ts))
	}
	s := p.Schema()
	if s.Int64(ts[0], 0) != 20 || s.Int64(ts[1], 0) != 40 {
		t.Errorf("projection wrong: %v %v", s.Row(ts[0]), s.Row(ts[1]))
	}
	if s.NumFields() != 1 || s.Field(0).Name != "b" {
		t.Errorf("projected schema = %s", s)
	}
}

func TestMaterializeRescannable(t *testing.T) {
	dev := disk.NewDevice("t", 256)
	pool := buffer.New(1 << 16)
	f := storage.NewFile(pool, dev, pairSchema, "mat")
	m := NewMaterialize(NewMemScan(pairSchema, pairs(5, 50, 6, 60)), f, nil)
	got := rows(t, m)
	if len(got) != 2 || got[0] != [2]int64{5, 50} {
		t.Errorf("Materialize pass = %v", got)
	}
	if f.NumRecords() != 2 {
		t.Errorf("backing file has %d records", f.NumRecords())
	}
	// The file outlives the operator and can be rescanned.
	got2 := rows(t, NewTableScan(f, true))
	if len(got2) != 2 {
		t.Errorf("rescan = %v", got2)
	}
}

func sortTestEnv() (*buffer.Pool, *disk.Device) {
	return buffer.New(1 << 20), disk.NewDevice("runs", disk.PaperRunPageSize)
}

func TestSortInMemory(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(3, 1, 1, 2, 2, 3))
	s := NewSort(in, SortConfig{Keys: []int{0}, MemoryBytes: 1 << 20})
	got := rows(t, s)
	want := [][2]int64{{1, 2}, {2, 3}, {3, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
	if s.SpilledRuns() != 0 {
		t.Errorf("in-memory sort spilled %d runs", s.SpilledRuns())
	}
}

func TestSortExternalSpills(t *testing.T) {
	pool, dev := sortTestEnv()
	const n = 2000
	rng := rand.New(rand.NewSource(3))
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = pairSchema.MustMake(rng.Int63n(10000), int64(i))
	}
	// 512-byte budget = 32 tuples per run: forces many runs and multiple
	// merge passes (fan-in is clamped to 2 because budget < page size).
	s := NewSort(NewMemScan(pairSchema, in), SortConfig{
		Keys: []int{0}, MemoryBytes: 512, Pool: pool, TempDev: dev,
	})
	got := rows(t, s)
	if s.SpilledRuns() == 0 {
		t.Fatal("expected external sort to spill")
	}
	if len(got) != n {
		t.Fatalf("lost tuples: %d of %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i][0] < got[i-1][0] {
			t.Fatalf("not sorted at %d: %v > %v", i, got[i-1], got[i])
		}
	}
	// Sorted stably by second column within equal keys? Not guaranteed
	// across runs; only verify multiset preservation.
	seen := make(map[int64]int)
	for _, r := range got {
		seen[r[1]]++
	}
	if len(seen) != n {
		t.Error("external sort duplicated or dropped payloads")
	}
}

func TestSortMinorKeys(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(1, 3, 2, 1, 1, 1, 2, 3, 1, 2))
	s := NewSort(in, SortConfig{Keys: []int{0, 1}})
	got := rows(t, s)
	want := [][2]int64{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}

func TestSortDedup(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(2, 9, 1, 8, 2, 7, 1, 6, 3, 5))
	s := NewSort(in, SortConfig{Keys: []int{0}, Dedup: true})
	got := rows(t, s)
	if len(got) != 3 {
		t.Fatalf("dedup kept %d tuples: %v", len(got), got)
	}
	for i, want := range []int64{1, 2, 3} {
		if got[i][0] != want {
			t.Errorf("key %d = %d", i, got[i][0])
		}
	}
}

func TestSortDedupExternal(t *testing.T) {
	pool, dev := sortTestEnv()
	var in []tuple.Tuple
	for i := 0; i < 500; i++ {
		in = append(in, pairSchema.MustMake(int64(i%50), int64(i)))
	}
	s := NewSort(NewMemScan(pairSchema, in), SortConfig{
		Keys: []int{0}, Dedup: true, MemoryBytes: 256, Pool: pool, TempDev: dev,
	})
	got := rows(t, s)
	if len(got) != 50 {
		t.Fatalf("external dedup kept %d, want 50", len(got))
	}
	// Early duplicate elimination: intermediate runs should already be
	// duplicate-free, so spilled pages stay small.
	if s.SpilledRuns() == 0 {
		t.Error("expected spills")
	}
}

func TestSortCountsComparisons(t *testing.T) {
	var c Counters
	in := NewMemScan(pairSchema, pairs(3, 0, 1, 0, 2, 0))
	s := NewSort(in, SortConfig{Keys: []int{0}, Counters: &c})
	if _, err := Collect(s); err != nil {
		t.Fatal(err)
	}
	if c.Comp == 0 {
		t.Error("sort did not count comparisons")
	}
}

func TestSortEmptyInput(t *testing.T) {
	s := NewSort(NewMemScan(pairSchema, nil), SortConfig{Keys: []int{0}})
	got := rows(t, s)
	if len(got) != 0 {
		t.Errorf("empty sort = %v", got)
	}
}

func TestSortWithoutTempDevErrors(t *testing.T) {
	var in []tuple.Tuple
	for i := 0; i < 100; i++ {
		in = append(in, pairSchema.MustMake(int64(i), 0))
	}
	s := NewSort(NewMemScan(pairSchema, in), SortConfig{Keys: []int{0}, MemoryBytes: 64})
	if err := s.Open(); err == nil {
		s.Close()
		t.Fatal("expected error for spill without temp device")
	}
}

func TestMergeSemiJoin(t *testing.T) {
	left := NewMemScan(pairSchema, pairs(1, 0, 2, 0, 3, 0, 4, 0))
	rs := tuple.NewSchema(tuple.Int64Field("k"))
	right := NewMemScan(rs, []tuple.Tuple{rs.MustMake(2), rs.MustMake(2), rs.MustMake(4), rs.MustMake(5)})
	j := NewMergeSemiJoin(left, right, []int{0}, []int{0}, nil)
	got := rows(t, j)
	if len(got) != 2 || got[0][0] != 2 || got[1][0] != 4 {
		t.Errorf("semi join = %v", got)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	empty := NewMemScan(pairSchema, nil)
	full := NewMemScan(pairSchema, pairs(1, 1))
	if got := rows(t, NewMergeSemiJoin(empty, full, []int{0}, []int{0}, nil)); len(got) != 0 {
		t.Errorf("join with empty left = %v", got)
	}
	empty2 := NewMemScan(pairSchema, nil)
	full2 := NewMemScan(pairSchema, pairs(1, 1))
	if got := rows(t, NewMergeSemiJoin(full2, empty2, []int{0}, []int{0}, nil)); len(got) != 0 {
		t.Errorf("join with empty right = %v", got)
	}
}

func TestHashSemiJoin(t *testing.T) {
	probe := NewMemScan(pairSchema, pairs(1, 0, 2, 0, 3, 0, 2, 1))
	bs := tuple.NewSchema(tuple.Int64Field("k"))
	build := NewMemScan(bs, []tuple.Tuple{bs.MustMake(2), bs.MustMake(9)})
	j := NewHashSemiJoin(probe, build, []int{0}, []int{0}, nil)
	got := rows(t, j)
	if len(got) != 2 || got[0][0] != 2 || got[1][0] != 2 {
		t.Errorf("hash semi join = %v", got)
	}
}

func TestHashSemiJoinEmptySides(t *testing.T) {
	empty := NewMemScan(pairSchema, nil)
	full := NewMemScan(pairSchema, pairs(1, 1))
	if got := rows(t, NewHashSemiJoin(empty, full, []int{0}, []int{0}, nil)); len(got) != 0 {
		t.Errorf("join with empty probe = %v", got)
	}
	empty2 := NewMemScan(pairSchema, nil)
	full2 := NewMemScan(pairSchema, pairs(1, 1))
	if got := rows(t, NewHashSemiJoin(full2, empty2, []int{0}, []int{0}, nil)); len(got) != 0 {
		t.Errorf("join with empty build = %v", got)
	}
}

// TestHashSemiJoinMatchesMergeSemiJoin: over duplicate keys on both sides,
// the hash semi-join of unsorted inputs emits the same multiset of outer
// tuples as the merge semi-join of the sorted inputs.
func TestHashSemiJoinMatchesMergeSemiJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var left, right []tuple.Tuple
	for i := 0; i < 300; i++ {
		left = append(left, pairSchema.MustMake(rng.Int63n(40), int64(i)))
		if i%5 == 0 {
			right = append(right, pairSchema.MustMake(rng.Int63n(80), int64(1000+i)))
		}
	}
	sortTuples := func(ts []tuple.Tuple) []tuple.Tuple {
		out := append([]tuple.Tuple(nil), ts...)
		sort.Slice(out, func(i, j int) bool { return pairSchema.CompareAll(out[i], out[j]) < 0 })
		return out
	}
	mj := NewMergeSemiJoin(
		NewMemScan(pairSchema, sortTuples(left)),
		NewMemScan(pairSchema, sortTuples(right)),
		[]int{0}, []int{0}, nil)
	hj := NewHashSemiJoin(
		NewMemScan(pairSchema, left),
		NewMemScan(pairSchema, right),
		[]int{0}, []int{0}, nil)

	canon := func(op Operator) map[[2]int64]int {
		m := make(map[[2]int64]int)
		for _, r := range rows(t, op) {
			m[r]++
		}
		return m
	}
	a, b := canon(mj), canon(hj)
	if len(a) == 0 || len(a) == len(left) {
		t.Fatalf("instance tests nothing: %d of %d outer tuples match", len(a), len(left))
	}
	if len(a) != len(b) {
		t.Fatalf("semi-join results differ in size: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("tuple %v: merge=%d hash=%d", k, v, b[k])
		}
	}
}

func TestSortedGroupCount(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(1, 5, 1, 6, 2, 7, 3, 8, 3, 9, 3, 10))
	g := NewSortedGroupCount(in, []int{0}, false, nil)
	got := rows(t, g)
	want := [][2]int64{{1, 2}, {2, 1}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
	if g.Schema().Field(1).Name != CountColumn {
		t.Errorf("count column named %q", g.Schema().Field(1).Name)
	}
}

func TestSortedGroupCountDistinct(t *testing.T) {
	// Duplicated (1,5) must count once with distinct, twice without.
	in := pairs(1, 5, 1, 5, 1, 6, 2, 7, 2, 7)
	g := NewSortedGroupCount(NewMemScan(pairSchema, in), []int{0}, true, nil)
	got := rows(t, g)
	if len(got) != 2 || got[0] != [2]int64{1, 2} || got[1] != [2]int64{2, 1} {
		t.Errorf("distinct count = %v", got)
	}
}

func TestSortedGroupCountEmpty(t *testing.T) {
	g := NewSortedGroupCount(NewMemScan(pairSchema, nil), []int{0}, false, nil)
	if got := rows(t, g); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestHashGroupCountEmpty(t *testing.T) {
	g := NewHashGroupCount(NewMemScan(pairSchema, nil), []int{0}, 4, 2, nil)
	if got := rows(t, g); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
}

// Property: the grouped counts of the hash and the sorted operator, and the
// sorted operator's distinct counts, equal a map model's on arbitrary
// inputs with duplicate rows.
func TestQuickGroupCountsMatchModel(t *testing.T) {
	type model struct{ count, distinct map[int64]int64 }
	instance := func(raw []byte) ([]tuple.Tuple, model) {
		in := make([]tuple.Tuple, 0, len(raw)/2)
		m := model{map[int64]int64{}, map[int64]int64{}}
		seen := make(map[[2]int64]bool)
		for i := 0; i+1 < len(raw); i += 2 {
			g, v := int64(raw[i]%8), int64(raw[i+1]%4)
			in = append(in, pairSchema.MustMake(g, v))
			m.count[g]++
			if !seen[[2]int64{g, v}] {
				seen[[2]int64{g, v}] = true
				m.distinct[g]++
			}
		}
		return in, m
	}
	sorted := func(in []tuple.Tuple) []tuple.Tuple {
		out := append([]tuple.Tuple(nil), in...)
		sort.Slice(out, func(i, j int) bool { return pairSchema.CompareAll(out[i], out[j]) < 0 })
		return out
	}
	for _, tc := range []struct {
		name string
		op   func(in []tuple.Tuple) Operator
		want func(model) map[int64]int64
	}{
		{"hash", func(in []tuple.Tuple) Operator {
			return NewHashGroupCount(NewMemScan(pairSchema, in), []int{0}, 0, 2, nil)
		}, func(m model) map[int64]int64 { return m.count }},
		{"sorted", func(in []tuple.Tuple) Operator {
			return NewSortedGroupCount(NewMemScan(pairSchema, sorted(in)), []int{0}, false, nil)
		}, func(m model) map[int64]int64 { return m.count }},
		{"sorted-distinct", func(in []tuple.Tuple) Operator {
			return NewSortedGroupCount(NewMemScan(pairSchema, sorted(in)), []int{0}, true, nil)
		}, func(m model) map[int64]int64 { return m.distinct }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(raw []byte) bool {
				in, m := instance(raw)
				op := tc.op(in)
				ts, err := Collect(op)
				want := tc.want(m)
				if err != nil || len(ts) != len(want) {
					return false
				}
				s := op.Schema()
				for _, tp := range ts {
					if n, ok := want[s.Int64(tp, 0)]; !ok || s.Int64(tp, 1) != n {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestHashGroupCountMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in []tuple.Tuple
	for i := 0; i < 1000; i++ {
		in = append(in, pairSchema.MustMake(rng.Int63n(30), int64(i)))
	}
	sorted := append([]tuple.Tuple(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return pairSchema.CompareAll(sorted[i], sorted[j]) < 0 })

	sg := NewSortedGroupCount(NewMemScan(pairSchema, sorted), []int{0}, false, nil)
	hg := NewHashGroupCount(NewMemScan(pairSchema, in), []int{0}, 30, 2, nil)

	toMap := func(op Operator) map[int64]int64 {
		ts, err := Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		s := op.Schema()
		m := make(map[int64]int64)
		for _, tp := range ts {
			m[s.Int64(tp, 0)] = s.Int64(tp, 1)
		}
		return m
	}
	a, b := toMap(sg), toMap(hg)
	if len(a) != len(b) {
		t.Fatalf("group counts differ: %d vs %d groups", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("group %d: sorted=%d hash=%d", k, v, b[k])
		}
	}
}

func TestScalarCount(t *testing.T) {
	n, err := ScalarCount(NewMemScan(pairSchema, pairs(1, 1, 2, 2)))
	if err != nil || n != 2 {
		t.Errorf("ScalarCount = %d, %v", n, err)
	}
}

func TestHashDedup(t *testing.T) {
	in := NewMemScan(pairSchema, pairs(1, 1, 2, 2, 1, 1, 1, 2, 2, 2))
	d := NewHashDedup(in, nil)
	got := rows(t, d)
	if len(got) != 3 {
		t.Errorf("dedup = %v", got)
	}
}

func TestCountersFoldIntoPlan(t *testing.T) {
	var c Counters
	in := NewMemScan(pairSchema, pairs(1, 1, 1, 2, 2, 3))
	g := NewHashGroupCount(in, []int{0}, 4, 2, &c)
	if _, err := Collect(g); err != nil {
		t.Fatal(err)
	}
	if c.Hash == 0 {
		t.Error("hash aggregation did not count hashes")
	}
	cost := c.CostMS(0.03, 0.03, 0.4, 0.003)
	if cost <= 0 {
		t.Error("CostMS should be positive")
	}
}

func TestNextBeforeOpenErrors(t *testing.T) {
	ops := []Operator{
		NewTableScan(storage.NewFile(buffer.New(4096), disk.NewDevice("x", 256), pairSchema, "x"), true),
		NewMemScan(pairSchema, nil),
		NewSort(NewMemScan(pairSchema, nil), SortConfig{Keys: []int{0}}),
		NewSortedGroupCount(NewMemScan(pairSchema, nil), []int{0}, false, nil),
		NewHashGroupCount(NewMemScan(pairSchema, nil), []int{0}, 4, 2, nil),
		NewMergeSemiJoin(NewMemScan(pairSchema, nil), NewMemScan(pairSchema, nil), []int{0}, []int{0}, nil),
		NewHashSemiJoin(NewMemScan(pairSchema, nil), NewMemScan(pairSchema, nil), []int{0}, []int{0}, nil),
		NewHashDedup(NewMemScan(pairSchema, nil), nil),
		NewMaterialize(NewMemScan(pairSchema, nil), storage.NewFile(buffer.New(4096), disk.NewDevice("y", 256), pairSchema, "y"), nil),
	}
	for _, op := range ops {
		if _, err := op.Next(); err == nil || err == io.EOF {
			t.Errorf("%T.Next before Open: %v", op, err)
		}
	}
}

func BenchmarkExternalSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = pairSchema.MustMake(rng.Int63(), int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, dev := buffer.New(1<<20), disk.NewDevice("runs", disk.PaperRunPageSize)
		s := NewSort(NewMemScan(pairSchema, in), SortConfig{
			Keys: []int{0}, MemoryBytes: 16 * 1024, Pool: pool, TempDev: dev,
		})
		if _, err := Drain(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashGroupCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = pairSchema.MustMake(rng.Int63n(500), int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewHashGroupCount(NewMemScan(pairSchema, in), []int{0}, 500, 2, nil)
		if _, err := Drain(g); err != nil {
			b.Fatal(err)
		}
	}
}
