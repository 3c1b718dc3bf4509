package hashtab

import (
	"testing"
	"testing/quick"

	"repro/internal/bitmap"
	"repro/internal/tuple"
)

func keySchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Int64Field("k"))
}

func TestInsertLookup(t *testing.T) {
	s := keySchema()
	tab := New(s, 8)
	for v := 0; v < 100; v++ {
		e, _ := tab.GetOrInsert(s.MustMake(v))
		e.Num = int64(v * 10)
	}
	if tab.Len() != 100 {
		t.Errorf("Len = %d, want 100", tab.Len())
	}
	for v := 0; v < 100; v++ {
		e := tab.Lookup(s.MustMake(v))
		if e == nil {
			t.Fatalf("Lookup(%d) = nil", v)
		}
		if e.Num != int64(v*10) {
			t.Errorf("Lookup(%d).Num = %d", v, e.Num)
		}
	}
	if tab.Lookup(s.MustMake(999)) != nil {
		t.Error("Lookup(missing) should be nil")
	}
}

func TestInsertClonesKey(t *testing.T) {
	s := keySchema()
	tab := New(s, 4)
	k := s.MustMake(7)
	tab.GetOrInsert(k)
	s.SetInt64(k, 0, 8) // mutate caller's tuple
	if tab.Lookup(s.MustMake(7)) == nil {
		t.Error("table aliased caller's tuple instead of cloning")
	}
}

func TestGetOrInsertDeduplicates(t *testing.T) {
	s := keySchema()
	tab := New(s, 4)
	e1, created := tab.GetOrInsert(s.MustMake(5))
	if !created {
		t.Error("first GetOrInsert should create")
	}
	e1.Num = 42
	e2, created := tab.GetOrInsert(s.MustMake(5))
	if created {
		t.Error("second GetOrInsert should find")
	}
	if e2 != e1 || e2.Num != 42 {
		t.Error("GetOrInsert returned a different element")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestLookupProjected(t *testing.T) {
	// Dividend (student, course); divisor table stores course keys only.
	div := tuple.NewSchema(tuple.Int64Field("student"), tuple.Int64Field("course"))
	course := tuple.NewSchema(tuple.Int64Field("course"))
	tab := New(course, 4)
	for i, c := range []int{101, 102} {
		e, _ := tab.GetOrInsert(course.MustMake(c))
		e.Num = int64(i)
	}

	d := div.MustMake(1, 102)
	e := tab.LookupProjected(d, div, []int{1})
	if e == nil || e.Num != 1 {
		t.Fatalf("LookupProjected = %v", e)
	}
	miss := div.MustMake(1, 999)
	if tab.LookupProjected(miss, div, []int{1}) != nil {
		t.Error("LookupProjected should miss for unknown course")
	}
}

func TestGetOrInsertProjected(t *testing.T) {
	div := tuple.NewSchema(tuple.Int64Field("student"), tuple.Int64Field("course"))
	quot := div.Project([]int{0})
	tab := New(quot, 4)

	d1 := div.MustMake(1, 101)
	d2 := div.MustMake(1, 102)
	d3 := div.MustMake(2, 101)

	e1, created := tab.GetOrInsertProjected(d1, div, []int{0})
	if !created {
		t.Error("first projected insert should create")
	}
	e2, created := tab.GetOrInsertProjected(d2, div, []int{0})
	if created || e2 != e1 {
		t.Error("same student should map to same quotient candidate")
	}
	_, created = tab.GetOrInsertProjected(d3, div, []int{0})
	if !created {
		t.Error("new student should create")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	// The stored tuple is the projection.
	if got := quot.Int64(e1.Tuple, 0); got != 1 {
		t.Errorf("stored quotient key = %d, want 1", got)
	}
}

func TestIterateVisitsAll(t *testing.T) {
	s := keySchema()
	tab := New(s, 4)
	for v := 0; v < 50; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	seen := make(map[int64]bool)
	err := tab.Iterate(func(e *Element) error {
		seen[s.Int64(e.Tuple, 0)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Errorf("Iterate visited %d distinct, want 50", len(seen))
	}
}

func TestGrowthKeepsElements(t *testing.T) {
	s := keySchema()
	tab := New(s, 1)
	tab.SetMaxLoad(2)
	for v := 0; v < 1000; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	if tab.NumBuckets() <= 1 {
		t.Error("table did not grow")
	}
	if tab.LoadFactor() > 2.01 {
		t.Errorf("load factor %.2f exceeds max", tab.LoadFactor())
	}
	for v := 0; v < 1000; v++ {
		if tab.Lookup(s.MustMake(v)) == nil {
			t.Fatalf("lost key %d after growth", v)
		}
	}
}

func TestFixedGeometry(t *testing.T) {
	s := keySchema()
	tab := New(s, 3)
	tab.SetMaxLoad(0)
	for v := 0; v < 100; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	if tab.NumBuckets() != 3 {
		t.Errorf("fixed table grew to %d buckets", tab.NumBuckets())
	}
}

func TestStatsCount(t *testing.T) {
	s := keySchema()
	tab := New(s, 1) // single bucket: comparisons are predictable
	tab.SetMaxLoad(0)
	tab.GetOrInsert(s.MustMake(1)) // 1 hash, empty chain
	tab.GetOrInsert(s.MustMake(2)) // 1 hash + 1 comparison (against 1)
	tab.Lookup(s.MustMake(2))      // 1 hash + 1 comparison (2 is at chain head)
	st := tab.Stats()
	if st.Hashes != 3 {
		t.Errorf("Hashes = %d, want 3", st.Hashes)
	}
	if st.Comparisons != 2 {
		t.Errorf("Comparisons = %d, want 2", st.Comparisons)
	}
}

func TestMemBytesGrowsWithBitmaps(t *testing.T) {
	s := keySchema()
	tab := New(s, 4)
	base := tab.MemBytes()
	e, _ := tab.GetOrInsert(s.MustMake(1))
	afterInsert := tab.MemBytes()
	if afterInsert <= base {
		t.Error("MemBytes did not grow on insert")
	}
	e.Bits = bitmap.New(1024)
	tab.AddMemBytes(e.Bits.SizeBytes())
	if tab.MemBytes() != afterInsert+128 {
		t.Errorf("MemBytes = %d, want %d", tab.MemBytes(), afterInsert+128)
	}
}

func TestReset(t *testing.T) {
	s := keySchema()
	tab := New(s, 4)
	tab.GetOrInsert(s.MustMake(1))
	tab.Reset()
	if tab.Len() != 0 || tab.Lookup(s.MustMake(1)) != nil {
		t.Error("Reset did not clear the table")
	}
}

func TestNewForExpected(t *testing.T) {
	s := keySchema()
	tab := NewForExpected(s, 100, 2)
	if tab.NumBuckets() != 51 {
		t.Errorf("NumBuckets = %d, want 51", tab.NumBuckets())
	}
	tab = NewForExpected(s, 0, 0)
	if tab.NumBuckets() < 1 {
		t.Error("degenerate sizing must still yield a bucket")
	}
}

// Property: a hash table behaves like a map for GetOrInsert counting.
func TestQuickBehavesLikeMap(t *testing.T) {
	s := keySchema()
	f := func(keys []int16) bool {
		tab := New(s, 4)
		model := make(map[int16]int64)
		for _, k := range keys {
			e, _ := tab.GetOrInsert(s.MustMake(int64(k)))
			e.Num++
			model[k]++
		}
		if tab.Len() != len(model) {
			return false
		}
		for k, want := range model {
			e := tab.Lookup(s.MustMake(int64(k)))
			if e == nil || e.Num != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetOrInsert(b *testing.B) {
	s := keySchema()
	tab := NewForExpected(s, 1000, 2)
	k := s.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetInt64(k, 0, int64(i%1000))
		tab.GetOrInsert(k)
	}
}

func BenchmarkLookupProjected(b *testing.B) {
	div := tuple.NewSchema(tuple.Int64Field("student"), tuple.Int64Field("course"))
	course := div.Project([]int{1})
	tab := NewForExpected(course, 400, 2)
	for v := 0; v < 400; v++ {
		tab.GetOrInsert(course.MustMake(v))
	}
	d := div.MustMake(1, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.LookupProjected(d, div, []int{1}) == nil {
			b.Fatal("miss")
		}
	}
}

func TestNewWithCapacityNeverGrows(t *testing.T) {
	s := keySchema()
	for _, capacity := range []int{0, 1, 10, 100, 1000} {
		tab := NewWithCapacity(s, capacity)
		buckets := tab.NumBuckets()
		for v := 0; v < capacity; v++ {
			tab.GetOrInsert(s.MustMake(v))
		}
		if got := tab.Stats().Rehashed; got != 0 {
			t.Errorf("capacity %d: Rehashed = %d, want 0", capacity, got)
		}
		if tab.NumBuckets() != buckets {
			t.Errorf("capacity %d: buckets grew %d -> %d", capacity, buckets, tab.NumBuckets())
		}
	}
}

func TestGrowChargesRehashes(t *testing.T) {
	s := keySchema()
	tab := New(s, 1) // maxLoad 4: fifth insert triggers growth
	const n = 100
	for v := 0; v < n; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	st := tab.Stats()
	if st.Rehashed == 0 {
		t.Fatal("no rehash moves recorded despite growth from 1 bucket")
	}
	// Every insert is one hash; every rehash move is one more. Nothing else
	// hashed here, so the ledger must balance exactly.
	if want := int64(n) + st.Rehashed; st.Hashes != want {
		t.Errorf("Hashes = %d, want inserts+rehashed = %d", st.Hashes, want)
	}
	// All elements must still be reachable after the rehashes.
	for v := 0; v < n; v++ {
		if tab.Lookup(s.MustMake(v)) == nil {
			t.Fatalf("Lookup(%d) = nil after growth", v)
		}
	}
}

func TestLookupPreMatchesProjected(t *testing.T) {
	src := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	cols := []int{1}
	ks := src.Project(cols)
	generic := New(ks, 8)
	pre := New(ks, 8)
	hash := src.HashFunc(cols)
	eq := src.EqualProjectedFunc(cols)
	project := func(t tuple.Tuple) tuple.Tuple { return src.ProjectTuple(t, cols) }

	for v := 0; v < 50; v++ {
		tp := src.MustMake(v, v%10)
		_, c1 := generic.GetOrInsertProjected(tp, src, cols)
		_, c2 := pre.GetOrInsertPre(hash(tp), tp, eq, project)
		if c1 != c2 {
			t.Fatalf("insert %d: created %v vs %v", v, c1, c2)
		}
	}
	for v := 0; v < 60; v++ {
		tp := src.MustMake(v, v%12)
		e1 := generic.LookupProjected(tp, src, cols)
		e2 := pre.LookupPre(hash(tp), tp, eq)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("lookup %d: generic %v, pre %v", v, e1, e2)
		}
	}
	if generic.Stats() != pre.Stats() {
		t.Errorf("stats diverged: generic %+v, pre %+v", generic.Stats(), pre.Stats())
	}
}

func TestU64ProbesMatchProjected(t *testing.T) {
	src := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	cols := []int{0}
	ks := src.Project(cols)
	generic := New(ks, 8)
	fast := New(ks, 8)

	key := func(v int) uint64 { return uint64(int64(v)) }
	for v := 0; v < 50; v++ {
		tp := src.MustMake(v%20, v)
		_, c1 := generic.GetOrInsertProjected(tp, src, cols)
		k := key(v % 20)
		_, c2 := fast.GetOrInsertU64(tuple.HashUint64LE(k), k)
		if c1 != c2 {
			t.Fatalf("insert %d: created %v vs %v", v, c1, c2)
		}
	}
	for v := 0; v < 30; v++ {
		tp := src.MustMake(v, 0)
		e1 := generic.LookupProjected(tp, src, cols)
		k := key(v)
		e2 := fast.LookupU64(tuple.HashUint64LE(k), k)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("lookup %d: generic %v, fast %v", v, e1, e2)
		}
		if e1 != nil && ks.CompareAll(e1.Tuple, e2.Tuple) != 0 {
			t.Errorf("lookup %d: stored keys differ", v)
		}
	}
	if generic.Stats() != fast.Stats() {
		t.Errorf("stats diverged: generic %+v, fast %+v", generic.Stats(), fast.Stats())
	}
}
