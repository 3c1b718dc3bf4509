package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func transcriptSchema() *Schema {
	return NewSchema(Int64Field("student_id"), Int64Field("course_no"))
}

func TestSchemaLayout(t *testing.T) {
	s := NewSchema(Int64Field("a"), CharField("b", 12), Int64Field("c"))
	if got := s.Width(); got != 28 {
		t.Fatalf("Width() = %d, want 28", got)
	}
	if got := s.Offset(0); got != 0 {
		t.Errorf("Offset(0) = %d, want 0", got)
	}
	if got := s.Offset(1); got != 8 {
		t.Errorf("Offset(1) = %d, want 8", got)
	}
	if got := s.Offset(2); got != 20 {
		t.Errorf("Offset(2) = %d, want 20", got)
	}
	if got := s.NumFields(); got != 3 {
		t.Errorf("NumFields() = %d, want 3", got)
	}
	if got := s.IndexOf("b"); got != 1 {
		t.Errorf("IndexOf(b) = %d, want 1", got)
	}
	if got := s.IndexOf("zzz"); got != -1 {
		t.Errorf("IndexOf(zzz) = %d, want -1", got)
	}
	want := "(a INT64, b CHAR(12), c INT64)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSchemaPanicsOnBadField(t *testing.T) {
	for name, fields := range map[string][]Field{
		"bad int width": {{Name: "x", Kind: KindInt64, Width: 4}},
		"zero char":     {{Name: "x", Kind: KindChar, Width: 0}},
		"negative char": {{Name: "x", Kind: KindChar, Width: -3}},
		"unknown kind":  {{Name: "x", Kind: Kind(99), Width: 8}},
	} {
		fields := fields
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("NewSchema did not panic")
				}
			}()
			NewSchema(fields...)
		})
	}
}

func TestMakeAndAccessors(t *testing.T) {
	s := NewSchema(Int64Field("id"), CharField("name", 8))
	tp, err := s.Make(42, "Ann")
	if err != nil {
		t.Fatalf("Make: %v", err)
	}
	if got := s.Int64(tp, 0); got != 42 {
		t.Errorf("Int64 = %d, want 42", got)
	}
	if got := s.Char(tp, 1); got != "Ann" {
		t.Errorf("Char = %q, want Ann", got)
	}
	if got := s.Format(tp); got != "(42, Ann)" {
		t.Errorf("Format = %q", got)
	}
	row := s.Row(tp)
	if row[0].(int64) != 42 || row[1].(string) != "Ann" {
		t.Errorf("Row = %v", row)
	}
}

func TestMakeErrors(t *testing.T) {
	s := NewSchema(Int64Field("id"), CharField("name", 4))
	if _, err := s.Make(1); err == nil {
		t.Error("Make with wrong arity should fail")
	}
	if _, err := s.Make("x", "y"); err == nil {
		t.Error("Make with string for int should fail")
	}
	if _, err := s.Make(1, 2); err == nil {
		t.Error("Make with int for char should fail")
	}
	if _, err := s.Make(1, "toolongvalue"); err == nil {
		t.Error("Make with overflowing char should fail")
	}
}

func TestSetOverwritesPadding(t *testing.T) {
	s := NewSchema(CharField("name", 8))
	tp := s.MustMake("Barbara_")
	s.SetChar(tp, 0, "Al")
	if got := s.Char(tp, 0); got != "Al" {
		t.Errorf("Char after overwrite = %q, want Al", got)
	}
}

func TestCompareAndEqual(t *testing.T) {
	s := transcriptSchema()
	a := s.MustMake(1, 10)
	b := s.MustMake(1, 20)
	c := s.MustMake(2, 10)

	if got := s.Compare(a, b, []int{0}); got != 0 {
		t.Errorf("Compare on col 0 = %d, want 0", got)
	}
	if got := s.Compare(a, b, []int{1}); got != -1 {
		t.Errorf("Compare on col 1 = %d, want -1", got)
	}
	if got := s.Compare(c, a, []int{0, 1}); got != 1 {
		t.Errorf("Compare = %d, want 1", got)
	}
	if got := s.CompareAll(a, a.Clone()); got != 0 {
		t.Errorf("CompareAll clone = %d, want 0", got)
	}
}

func TestCompareNegativeInts(t *testing.T) {
	s := NewSchema(Int64Field("v"))
	neg := s.MustMake(-5)
	pos := s.MustMake(3)
	if got := s.Compare(neg, pos, []int{0}); got != -1 {
		t.Errorf("Compare(-5, 3) = %d, want -1 (typed, not bytewise)", got)
	}
}

func TestProjection(t *testing.T) {
	s := NewSchema(Int64Field("student"), Int64Field("course"), CharField("grade", 2))
	tp := s.MustMake(7, 101, "A")

	p := s.ProjectTuple(tp, []int{0})
	ps := s.Project([]int{0})
	if got := ps.Int64(p, 0); got != 7 {
		t.Errorf("projected value = %d, want 7", got)
	}
	if len(p) != 8 {
		t.Errorf("projected width = %d, want 8", len(p))
	}

	// Reordering projection.
	q := s.ProjectTuple(tp, []int{2, 0})
	qs := s.Project([]int{2, 0})
	if qs.Char(q, 0) != "A" || qs.Int64(q, 1) != 7 {
		t.Errorf("reordered projection = %s", qs.Format(q))
	}

	if !s.EqualProjected(tp, []int{0}, p) {
		t.Error("EqualProjected should hold for own projection")
	}
	other := ps.MustMake(8)
	if s.EqualProjected(tp, []int{0}, other) {
		t.Error("EqualProjected should fail for different key")
	}

	var buf [32]byte
	got := s.ProjectInto(buf[:], tp, []int{1})
	if ns := s.Project([]int{1}); ns.Int64(got, 0) != 101 {
		t.Errorf("ProjectInto = %v", got)
	}
}

func TestComplement(t *testing.T) {
	s := NewSchema(Int64Field("a"), Int64Field("b"), Int64Field("c"))
	got := s.Complement([]int{1})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Complement([1]) = %v, want [0 2]", got)
	}
	if got := s.Complement(nil); len(got) != 3 {
		t.Errorf("Complement(nil) = %v", got)
	}
}

func TestConcat(t *testing.T) {
	a := NewSchema(Int64Field("x"))
	b := NewSchema(CharField("y", 4))
	c := a.Concat(b)
	if c.Width() != 12 || c.NumFields() != 2 {
		t.Fatalf("Concat schema wrong: %s", c)
	}
	ct := ConcatTuples(a.MustMake(5), b.MustMake("hi"))
	if c.Int64(ct, 0) != 5 || c.Char(ct, 1) != "hi" {
		t.Errorf("ConcatTuples = %s", c.Format(ct))
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema(Int64Field("x"), CharField("y", 4))
	b := NewSchema(Int64Field("x"), CharField("y", 4))
	c := NewSchema(Int64Field("x"), CharField("z", 4))
	if !a.Equal(b) {
		t.Error("identical schemas should be Equal")
	}
	if a.Equal(c) {
		t.Error("schemas with different names should differ")
	}
	if a.Equal(NewSchema(Int64Field("x"))) {
		t.Error("schemas with different arity should differ")
	}
}

func TestHashConsistency(t *testing.T) {
	s := transcriptSchema()
	a := s.MustMake(1, 10)
	b := s.MustMake(1, 10)
	c := s.MustMake(1, 11)
	if s.HashAll(a) != s.HashAll(b) {
		t.Error("equal tuples must hash equally")
	}
	if s.HashAll(a) == s.HashAll(c) {
		t.Error("hash collision between distinct small tuples is suspicious")
	}
	// Hash over a projection must equal HashBytes of the projected tuple.
	p := s.ProjectTuple(a, []int{1})
	if s.Hash(a, []int{1}) != HashBytes(p) {
		t.Error("Hash(cols) must match HashBytes of projection")
	}
}

func TestHashQuick(t *testing.T) {
	s := transcriptSchema()
	f := func(x, y int64) bool {
		t1 := s.MustMake(x, y)
		t2 := s.MustMake(x, y)
		return s.HashAll(t1) == s.HashAll(t2) && s.CompareAll(t1, t2) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareQuickIsTotalOrder(t *testing.T) {
	s := transcriptSchema()
	cols := s.AllColumns()
	f := func(a1, a2, b1, b2 int64) bool {
		ta := s.MustMake(a1, a2)
		tb := s.MustMake(b1, b2)
		ab := s.Compare(ta, tb, cols)
		ba := s.Compare(tb, ta, cols)
		if ab != -ba {
			return false
		}
		if ab == 0 {
			return a1 == b1 && a2 == b2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareFuncMatchesCompare(t *testing.T) {
	s := NewSchema(Int64Field("a"), CharField("b", 6), Int64Field("c"))
	colSets := [][]int{{0}, {2}, {1}, {0, 1}, {2, 0}, {0, 1, 2}}
	rng := rand.New(rand.NewSource(4))
	mk := func() Tuple {
		return s.MustMake(rng.Int63n(8)-4, string(rune('a'+rng.Intn(3))), rng.Int63n(4))
	}
	for _, cols := range colSets {
		f := s.CompareFunc(cols)
		for trial := 0; trial < 200; trial++ {
			t1, t2 := mk(), mk()
			if got, want := f(t1, t2), s.Compare(t1, t2, cols); got != want {
				t.Fatalf("cols %v: compiled %d, generic %d for %s vs %s",
					cols, got, want, s.Format(t1), s.Format(t2))
			}
		}
	}
}

func TestHashFuncMatchesHash(t *testing.T) {
	s := NewSchema(Int64Field("a"), CharField("b", 6))
	rng := rand.New(rand.NewSource(5))
	for _, cols := range [][]int{{0}, {1}, {0, 1}, {1, 0}} {
		f := s.HashFunc(cols)
		for trial := 0; trial < 100; trial++ {
			tp := s.MustMake(rng.Int63(), string(rune('a'+rng.Intn(26))))
			if f(tp) != s.Hash(tp, cols) {
				t.Fatalf("cols %v: compiled hash differs", cols)
			}
		}
	}
}

func BenchmarkCompareCompiledVsGeneric(b *testing.B) {
	s := NewSchema(Int64Field("a"), Int64Field("b"))
	cols := []int{0}
	t1 := s.MustMake(12345, 1)
	t2 := s.MustMake(12346, 2)
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Compare(t1, t2, cols)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		f := s.CompareFunc(cols)
		for i := 0; i < b.N; i++ {
			_ = f(t1, t2)
		}
	})
}

// TestAllColumnOpsDoNotAllocate pins CompareAll and HashAll to the schema's
// stored identity projection: both run on every generic hash-table probe and
// every netexchange candidate, so a per-call column list would allocate there.
func TestAllColumnOpsDoNotAllocate(t *testing.T) {
	s := NewSchema(Int64Field("a"), CharField("b", 5))
	t1, t2 := s.MustMake(1, "x"), s.MustMake(1, "y")
	if n := testing.AllocsPerRun(100, func() { _ = s.CompareAll(t1, t2) }); n != 0 {
		t.Errorf("CompareAll: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.HashAll(t1) }); n != 0 {
		t.Errorf("HashAll: %v allocations per call, want 0", n)
	}
	if got, want := s.HashAll(t1), s.Hash(t1, []int{0, 1}); got != want {
		t.Errorf("HashAll = %#x, Hash over every column = %#x", got, want)
	}
	// AllColumns hands out a copy: changing it leaves the schema's own list.
	cols := s.AllColumns()
	cols[0] = 1
	if s.CompareAll(t1, t2) >= 0 {
		t.Error("mutating AllColumns' result changed CompareAll")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := NewSchema(Int64Field("v"))
	a := s.MustMake(1)
	b := a.Clone()
	s.SetInt64(a, 0, 99)
	if got := s.Int64(b, 0); got != 1 {
		t.Errorf("clone mutated: %d", got)
	}
}

func BenchmarkHashTuple(b *testing.B) {
	s := transcriptSchema()
	cols := s.AllColumns()
	tp := s.MustMake(123456, 789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Hash(tp, cols)
	}
}

func BenchmarkCompareTuple(b *testing.B) {
	s := transcriptSchema()
	cols := s.AllColumns()
	rng := rand.New(rand.NewSource(1))
	t1 := s.MustMake(rng.Int63(), rng.Int63())
	t2 := s.MustMake(rng.Int63(), rng.Int63())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Compare(t1, t2, cols)
	}
}
