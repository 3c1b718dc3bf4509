package bitmap

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Errorf("Len = %d, want %d", b.Len(), n)
		}
		if b.PopCount() != 0 {
			t.Errorf("n=%d: new bitmap has %d set bits", n, b.PopCount())
		}
		if n > 0 && !b.HasZero() {
			t.Errorf("n=%d: new bitmap should have zeros", n)
		}
		if n == 0 && b.HasZero() {
			t.Error("empty bitmap should report no zeros (vacuously all set)")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTest(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Errorf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
}

// TestOutOfRangePanics: every bit operation rejects an index below zero and
// one at the length (check's one unsigned comparison catches both) with an
// error naming the index and the range.
func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, op := range []struct {
		name string
		f    func(i int)
	}{
		{"Set", func(i int) { b.Set(i) }},
		{"Test", func(i int) { b.Test(i) }},
		{"SetAndReport", func(i int) { b.SetAndReport(i) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			for _, i := range []int{-1, 10} {
				t.Run(strconv.Itoa(i), func(t *testing.T) {
					defer func() {
						err, ok := recover().(error)
						if !ok {
							t.Fatal("no panic with an error value")
						}
						want := fmt.Sprintf("bitmap: index %d out of range [0,10)", i)
						if msg := err.Error(); msg != want {
							t.Errorf("panic message %q, want %q", msg, want)
						}
					}()
					op.f(i)
				})
			}
		})
	}
	if b.PopCount() != 0 {
		t.Errorf("a rejected index set %d bits", b.PopCount())
	}
}

func TestSetAndReport(t *testing.T) {
	b := New(5)
	if b.SetAndReport(3) {
		t.Error("first SetAndReport reported already-set")
	}
	if !b.SetAndReport(3) {
		t.Error("second SetAndReport did not report already-set")
	}
	if b.PopCount() != 1 {
		t.Errorf("PopCount = %d, want 1", b.PopCount())
	}
}

func TestAllSetAndHasZeroBoundaries(t *testing.T) {
	// Exercise partial-word masking at several sizes.
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 400} {
		b := New(n)
		for i := 0; i < n-1; i++ {
			b.Set(i)
		}
		if b.AllSet() {
			t.Errorf("n=%d: AllSet with one bit missing", n)
		}
		b.Set(n - 1)
		if !b.AllSet() {
			t.Errorf("n=%d: AllSet false with all bits set", n)
		}
	}
}

func TestOr(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(1)
	b.Set(69)
	a.Or(b)
	if !a.Test(1) || !a.Test(69) {
		t.Error("Or lost bits")
	}
	if a.PopCount() != 2 {
		t.Errorf("PopCount = %d, want 2", a.PopCount())
	}
}

func TestOrSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(10).Or(New(11))
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.PopCount() != 0 {
		t.Errorf("PopCount after Reset = %d", b.PopCount())
	}
}

func TestString(t *testing.T) {
	b := New(4)
	b.Set(0)
	b.Set(2)
	if got := b.String(); got != "1010" {
		t.Errorf("String = %q, want 1010", got)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(64).SizeBytes(); got != 8 {
		t.Errorf("SizeBytes(64) = %d, want 8", got)
	}
	if got := New(65).SizeBytes(); got != 16 {
		t.Errorf("SizeBytes(65) = %d, want 16", got)
	}
	if got := New(0).SizeBytes(); got != 0 {
		t.Errorf("SizeBytes(0) = %d, want 0", got)
	}
}

// Property: PopCount equals the size of the set of indices set; AllSet iff
// every index was set.
func TestQuickCountMatchesModel(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		b := New(n)
		model := make(map[int]bool)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			was := b.SetAndReport(i)
			if was != model[i] {
				return false
			}
			model[i] = true
		}
		if b.PopCount() != len(model) {
			return false
		}
		return b.AllSet() == (len(model) == n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHasZeroDense(b *testing.B) {
	bm := New(4096)
	for i := 0; i < 4096; i++ {
		bm.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bm.HasZero() {
			b.Fatal("unexpected zero")
		}
	}
}

func BenchmarkSet(b *testing.B) {
	bm := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i % 4096)
	}
}

func TestPopCount(t *testing.T) {
	b := New(130) // three words, final word partial
	if b.PopCount() != 0 {
		t.Errorf("empty PopCount = %d", b.PopCount())
	}
	set := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range set {
		b.Set(i)
	}
	if got := b.PopCount(); got != len(set) {
		t.Errorf("PopCount = %d, want %d", got, len(set))
	}
}

func TestPopCountPartialFinalWord(t *testing.T) {
	// n = 70 leaves 58 unused bits in the second word; bits 64-69 are the
	// only legal ones there and PopCount must count exactly those.
	b := New(70)
	for i := 64; i < 70; i++ {
		b.Set(i)
	}
	if got := b.PopCount(); got != 6 {
		t.Errorf("PopCount = %d, want 6", got)
	}
	if b.AllSet() {
		t.Error("AllSet true with first word empty")
	}
	for i := 0; i < 64; i++ {
		b.Set(i)
	}
	if got := b.PopCount(); got != 70 {
		t.Errorf("full PopCount = %d, want 70", got)
	}
	if !b.AllSet() {
		t.Error("AllSet false with every bit set")
	}
	// The step-3 fast path: PopCount == Len iff AllSet.
	if (b.PopCount() == b.Len()) != b.AllSet() {
		t.Error("PopCount/AllSet equivalence broken")
	}
}
