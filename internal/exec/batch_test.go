package exec

import (
	"io"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

func collectBatches(t *testing.T, bop BatchOperator, size int) [][2]int64 {
	t.Helper()
	b := NewBatch(bop.Schema(), size)
	defer b.Release()
	return drainBatches(t, bop, b)
}

// drainBatches opens bop and reads it to its end into b, failing on an
// empty batch that is not the end.
func drainBatches(t *testing.T, bop BatchOperator, b *Batch) [][2]int64 {
	t.Helper()
	if err := bop.Open(); err != nil {
		t.Fatal(err)
	}
	defer bop.Close()
	s := bop.Schema()
	var out [][2]int64
	for {
		err := bop.NextBatch(b)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("NextBatch returned an empty non-EOF batch")
		}
		for i := 0; i < b.Len(); i++ {
			tp := b.Tuple(i)
			out = append(out, [2]int64{s.Int64(tp, 0), s.Int64(tp, 1)})
		}
	}
}

func TestBatchAppendAndTuple(t *testing.T) {
	b := NewBatch(pairSchema, 4)
	defer b.Release()
	// Cap is a target, not an exact size: a recycled pool arena may be
	// bigger. It must never be smaller than requested.
	if b.Cap() < 4 || b.Len() != 0 {
		t.Fatalf("Cap=%d Len=%d", b.Cap(), b.Len())
	}
	for i := int64(0); !b.Full(); i++ {
		b.Append(pairSchema.MustMake(i, i*10))
	}
	if b.Len() != b.Cap() {
		t.Errorf("Full at Len=%d, Cap=%d", b.Len(), b.Cap())
	}
	for i := 0; i < b.Len(); i++ {
		tp := b.Tuple(i)
		if got := pairSchema.Int64(tp, 1); got != int64(i*10) {
			t.Errorf("tuple %d col b = %d", i, got)
		}
	}
	// Appending past Cap grows instead of failing; the target size is
	// advisory.
	n := b.Len()
	b.Append(pairSchema.MustMake(int64(n), int64(n*10)))
	if b.Len() != n+1 {
		t.Errorf("Len after growth append = %d, want %d", b.Len(), n+1)
	}
}

func TestBatchAppendSlotZeroesRecycledArena(t *testing.T) {
	b := NewBatch(pairSchema, 2)
	b.Append(pairSchema.MustMake(7, 7))
	b.Append(pairSchema.MustMake(7, 7))
	b.Reset()
	slot := b.AppendSlot()
	for i, by := range slot {
		if by != 0 {
			t.Fatalf("AppendSlot byte %d = %#x, want zero", i, by)
		}
	}
	b.Release()
}

func TestBatchSetAliasAndTruncate(t *testing.T) {
	raw := make([]byte, 0, 3*pairSchema.Width())
	for _, tp := range pairs(1, 2, 3, 4, 5, 6) {
		raw = append(raw, tp...)
	}
	b := NewBatch(pairSchema, 8)
	defer b.Release()
	b.SetAlias(raw, 3)
	if b.Len() != 3 {
		t.Fatalf("aliased Len = %d", b.Len())
	}
	if got := pairSchema.Int64(b.Tuple(2), 0); got != 5 {
		t.Errorf("aliased tuple 2 col a = %d", got)
	}
	b.Truncate(1)
	if b.Len() != 1 {
		t.Errorf("Len after Truncate = %d", b.Len())
	}
	b.Truncate(5) // no-op past Len
	if b.Len() != 1 {
		t.Errorf("Len after over-Truncate = %d", b.Len())
	}
	// Append on an aliased batch must panic: the view is foreign memory.
	defer func() {
		if recover() == nil {
			t.Error("Append on aliased batch did not panic")
		}
	}()
	b.Append(pairSchema.MustMake(9, 9))
}

func TestBatchResetAfterAliasRestoresAppend(t *testing.T) {
	raw := append([]byte(nil), pairSchema.MustMake(1, 2)...)
	b := NewBatch(pairSchema, 4)
	defer b.Release()
	b.SetAlias(raw, 1)
	b.Reset()
	b.Append(pairSchema.MustMake(3, 4))
	if got := pairSchema.Int64(b.Tuple(0), 0); got != 3 {
		t.Errorf("tuple after Reset = %d", got)
	}
}

func TestLiftLowerRoundtrip(t *testing.T) {
	in := pairs(1, 10, 2, 20, 3, 30, 4, 40, 5, 50)
	op := Lower(Lift(NewMemScan(pairSchema, in)), 2)
	got := rows(t, op)
	if len(got) != 5 {
		t.Fatalf("roundtrip returned %d tuples, want 5", len(got))
	}
	for i, r := range got {
		if r[0] != int64(i+1) || r[1] != int64((i+1)*10) {
			t.Errorf("tuple %d = %v", i, r)
		}
	}
}

func TestOpaqueHidesBatchCapability(t *testing.T) {
	m := NewMemScan(pairSchema, pairs(1, 2))
	if _, ok := NativeBatch(m); !ok {
		t.Fatal("MemScan should be batch-native")
	}
	if _, ok := NativeBatch(Opaque(m)); ok {
		t.Error("Opaque operator still advertises NextBatch")
	}
	// Opaque stays a working tuple operator.
	got := rows(t, Opaque(NewMemScan(pairSchema, pairs(1, 2, 3, 4))))
	if len(got) != 2 {
		t.Errorf("opaque scan returned %d tuples", len(got))
	}
}

func TestMemScanNextBatchMatchesNext(t *testing.T) {
	in := pairs(1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7)
	want := rows(t, NewMemScan(pairSchema, in))
	for _, size := range []int{1, 3, 7, 16} {
		got := collectBatches(t, NewMemScan(pairSchema, in), size)
		if len(got) != len(want) {
			t.Fatalf("size %d: %d tuples, want %d", size, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("size %d: tuple %d = %v, want %v", size, i, got[i], want[i])
			}
		}
	}
}

func TestFilterProjectNextBatchMatchesTuplePath(t *testing.T) {
	var in []tuple.Tuple
	for i := int64(0); i < 100; i++ {
		in = append(in, pairSchema.MustMake(i, i%7))
	}
	pred := func(tp tuple.Tuple) bool { return pairSchema.Int64(tp, 1) == 0 }

	tuplePath := rows(t, NewFilter(Opaque(NewMemScan(pairSchema, in)), pred))
	batchPath := rows(t, Lower(ToBatch(NewFilter(NewMemScan(pairSchema, in), pred)), 8))
	if len(tuplePath) != len(batchPath) {
		t.Fatalf("filter: tuple path %d tuples, batch path %d", len(tuplePath), len(batchPath))
	}
	for i := range tuplePath {
		if tuplePath[i] != batchPath[i] {
			t.Errorf("filter tuple %d: %v vs %v", i, tuplePath[i], batchPath[i])
		}
	}

	// Project batch path: swap the two columns.
	proj := NewProject(NewMemScan(pairSchema, in), []int{1, 0})
	projOpaque := NewProject(Opaque(NewMemScan(pairSchema, in)), []int{1, 0})
	wantP := rows(t, projOpaque)
	gotP := rows(t, Lower(ToBatch(proj), 8))
	if len(wantP) != len(gotP) {
		t.Fatalf("project: %d vs %d tuples", len(wantP), len(gotP))
	}
	for i := range wantP {
		if wantP[i] != gotP[i] {
			t.Errorf("project tuple %d: %v vs %v", i, gotP[i], wantP[i])
		}
	}
}

func TestTableScanNextBatchAliasesPages(t *testing.T) {
	dev := disk.NewDevice("t", 256)
	pool := buffer.New(1 << 16)
	f := storage.NewFile(pool, dev, pairSchema, "r")
	var in []tuple.Tuple
	for i := int64(0); i < 100; i++ {
		in = append(in, pairSchema.MustMake(i, i*2))
	}
	if err := f.Load(in); err != nil {
		t.Fatal(err)
	}
	want := rows(t, NewTableScan(f, false))
	got := collectBatches(t, NewTableScan(f, false), 16)
	if len(got) != len(want) {
		t.Fatalf("batch scan: %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tuple %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFillBatchEOFOnlyWhenEmpty(t *testing.T) {
	m := NewMemScan(pairSchema, pairs(1, 1, 2, 2, 3, 3))
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := NewBatch(pairSchema, 8)
	defer b.Release()
	// A partial fill (input exhausted mid-batch) returns the tuples with a
	// nil error; io.EOF is reserved for a fill that gathered nothing.
	if err := FillBatch(m, b); err != nil || b.Len() != 3 {
		t.Fatalf("partial fill: err=%v len=%d", err, b.Len())
	}
	if err := FillBatch(m, b); err != io.EOF || b.Len() != 0 {
		t.Fatalf("exhausted fill: err=%v len=%d", err, b.Len())
	}
}

func TestBatchReleaseTwiceIsNoOp(t *testing.T) {
	b := NewBatch(pairSchema, 8)
	b.Append(pairSchema.MustMake(1, 2))
	b.Release()
	b.Release() // second release must be a no-op, not a second pool Put

	// If the double release had put the arena twice, two fresh batches could
	// be handed the same backing memory and silently share tuples.
	b1 := NewBatch(pairSchema, 8)
	b2 := NewBatch(pairSchema, 8)
	s1 := b1.AppendSlot()
	s2 := b2.AppendSlot()
	pairSchema.SetInt64(s1, 0, 0xAA)
	pairSchema.SetInt64(s2, 0, 0xBB)
	if &s1[0] == &s2[0] {
		t.Fatal("two live batches share an arena after a double release")
	}
	if got := pairSchema.Int64(b1.Tuple(0), 0); got != 0xAA {
		t.Fatalf("batch 1 tuple clobbered: %#x", got)
	}
	b1.Release()
	b2.Release()
}

func TestBatchReleaseAfterAlias(t *testing.T) {
	b := NewBatch(pairSchema, 4)
	foreign := make([]byte, 4*pairSchema.Width())
	b.SetAlias(foreign, 4)
	b.Release() // must return only the owned arena, never the foreign memory

	nb := NewBatch(pairSchema, 4)
	slot := nb.AppendSlot()
	if &slot[0] == &foreign[0] {
		t.Fatal("foreign aliased memory entered the arena pool")
	}
	nb.Release()
}

// TestRevivedBatchTakesEveryRow: Reset gives a released batch back its
// capacity, so each producer that fills a batch up to Cap returns every row
// into it, neither spinning on empty batches nor ending at once.
func TestRevivedBatchTakesEveryRow(t *testing.T) {
	arena, in := pairArena(10)
	want := rows(t, NewMemScan(pairSchema, in))
	for _, p := range []struct {
		name string
		op   BatchOperator
	}{
		{"MemScan", NewMemScan(pairSchema, in)},
		{"ArenaScan", NewArenaScan(pairSchema, arena)},
		{"FillBatch", Lift(NewMemScan(pairSchema, in))},
	} {
		t.Run(p.name, func(t *testing.T) {
			b := NewBatch(pairSchema, 4)
			b.Release()
			b.Reset()
			defer b.Release()
			if b.Cap() < 4 {
				t.Errorf("revived batch Cap = %d, want at least 4", b.Cap())
			}
			if got := drainBatches(t, p.op, b); !slices.Equal(got, want) {
				t.Errorf("%d rows into a revived batch, want %d", len(got), len(want))
			}
		})
	}
}

func TestBatchResetRevivesAfterRelease(t *testing.T) {
	b := NewBatch(pairSchema, 4)
	b.Release()
	b.Reset()
	b.Append(pairSchema.MustMake(7, 8)) // must not panic on a stale alias flag
	if b.Len() != 1 {
		t.Fatalf("revived batch Len = %d", b.Len())
	}
	b.Release()
}
