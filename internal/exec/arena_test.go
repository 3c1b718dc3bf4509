package exec

import (
	"context"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// pairArena lays n (i, 3i) pairs out back to back, and returns the same rows
// as tuples for a MemScan.
func pairArena(n int) ([]byte, []tuple.Tuple) {
	var arena []byte
	var ts []tuple.Tuple
	for i := int64(0); i < int64(n); i++ {
		tp := pairSchema.MustMake(i, i*3)
		arena = append(arena, tp...)
		ts = append(ts, tp)
	}
	return arena, ts
}

// TestArenaScanMatchesMemScan: both protocols of the arena scan yield the
// MemScan's rows; Next hands out capped views, and NextBatch fills every
// batch to its capacity (at least the size asked for; pooled arenas may be
// larger) except the last, aliasing the arena.
func TestArenaScanMatchesMemScan(t *testing.T) {
	arena, ts := pairArena(103)
	want := rows(t, NewMemScan(pairSchema, ts))
	if got := rows(t, NewArenaScan(pairSchema, arena)); !slices.Equal(got, want) {
		t.Fatalf("Next: %v, want %v", got, want)
	}
	a := NewArenaScan(pairSchema, arena)
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	if tp, err := a.Next(); err != nil || cap(tp) != pairSchema.Width() {
		t.Fatalf("Next: cap %d, err %v; want a view capped at one tuple", cap(tp), err)
	}
	for _, size := range []int{1, 7, 64, 200} {
		a := NewArenaScan(pairSchema, arena)
		if err := a.Open(); err != nil {
			t.Fatal(err)
		}
		b := NewBatch(pairSchema, size)
		var got [][2]int64
		for off := 0; ; {
			err := a.NextBatch(b)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if left := len(ts) - len(got); b.Len() != min(b.Cap(), left) {
				t.Fatalf("size %d: batch of %d tuples, capacity %d, %d left", size, b.Len(), b.Cap(), left)
			}
			if &b.Tuple(0)[0] != &arena[off] {
				t.Fatalf("size %d: batch at row %d copies the arena", size, len(got))
			}
			off += len(b.Raw())
			for i := 0; i < b.Len(); i++ {
				tp := b.Tuple(i)
				got = append(got, [2]int64{pairSchema.Int64(tp, 0), pairSchema.Int64(tp, 1)})
			}
		}
		b.Release()
		if !slices.Equal(got, want) {
			t.Fatalf("size %d: batches %v, want %v", size, got, want)
		}
	}
	if got := collectBatches(t, NewArenaScan(pairSchema, nil), 8); len(got) != 0 {
		t.Errorf("empty arena yielded %v", got)
	}
}

// TestArenaScanNextBatchAllocatesNothing: a whole batch scan of an arena,
// open to EOF, allocates nothing.
func TestArenaScanNextBatchAllocatesNothing(t *testing.T) {
	arena, _ := pairArena(5000)
	a := NewArenaScan(pairSchema, arena)
	b := NewBatch(pairSchema, DefaultBatchSize)
	defer b.Release()
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.Open(); err != nil {
			t.Fatal(err)
		}
		for a.NextBatch(b) == nil {
		}
		a.Close()
	})
	if allocs != 0 {
		t.Errorf("arena batch scan allocates %.1f times per run, want 0", allocs)
	}
}

// TestArenaScanMorselsCoverSource: morsels are sub-arenas that concatenate
// to the source, and their batches still alias it.
func TestArenaScanMorselsCoverSource(t *testing.T) {
	arena, ts := pairArena(103)
	want := rows(t, NewMemScan(pairSchema, ts))
	for _, per := range []int{1, 7, 103, 5000} {
		ops, ok := SplitMorsels(NewArenaScan(pairSchema, arena), per)
		if !ok {
			t.Fatal("ArenaScan not splittable")
		}
		if n := (len(ts) + per - 1) / per; len(ops) != n {
			t.Fatalf("per=%d: %d morsels, want %d", per, len(ops), n)
		}
		if got := drainMorsels(t, ops, pairSchema); !slices.Equal(got, want) {
			t.Fatalf("per=%d: morsels %v, want %v", per, got, want)
		}
		last := ops[len(ops)-1].(*ArenaScan)
		if &last.rows[len(last.rows)-1] != &arena[len(arena)-1] {
			t.Fatalf("per=%d: the last morsel is a copy, not a sub-arena", per)
		}
	}
	if ops, ok := SplitMorsels(NewArenaScan(pairSchema, nil), 8); !ok || len(ops) != 0 {
		t.Errorf("empty arena: splittable=%v morsels=%d, want true/0", ok, len(ops))
	}
}

// countingScan is a tuple-only scan that counts the tuples it hands out.
type countingScan struct {
	Operator
	read int
}

func (c *countingScan) Next() (tuple.Tuple, error) {
	tp, err := c.Operator.Next()
	if err == nil {
		c.read++
	}
	return tp, err
}

// TestContextScanNextBatch: ContextScan keeps its input's batch protocol —
// zero copy over an arena, a FillBatch copy over a tuple-only input — and a
// cancelled context stops the stream at the next batch boundary.
func TestContextScanNextBatch(t *testing.T) {
	arena, ts := pairArena(100)
	want := rows(t, NewMemScan(pairSchema, ts))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := collectBatches(t, NewContextScan(ctx, NewArenaScan(pairSchema, arena)), 16); !slices.Equal(got, want) {
		t.Fatalf("over an arena: %v, want %v", got, want)
	}
	if got := collectBatches(t, NewContextScan(ctx, Opaque(NewMemScan(pairSchema, ts))), 16); !slices.Equal(got, want) {
		t.Fatalf("over a tuple-only scan: %v, want %v", got, want)
	}

	_, long := pairArena(4 * DefaultBatchSize)
	src := &countingScan{Operator: NewMemScan(pairSchema, long)}
	c := NewContextScan(ctx, src)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := NewBatch(pairSchema, DefaultBatchSize)
	defer b.Release()
	if err := c.NextBatch(b); err != nil || b.Len() != min(b.Cap(), len(long)) {
		t.Fatalf("first batch: %d tuples of %d, err %v", b.Len(), b.Cap(), err)
	}
	first := b.Len()
	cancel()
	if err := c.NextBatch(b); !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: err %v, want context.Canceled", err)
	}
	if src.read != first {
		t.Errorf("read %d tuples, want the first batch's %d only", src.read, first)
	}
}
