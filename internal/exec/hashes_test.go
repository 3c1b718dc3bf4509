package exec

import (
	"testing"
)

// TestBatchHashVectorLifecycle follows a batch's hash vector through the
// calls that change its rows: HashVector always holds HashWords words per
// current row, its storage is reused across Append, Truncate, SetAlias and
// Reset without allocating, and Release hands it back to the pool.
func TestBatchHashVectorLifecycle(t *testing.T) {
	row := func(i int64) []byte { return pairSchema.MustMake(i, 10*i) }
	b := NewBatch(pairSchema, 8)
	defer b.Release()
	if hs := b.HashVector(); len(hs) != 0 {
		t.Fatalf("empty batch: %d words", len(hs))
	}
	for i := int64(0); i < 8; i++ {
		b.Append(row(i))
	}
	hs := b.HashVector()
	if len(hs) != HashWords*8 {
		t.Fatalf("8 rows: %d words", len(hs))
	}
	base := &hs[0]
	foreign := append(row(7), row(8)...)
	for _, step := range []struct {
		name   string
		change func()
		rows   int
	}{
		{"Truncate", func() { b.Truncate(3) }, 3},
		{"SetAlias", func() { b.SetAlias(foreign, 2) }, 2},
		{"Reset", func() { b.Reset(); b.Append(row(1)) }, 1},
	} {
		step.change()
		if allocs := testing.AllocsPerRun(10, func() { hs = b.HashVector() }); allocs != 0 {
			t.Errorf("after %s: HashVector allocates %.1f times", step.name, allocs)
		}
		if len(hs) != HashWords*step.rows || &hs[0] != base {
			t.Errorf("after %s: %d words (want %d), same storage %v", step.name, len(hs), HashWords*step.rows, &hs[0] == base)
		}
	}
	b.Release()
	if b.hashes != nil {
		t.Error("Release kept the hash vector")
	}
}

// TestBatchReleaseAllocatesNothing: the arena and hash-vector pools store
// pointers, so putting a batch's memory back boxes nothing.
func TestBatchReleaseAllocatesNothing(t *testing.T) {
	const runs = 50
	batches := make([]*Batch, runs+1)
	for i := range batches {
		batches[i] = NewBatch(pairSchema, 16)
		batches[i].Append(pairSchema.MustMake(1, 2))
		batches[i].HashVector()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		batches[next].Release()
		next++
	})
	if allocs != 0 {
		t.Errorf("Release allocates %.1f times", allocs)
	}
}
