package exec

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// drainMorsels concatenates every morsel's batches in order.
func drainMorsels(t *testing.T, ops []BatchOperator, schema *tuple.Schema) [][2]int64 {
	t.Helper()
	var out [][2]int64
	scratch := NewBatch(schema, 64)
	defer scratch.Release()
	for _, op := range ops {
		err := DrainMorsel(op, scratch, func(b *Batch) error {
			for i := 0; i < b.Len(); i++ {
				tp := b.Tuple(i)
				out = append(out, [2]int64{schema.Int64(tp, 0), schema.Int64(tp, 1)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestMemScanMorselsCoverSource(t *testing.T) {
	var in []tuple.Tuple
	for i := int64(0); i < 103; i++ {
		in = append(in, pairSchema.MustMake(i, i*3))
	}
	m := NewMemScan(pairSchema, in)
	for _, per := range []int{1, 7, 103, 5000} {
		ops, ok := SplitMorsels(m, per)
		if !ok {
			t.Fatal("MemScan not splittable")
		}
		got := drainMorsels(t, ops, pairSchema)
		if len(got) != len(in) {
			t.Fatalf("per=%d: %d tuples, want %d", per, len(got), len(in))
		}
		for i, g := range got {
			if g != [2]int64{int64(i), int64(i) * 3} {
				t.Fatalf("per=%d tuple %d: %v", per, i, g)
			}
		}
	}
	if ops, ok := SplitMorsels(NewMemScan(pairSchema, nil), 8); !ok || len(ops) != 0 {
		t.Errorf("empty MemScan: splittable=%v morsels=%d, want true/0", ok, len(ops))
	}
}

func TestTableScanMorselsCoverSource(t *testing.T) {
	dev := disk.NewDevice("t", 256)
	pool := buffer.New(1 << 16)
	f := storage.NewFile(pool, dev, pairSchema, "r")
	for i := int64(0); i < 200; i++ {
		if _, err := f.Append(pairSchema.MustMake(i, i*2)); err != nil {
			t.Fatal(err)
		}
	}
	want := rows(t, NewTableScan(f, false))
	for _, per := range []int{1, 16, 50, 100000} {
		ops, ok := SplitMorsels(NewTableScan(f, false), per)
		if !ok {
			t.Fatal("TableScan not splittable")
		}
		got := drainMorsels(t, ops, pairSchema)
		if len(got) != len(want) {
			t.Fatalf("per=%d: %d tuples, want %d", per, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("per=%d tuple %d: %v vs %v", per, i, got[i], want[i])
			}
		}
	}
	if fixed := pool.FixedFrames(); fixed != 0 {
		t.Errorf("%d frames still fixed after morsel scans", fixed)
	}
}

// TestOpaqueHidesMorsels: the capability wrappers must strip Splittable so
// ablation and instrumentation fall back to the single-reader path.
func TestOpaqueHidesMorsels(t *testing.T) {
	m := NewMemScan(pairSchema, []tuple.Tuple{pairSchema.MustMake(1, 2)})
	if _, ok := SplitMorsels(Opaque(m), 8); ok {
		t.Error("Opaque leaked the Splittable capability")
	}
	if _, ok := SplitMorsels(NewFilter(m, func(tuple.Tuple) bool { return true }), 8); ok {
		t.Error("Filter claims to be splittable")
	}
}
