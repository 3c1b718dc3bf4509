//go:build race

package storage

import (
	"bytes"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/tuple"
)

// TestStaleScanTupleReadsPoison: a tuple from Scanner.Next is valid only
// until the following Next. A consumer that keeps one past that point, while
// the pool evicts its page, reads buffer.PoisonByte under the race detector
// instead of the page's old records.
func TestStaleScanTupleReadsPoison(t *testing.T) {
	dev := disk.NewDevice("t", 68) // 4 records of 16 bytes per page
	pool := buffer.New(2 * 68)
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	f := NewFile(pool, dev, schema, "stale")
	for i := 0; i < 8; i++ {
		if _, err := f.Append(schema.MustMake(i+1, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	sc := f.Scan(false)
	defer sc.Close()
	stale, _, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // onto page 1: page 0 is unfixed
		if _, _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// A frame of another size evicts page 0; its buffer is given back and
	// not reused for the new frame.
	other := disk.NewDevice("other", 40)
	h, err := pool.Fix(other, other.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unfix(true)
	if got := pool.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if want := bytes.Repeat([]byte{buffer.PoisonByte}, len(stale)); !bytes.Equal(stale, want) {
		t.Errorf("stale tuple reads %x after its page was evicted, want the poison pattern %x", []byte(stale), want)
	}
}
