package server

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// TestSortRunsChargeSessionQuota drives exec.Sort directly over a
// quota-wrapped temp device — the same wiring the executor gives every
// query — and proves sort run files are session-quota-accounted: charges
// appear while runs are live, credits return as the runs are dropped, and a
// ceiling too small for the runs fails with the typed SpillQuotaError
// rather than unbounded temp growth.
func TestSortRunsChargeSessionQuota(t *testing.T) {
	schema := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	rng := rand.New(rand.NewSource(41))
	in := make([]tuple.Tuple, 3000)
	for i := range in {
		in[i] = schema.MustMake(rng.Int63n(1<<40), int64(i))
	}
	mkSort := func(q *spillQuota) (*exec.Sort, *quotaDev) {
		qd := newQuotaDev(disk.NewDevice("sort-quota", disk.PaperRunPageSize), q)
		// A pool of a few frames forces run pages onto the device promptly,
		// so the quota sees the spill as it happens.
		pool := buffer.New(8 * disk.PaperRunPageSize)
		return exec.NewSort(exec.NewMemScan(schema, in), exec.SortConfig{
			Keys:        []int{0},
			MemoryBytes: 1024,
			Pool:        pool,
			TempDev:     qd,
		}), qd
	}

	t.Run("ChargeAndCredit", func(t *testing.T) {
		q := newSpillQuota(1 << 20)
		s, qd := mkSort(q)
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		if s.SpilledRuns() == 0 {
			t.Fatal("sort did not spill; shrink the budget or grow the input")
		}
		if used := q.used.Load(); used == 0 {
			t.Fatal("spilled runs charged nothing: sort bypasses the session quota")
		}
		n := 0
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != len(in) {
			t.Fatalf("sort returned %d of %d tuples", n, len(in))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if used := q.used.Load(); used != 0 {
			t.Fatalf("%d bytes still charged after Close: run drops do not credit", used)
		}
		qd.releaseAll() // must be a no-op now
		if used := q.used.Load(); used != 0 {
			t.Fatalf("releaseAll left %d bytes", used)
		}
	})

	t.Run("TypedErrorOnTinyCeiling", func(t *testing.T) {
		liveBefore := storage.LiveSpillFiles()
		q := newSpillQuota(2 * disk.PaperRunPageSize)
		s, qd := mkSort(q)
		err := s.Open()
		if err == nil {
			s.Close()
			t.Fatal("spilling sort fit under a 2-page ceiling")
		}
		var sqe *SpillQuotaError
		if !errors.As(err, &sqe) {
			t.Fatalf("error %v (%T), want SpillQuotaError", err, err)
		}
		s.Close()
		qd.releaseAll()
		if used := q.used.Load(); used != 0 {
			t.Fatalf("%d bytes charged after failed open + releaseAll", used)
		}
		leakcheck.SpillFiles(t, liveBefore)
	})
}
