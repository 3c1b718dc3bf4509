package division

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// faultSpec wires an injected failure into either input of a realistic
// division problem.
func faultSpec(failDividendAfter, failDivisorAfter int) Spec {
	var dividend [][2]int64
	divisor := []int64{101, 102, 103}
	for q := 0; q < 40; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	sp := makeSpec(dividend, divisor)
	if failDividendAfter >= 0 {
		sp.Dividend = faultinject.NewScan(sp.Dividend, failDividendAfter)
	}
	if failDivisorAfter >= 0 {
		sp.Divisor = faultinject.NewScan(sp.Divisor, failDivisorAfter)
	}
	return sp
}

// TestFaultPropagation injects failures mid-dividend and mid-divisor into
// every algorithm: the error must surface (not be swallowed or turned into a
// wrong answer) and no buffer frames may stay fixed.
func TestFaultPropagation(t *testing.T) {
	for _, alg := range Algorithms {
		for _, inject := range []struct {
			name                  string
			dividendAt, divisorAt int
		}{
			{"dividend-early", 0, -1},
			{"dividend-mid", 25, -1},
			{"divisor-early", -1, 0},
			{"divisor-mid", -1, 2},
		} {
			t.Run(alg.String()+"/"+inject.name, func(t *testing.T) {
				pool := buffer.New(1 << 20)
				env := Env{Pool: pool, TempDev: disk.NewDevice("temp", disk.PaperRunPageSize)}
				sp := faultSpec(inject.dividendAt, inject.divisorAt)
				_, err := Run(alg, sp, env)
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("error not propagated: %v", err)
				}
				leakcheck.FixedFrames(t, pool)
			})
		}
	}
}

// allocCounter counts the pages allocated on a device.
type allocCounter struct {
	disk.Dev
	allocs int
}

func (d *allocCounter) Alloc() disk.PageID {
	d.allocs++
	return d.Dev.Alloc()
}

// TestFaultInPartitioningPass strikes the dividend scan inside recursive
// division's first partitioning pass, after children have spilled, under
// both strategies. The error must surface typed, and the spill files the
// pass created must be gone: no frame fixed, no file live, no temp-device
// page allocated.
func TestFaultInPartitioningPass(t *testing.T) {
	for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		t.Run(strategy.String(), func(t *testing.T) {
			pool := buffer.New(1 << 20)
			tempDev := &allocCounter{Dev: disk.NewDevice("temp", disk.PaperRunPageSize)}
			env := Env{Pool: pool, TempDev: tempDev, MemoryBudget: 256}
			spills := storage.LiveSpillFiles()
			// The seed skips quotient partitioning's root attempt, and the
			// three 56-byte divisor entries overflow half the budget, so
			// divisor partitioning re-clusters at once: either way the
			// dividend's first reader is a partitioning pass.
			_, st, err := DivideRecursive(faultSpec(30, -1), env, strategy, RecursiveOptions{SeedCandidates: 40})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("error not propagated: %v", err)
			}
			if st.Attempts != 0 || tempDev.allocs == 0 {
				t.Fatalf("the fault did not strike a spilling pass: %d attempts, %d spill pages", st.Attempts, tempDev.allocs)
			}
			leakcheck.FixedFrames(t, pool)
			leakcheck.SpillFiles(t, spills)
			if got := tempDev.NumPages(); got != 0 {
				t.Errorf("leaked %d spill pages after failure", got)
			}
		})
	}
}

// TestFaultAtOpen covers Open-time failures of the inputs.
func TestFaultAtOpen(t *testing.T) {
	for _, alg := range Algorithms {
		sp := faultSpec(-1, -1)
		fs := faultinject.NewScan(sp.Dividend, 0)
		fs.FailOpen = true
		sp.Dividend = fs
		env := Env{Pool: buffer.New(1 << 20), TempDev: disk.NewDevice("t", disk.PaperRunPageSize)}
		if _, err := Run(alg, sp, env); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%v: open failure not propagated: %v", alg, err)
		}
	}
}

// TestFaultStreamingHashDivision covers the early-emit path where the
// failure happens during Next rather than Open.
func TestFaultStreamingHashDivision(t *testing.T) {
	sp := faultSpec(10, -1)
	hd := NewHashDivision(sp, Env{}, HashDivisionOptions{EarlyEmit: true})
	if err := hd.Open(); err != nil {
		t.Fatalf("open should succeed in streaming mode: %v", err)
	}
	var err error
	var q tuple.Tuple
	for {
		q, err = hd.Next()
		if err != nil {
			break
		}
		_ = q
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("streaming error not propagated: %v", err)
	}
	if cerr := hd.Close(); cerr != nil {
		t.Fatalf("close after failure: %v", cerr)
	}
}
