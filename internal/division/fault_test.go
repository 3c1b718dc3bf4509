package division

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/faultinject"
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
				if pool.FixedFrames() != 0 {
					t.Errorf("leaked %d fixed frames after failure", pool.FixedFrames())
				}
			})
		}
	}
}

// TestFaultInPartitionedDivision covers the partitioning paths, which manage
// spill files that must be cleaned up on failure.
func TestFaultInPartitionedDivision(t *testing.T) {
	for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		t.Run(strategy.String(), func(t *testing.T) {
			pool := buffer.New(1 << 20)
			tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)
			env := Env{Pool: pool, TempDev: tempDev}
			sp := faultSpec(30, -1)
			op := NewPartitionedHashDivision(sp, env, strategy, 4)
			_, err := exec.Collect(op)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("error not propagated: %v", err)
			}
			if pool.FixedFrames() != 0 {
				t.Errorf("leaked %d fixed frames", pool.FixedFrames())
			}
			if got := tempDev.NumPages(); got != 0 {
				t.Errorf("leaked %d spill pages after failure", got)
			}
		})
	}
}

func TestFaultInCombinedDivision(t *testing.T) {
	pool := buffer.New(1 << 20)
	tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)
	env := Env{Pool: pool, TempDev: tempDev}
	sp := faultSpec(30, -1)
	op := NewCombinedPartitionedHashDivision(sp, env, 2, 2)
	_, err := exec.Collect(op)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error not propagated: %v", err)
	}
	if pool.FixedFrames() != 0 {
		t.Errorf("leaked %d fixed frames", pool.FixedFrames())
	}
	if got := tempDev.NumPages(); got != 0 {
		t.Errorf("leaked %d spill pages", got)
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
