package division

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestPartitionPassKeepsInputOrder: every child of a partitioning pass holds
// exactly the rows routed to it, in input order — resident in its arena or
// in its spill file, on the pages per-record appends would fill — and the
// children that spill are the ones the tuple-at-a-time spill-largest rule
// picks, at any batch size.
func TestPartitionPassKeepsInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := transcriptSchema.Width()
	var input []byte
	for i := 0; i < 3000; i++ {
		input = append(input, transcriptSchema.MustMake(rng.Int63n(500), rng.Int63n(40))...)
	}
	// Child c takes (c+1)/15 of the routed rows, so the largest resident
	// child is rarely the first one.
	const fanOut = 5
	hash := transcriptSchema.HashFunc([]int{0})
	route := func(t tuple.Tuple) int {
		if transcriptSchema.Int64(t, 1)%7 == 0 {
			return -1
		}
		c, h := 0, hash(t)%15
		for h >= uint64((c+1)*(c+2)/2) {
			c++
		}
		return c
	}
	want := make([][]byte, fanOut)
	for off := 0; off < len(input); off += w {
		if c := route(input[off : off+w]); c >= 0 {
			want[c] = append(want[c], input[off:off+w]...)
		}
	}

	for _, tc := range []struct {
		name     string
		budget   int
		startOut []int // children that start spilled
	}{
		{name: "spill-largest", budget: 12 << 10},
		{name: "start-spilled", startOut: []int{1, 3}},
	} {
		// The spill-largest rule applied one row at a time.
		wantSpilled := make([]bool, fanOut)
		for _, c := range tc.startOut {
			wantSpilled[c] = true
		}
		if tc.budget > 0 {
			resident, held := make([]int, fanOut), 0
			for off := 0; off < len(input); off += w {
				c := route(input[off : off+w])
				if c < 0 || wantSpilled[c] {
					continue
				}
				resident[c] += w
				held += w
				for held > tc.budget {
					best := -1
					for i := range resident {
						if !wantSpilled[i] && (best < 0 || resident[i] > resident[best]) {
							best = i
						}
					}
					wantSpilled[best] = true
					held -= resident[best]
				}
			}
		}
		for _, batch := range []int{7, 0} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				env := testEnv()
				env.BatchSize = batch
				live := storage.LiveSpillFiles()
				var files []*storage.File
				newSpill := func() (*storage.File, error) {
					f := storage.NewSpillFile(env.Pool, env.TempDev, transcriptSchema, "pass")
					files = append(files, f)
					return f, nil
				}
				spilled := make([]*storage.File, fanOut)
				for _, c := range tc.startOut {
					spilled[c], _ = newSpill()
				}
				defer func() {
					for _, f := range files {
						f.Drop()
					}
					if got := storage.LiveSpillFiles(); got != live {
						t.Errorf("spill files leaked: %d -> %d", live, got)
					}
				}()
				pass := partitionPass{env: env, schema: transcriptSchema, fanOut: fanOut, route: route,
					spilled: spilled, budget: tc.budget, newSpill: newSpill}
				parts, read, err := pass.run(exec.NewArenaScan(transcriptSchema, input))
				if err != nil {
					t.Fatal(err)
				}
				if read*w != len(input) {
					t.Errorf("pass read %d rows, input has %d", read, len(input)/w)
				}
				for c, p := range parts {
					if p.n*w != len(want[c]) {
						t.Errorf("child %d: %d rows, want %d", c, p.n, len(want[c])/w)
					}
					if (p.file != nil) != wantSpilled[c] {
						t.Errorf("child %d spilled = %v, want %v", c, p.file != nil, wantSpilled[c])
					}
					got := p.rows
					if p.file != nil {
						if got, err = p.file.ReadArena(); err != nil {
							t.Fatal(err)
						}
						per := p.file.RecordsPerPage()
						if pages := (p.n + per - 1) / per; p.file.NumPages() != pages {
							t.Errorf("child %d: %d pages for %d rows, want %d", c, p.file.NumPages(), p.n, pages)
						}
					}
					if !bytes.Equal(got, want[c]) {
						t.Errorf("child %d holds other rows or another order than routed", c)
					}
				}
				if got := env.Pool.FixedFrames(); got != 0 {
					t.Errorf("%d frames left fixed", got)
				}
			})
		}
	}
}

// TestPartitionedPathsAcrossInputs runs every partitioned path — recursive
// division under both strategies at 1 %, 5 %, 25 % and 100 % of the
// dividend's footprint, partitioned division at k = 1, 3 and 8 under both
// strategies, and combined division at (1,1), (2,3) and (3,1) — over int,
// composite and CHAR keys and over every input protocol: an arena, a tuple
// slice, a heap file, each behind a context, and a tuple-only input. Every
// quotient must equal the reference, and the cost counters and recursion
// statistics must not depend on how the dividend arrives.
func TestPartitionedPathsAcrossInputs(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      24,
		QuotientCandidates: 300,
		FullFraction:       0.4,
		MatchFraction:      0.6,
		NoisePerCandidate:  2,
		DuplicateFactor:    2,
		Shuffle:            true,
		Seed:               17,
	})
	if err != nil {
		t.Fatal(err)
	}
	type run func(sp Spec, env Env) ([]tuple.Tuple, RecursiveStats, error)
	collect := func(op exec.Operator) ([]tuple.Tuple, RecursiveStats, error) {
		q, err := exec.Collect(op)
		return q, RecursiveStats{}, err
	}
	for _, shape := range []workload.KeyShape{workload.IntKey, workload.CompositeKey, workload.CharKey} {
		rk := inst.Rekey(shape)
		ds := rk.DividendSchema
		footprint := len(rk.Dividend) * ds.Width()
		var paths []struct {
			name string
			run  run
		}
		add := func(name string, r run) {
			paths = append(paths, struct {
				name string
				run  run
			}{name, r})
		}
		for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
			for _, pct := range []int{1, 5, 25, 100} {
				add(fmt.Sprintf("recursive/%v/%d%%", strategy, pct), func(sp Spec, env Env) ([]tuple.Tuple, RecursiveStats, error) {
					env.MemoryBudget = max(footprint*pct/100, 1)
					return DivideRecursive(sp, env, strategy, RecursiveOptions{})
				})
			}
			for _, k := range []int{1, 3, 8} {
				add(fmt.Sprintf("partitioned/%v/k=%d", strategy, k), func(sp Spec, env Env) ([]tuple.Tuple, RecursiveStats, error) {
					return collect(NewPartitionedHashDivision(sp, env, strategy, k))
				})
			}
		}
		for _, grid := range [][2]int{{1, 1}, {2, 3}, {3, 1}} {
			add(fmt.Sprintf("combined/%dx%d", grid[0], grid[1]), func(sp Spec, env Env) ([]tuple.Tuple, RecursiveStats, error) {
				return collect(NewCombinedPartitionedHashDivision(sp, env, grid[0], grid[1]))
			})
		}

		arena := packRows(rk.Dividend)
		heap := storage.NewFile(buffer.New(1<<20), disk.NewDevice("dividend", disk.PaperPageSize), ds, "dividend")
		if err := heap.Load(rk.Dividend); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		inputs := []struct {
			name string
			op   func() exec.Operator
		}{
			{"arena", func() exec.Operator { return exec.NewArenaScan(ds, arena) }},
			{"tuples", func() exec.Operator { return exec.NewMemScan(ds, rk.Dividend) }},
			{"heap", func() exec.Operator { return exec.NewTableScan(heap, true) }},
			{"ctx-arena", func() exec.Operator { return exec.NewContextScan(ctx, exec.NewArenaScan(ds, arena)) }},
			{"ctx-tuples", func() exec.Operator { return exec.NewContextScan(ctx, exec.NewMemScan(ds, rk.Dividend)) }},
			{"ctx-heap", func() exec.Operator { return exec.NewContextScan(ctx, exec.NewTableScan(heap, true)) }},
			{"tuple-only", func() exec.Operator { return exec.Opaque(exec.NewMemScan(ds, rk.Dividend)) }},
		}
		spec := func(dividend exec.Operator) Spec {
			return Spec{Dividend: dividend, Divisor: exec.NewMemScan(rk.DivisorSchema, rk.Divisor), DivisorCols: rk.DivisorCols}
		}
		ref, err := Reference(spec(exec.NewMemScan(ds, rk.Dividend)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatal("reference quotient is empty; the instance tests nothing")
		}
		qs := spec(inputs[0].op()).QuotientSchema()

		for _, p := range paths {
			t.Run(fmt.Sprintf("%v/%s", shape, p.name), func(t *testing.T) {
				var first exec.Counters
				var firstStats RecursiveStats
				for i, in := range inputs {
					live := storage.LiveSpillFiles()
					var counters exec.Counters
					env := Env{Pool: buffer.New(256 << 10), TempDev: disk.NewDevice("temp", disk.PaperRunPageSize), Counters: &counters}
					q, st, err := p.run(spec(in.op()), env)
					if err != nil {
						t.Fatalf("%s: %v", in.name, err)
					}
					if !EqualTupleSets(qs, q, ref) {
						t.Errorf("%s: quotient of %d tuples, reference has %d", in.name, len(q), len(ref))
					}
					if i == 0 {
						first, firstStats = counters, st
					} else if counters != first || st != firstStats {
						t.Errorf("%s: counters %+v, stats %+v; %s gave %+v, %+v",
							in.name, counters, st, inputs[0].name, first, firstStats)
					}
					if got := storage.LiveSpillFiles(); got != live {
						t.Errorf("%s: spill files leaked: %d -> %d", in.name, live, got)
					}
					if got := env.Pool.FixedFrames(); got != 0 {
						t.Errorf("%s: %d frames left fixed", in.name, got)
					}
				}
			})
		}
	}
}
