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
	"repro/internal/workload"
)

// TestPartitionPassKeepsInputOrder: every child of a partitioning pass holds
// exactly the rows routed to it, in input order — resident in its arena or
// in its spill file, on the pages per-record appends would fill — and the
// children that spill are the ones the tuple-at-a-time spill-largest rule
// picks, at any batch size, whether the budget spills some children or all.
func TestPartitionPassKeepsInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := transcriptSchema.Width()
	var input []byte
	for i := 0; i < 3000; i++ {
		input = append(input, transcriptSchema.MustMake(rng.Int63n(500), rng.Int63n(40))...)
	}
	// Child c takes (c+1)/15 of the routed rows, so the largest resident
	// child is rarely the first one; a seventh of the rows is discarded.
	// The pass routes on the key plan's quotient-key hash.
	const fanOut = 5
	plan := CompileKeyPlan(transcriptSchema, []int{1})
	hash := transcriptSchema.HashFunc([]int{0})
	route := func(h uint64) int {
		if (h>>32)%7 == 0 {
			return -1
		}
		c, r := 0, h%15
		for r >= uint64((c+1)*(c+2)/2) {
			c++
		}
		return c
	}
	want := make([][]byte, fanOut)
	for off := 0; off < len(input); off += w {
		if c := route(hash(input[off : off+w])); c >= 0 {
			want[c] = append(want[c], input[off:off+w]...)
		}
	}

	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"spill-largest", 12 << 10},
		// A budget under one row spills each child at its first row, so
		// every routed row goes to disk.
		{"spill-all", 1},
	} {
		// The spill-largest rule applied one row at a time.
		wantSpilled := make([]bool, fanOut)
		resident, held := make([]int, fanOut), 0
		for off := 0; off < len(input); off += w {
			c := route(hash(input[off : off+w]))
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
				defer func() {
					for _, f := range files {
						f.Drop()
					}
					if got := storage.LiveSpillFiles(); got != live {
						t.Errorf("spill files leaked: %d -> %d", live, got)
					}
				}()
				pass := partitionPass{env: env, schema: transcriptSchema, fanOut: fanOut, key: &plan.quot, route: route,
					budget: tc.budget, newSpill: newSpill}
				parts, err := pass.run(exec.NewArenaScan(transcriptSchema, input))
				if err != nil {
					t.Fatal(err)
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

// TestPartitionedPathsAcrossInputs runs recursive division under both
// strategies at 1 %, 5 %, 25 % and 100 % of the dividend's footprint, unseeded
// and seeded with a plan cache's candidate count, over int, composite and
// CHAR keys and over every input protocol: an arena, a tuple slice, a heap
// file, each behind a context, and a tuple-only input. Every quotient must
// equal the reference, and the cost counters and recursion statistics must
// not depend on how the dividend arrives.
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
	for _, shape := range []workload.KeyShape{workload.IntKey, workload.CompositeKey, workload.CharKey} {
		rk := inst.Rekey(shape)
		ds := rk.DividendSchema
		footprint := len(rk.Dividend) * ds.Width()

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
		// A plan cache seeds a rerun with the candidate count an earlier
		// execution observed; an unbudgeted run observes all of them.
		_, plain, err := DivideRecursive(spec(inputs[0].op()), Env{}, QuotientPartitioning, RecursiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		modes := []struct {
			name  string
			ropts RecursiveOptions
		}{
			{"recursive", RecursiveOptions{}},
			{"seeded", RecursiveOptions{SeedCandidates: plain.Candidates}},
		}

		for _, strategy := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
			for _, pct := range []int{1, 5, 25, 100} {
				for _, mode := range modes {
					t.Run(fmt.Sprintf("%v/%s/%v/%d%%", shape, mode.name, strategy, pct), func(t *testing.T) {
						var first exec.Counters
						var firstStats RecursiveStats
						for i, in := range inputs {
							live := storage.LiveSpillFiles()
							var counters exec.Counters
							env := Env{Pool: buffer.New(256 << 10), TempDev: disk.NewDevice("temp", disk.PaperRunPageSize),
								Counters: &counters, MemoryBudget: max(footprint*pct/100, 1)}
							q, st, err := DivideRecursive(spec(in.op()), env, strategy, mode.ropts)
							if err != nil {
								t.Fatalf("%s: %v", in.name, err)
							}
							if mode.ropts.SeedCandidates > 0 && strategy == QuotientPartitioning && pct == 1 && st.SkippedAttempts != 1 {
								t.Errorf("%s: the seed did not skip the root attempt: %+v", in.name, st)
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
	}
}
