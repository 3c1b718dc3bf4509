package reldiv

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// relSource is one dividend/divisor pair built through one way a Relation
// comes to be, with the pair as stream inputs.
type relSource struct {
	name              string
	dividend, divisor *Relation
	streams           [2]StreamInput
}

// relationStream streams a relation's rows.
func relationStream(r *Relation) StreamInput {
	cols := make([]Column, r.schema.NumFields())
	for i := range cols {
		f := r.schema.Field(i)
		cols[i] = Column{Name: f.Name, kind: f.Kind, width: f.Width}
	}
	return StreamInput{Columns: cols, Open: func() (RowReader, error) { return SliceReader(r.Rows()), nil }}
}

// relationSources builds the same dividend and divisor rows through Insert,
// FromCSV, Filter, Project, a durable Snapshot and DurableTable.Relation.
func relationSources(t *testing.T, dividendRows, divisorRows [][]any) []relSource {
	t.Helper()
	cols := [2][]Column{
		{Int64Col("student"), Int64Col("course")},
		{Int64Col("course")},
	}
	rows := [2][][]any{dividendRows, divisorRows}
	names := [2]string{"transcript", "courses"}
	build := func(f func(name string, cols []Column, rows [][]any) *Relation) [2]*Relation {
		return [2]*Relation{f(names[0], cols[0], rows[0]), f(names[1], cols[1], rows[1])}
	}
	insert := func(name string, cols []Column, rows [][]any) *Relation {
		r := NewRelation(name, cols...)
		for _, row := range rows {
			if err := r.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	fromCSV := func(name string, cols []Column, rows [][]any) *Relation {
		var buf bytes.Buffer
		if err := insert(name, cols, rows).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := FromCSV(&buf, name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Every row gets a negative twin that the filter drops.
	filter := func(name string, cols []Column, rows [][]any) *Relation {
		r := NewRelation(name, cols...)
		for _, row := range rows {
			r.MustInsert(row...)
			twin := slices.Clone(row)
			twin[0] = -1 - twin[0].(int64)
			r.MustInsert(twin...)
		}
		return r.Filter(func(row []any) bool { return row[0].(int64) >= 0 })
	}
	// A leading CHAR column that the projection drops.
	project := func(name string, cols []Column, rows [][]any) *Relation {
		wide := NewRelation(name, append([]Column{StringCol("tag", 5)}, cols...)...)
		keep := make([]string, len(cols))
		for i, c := range cols {
			keep[i] = c.Name
		}
		for i, row := range rows {
			wide.MustInsert(append([]any{fmt.Sprint(i % 1000)}, row...)...)
		}
		r, err := wide.Project(keep...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	store, err := OpenDurableStore(disk.NewDevice("wal", disk.PaperPageSize), disk.NewDevice("data", disk.PaperPageSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var tables [2]*DurableTable
	for i := range tables {
		if tables[i], err = store.CreateTable(names[i], cols[i]...); err != nil {
			t.Fatal(err)
		}
		if err := tables[i].InsertRows(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := store.Snapshot(names[:]...)
	if err != nil {
		t.Fatal(err)
	}
	var tableRels [2]*Relation
	for i, tab := range tables {
		if tableRels[i], err = tab.Relation(); err != nil {
			t.Fatal(err)
		}
	}

	var out []relSource
	for _, s := range []struct {
		name string
		rels [2]*Relation
	}{
		{"insert", build(insert)},
		{"csv", build(fromCSV)},
		{"filter", build(filter)},
		{"project", build(project)},
		{"snapshot", [2]*Relation{snap[names[0]], snap[names[1]]}},
		{"table", tableRels},
	} {
		src := relSource{name: s.name, dividend: s.rels[0], divisor: s.rels[1]}
		src.streams = [2]StreamInput{relationStream(s.rels[0]), relationStream(s.rels[1])}
		out = append(out, src)
	}
	// The durable sources stream straight off their tables.
	for i := range out[4:] {
		out[4+i].streams = [2]StreamInput{tables[0].StreamInput(), tables[1].StreamInput()}
	}
	return out
}

// arenaTuples slices a relation's arena into tuples, for a MemScan of the
// same rows.
func arenaTuples(r *Relation) []tuple.Tuple {
	out := make([]tuple.Tuple, r.NumRows())
	for i := range out {
		out[i] = r.row(i)
	}
	return out
}

// memScanCounters runs the plan divide picks for opts (serial or budgeted)
// over MemScans of the relations' rows and returns its Counters.
func memScanCounters(t *testing.T, dividend, divisor *Relation, opts Options) exec.Counters {
	t.Helper()
	var c exec.Counters
	sp := division.Spec{
		Dividend:    exec.NewMemScan(dividend.schema, arenaTuples(dividend)),
		Divisor:     exec.NewMemScan(divisor.schema, arenaTuples(divisor)),
		DivisorCols: []int{1},
	}
	env := division.Env{
		Pool:            buffer.New(buffer.PaperPoolBytes),
		TempDev:         disk.NewDevice("temp", disk.PaperRunPageSize),
		ExpectedDivisor: divisor.NumRows(),
		Counters:        &c,
	}
	if opts.MemoryBudget > 0 {
		env.MemoryBudget = opts.MemoryBudget
		_, st, err := division.DivideRecursive(sp, env, division.QuotientPartitioning, division.RecursiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Repartitions == 0 {
			t.Fatalf("a %d-byte budget divides the instance without re-partitioning", opts.MemoryBudget)
		}
		return c
	}
	alg := opts.Algorithm
	if alg == Auto {
		alg = choose(dividend, divisor)
	}
	ialg, err := alg.internal()
	if err != nil {
		t.Fatal(err)
	}
	op, err := division.New(ialg, sp, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); err != nil {
		t.Fatal(err)
	}
	return c
}

func sortedFirstColumn(rows [][]any) []int64 {
	out := make([]int64, len(rows))
	for i, row := range rows {
		out[i] = row[0].(int64)
	}
	slices.Sort(out)
	return out
}

// TestRelationSourcesAcrossPaths divides relations built every way a
// Relation comes to be along every execution path that scans one, and
// demands division.Reference's quotient; where the path reports Counters,
// they must equal those of the same plan over a MemScan of the same rows.
func TestRelationSourcesAcrossPaths(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples: 12, QuotientCandidates: 300,
		FullFraction: 0.3, MatchFraction: 0.7, NoisePerCandidate: 1,
		DuplicateFactor: 2, DivisorDuplicateFactor: 2,
		Shuffle: true, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := division.Reference(division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(ref))
	for i, q := range ref {
		want[i] = workload.TranscriptSchema.Project([]int{0}).Int64(q, 0)
	}
	slices.Sort(want)
	if len(want) == 0 || len(inst.Dividend) <= exec.DefaultBatchSize {
		t.Fatalf("degenerate instance: %d quotient rows over %d dividend rows", len(want), len(inst.Dividend))
	}

	toRows := func(s *tuple.Schema, ts []tuple.Tuple) [][]any {
		out := make([][]any, len(ts))
		for i, tp := range ts {
			out[i] = s.Row(tp)
		}
		return out
	}
	sources := relationSources(t, toRows(workload.TranscriptSchema, inst.Dividend), toRows(workload.CourseSchema, inst.Divisor))

	type path struct {
		name     string
		opts     Options
		counters bool // the path reports Counters to compare with a MemScan run
	}
	paths := []path{
		{"serial/auto", Options{}, true},
		{"workers=2/quotient", Options{Workers: 2}, false},
		{"workers=2/divisor", Options{Workers: 2, DivisorPartitioned: true}, false},
		{"budget", Options{MemoryBudget: 6 << 10}, true},
		{"deadline", Options{Algorithm: HashDivision, Timeout: time.Minute}, true},
	}
	for _, alg := range []Algorithm{Naive, SortAggregationJoin, HashAggregationJoin, HashDivision} {
		paths = append(paths, path{"serial/" + alg.String(), Options{Algorithm: alg}, true})
	}
	for _, src := range sources {
		if n := src.dividend.NumRows(); n != len(inst.Dividend) {
			t.Fatalf("%s: %d dividend rows, want %d", src.name, n, len(inst.Dividend))
		}
		for _, p := range paths {
			var c exec.Counters
			q, err := divide(context.Background(), src.dividend, src.divisor, nil, &p.opts, nil, &c)
			if err != nil {
				t.Fatalf("%s/%s: %v", src.name, p.name, err)
			}
			if got := sortedFirstColumn(q.Rows()); !slices.Equal(got, want) {
				t.Fatalf("%s/%s: quotient %v, reference %v", src.name, p.name, got, want)
			}
			if !p.counters {
				continue
			}
			if ref := memScanCounters(t, src.dividend, src.divisor, p.opts); c != ref {
				t.Errorf("%s/%s: counters %+v, over a MemScan %+v", src.name, p.name, c, ref)
			}
		}
		for _, p := range paths {
			var streamed [][]any
			if err := DivideStream(src.streams[0], src.streams[1], nil, &p.opts, func(row []any) error {
				streamed = append(streamed, row)
				return nil
			}); err != nil {
				t.Fatalf("%s/stream/%s: %v", src.name, p.name, err)
			}
			if got := sortedFirstColumn(streamed); !slices.Equal(got, want) {
				t.Fatalf("%s/stream/%s: quotient %v, reference %v", src.name, p.name, got, want)
			}
		}
	}
}

// TestSnapshotRelationIgnoresLaterInserts: a snapshot relation owns its
// rows; inserts acknowledged after the cut change neither its row count nor
// its contents.
func TestSnapshotRelationIgnoresLaterInserts(t *testing.T) {
	store, err := OpenDurableStore(disk.NewDevice("wal", 256), disk.NewDevice("data", 512), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tab, err := store.CreateTable("t", Int64Col("k"), Int64Col("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tab.Insert(i, 10*i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := store.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := tab.Relation()
	if err != nil {
		t.Fatal(err)
	}
	before := [2][][]any{snap["t"].Rows(), rel.Rows()}
	for i := 50; i < 120; i++ {
		if err := tab.Insert(i, -i); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range []*Relation{snap["t"], rel} {
		if r.NumRows() != 50 || fmt.Sprint(r.Rows()) != fmt.Sprint(before[i]) {
			t.Errorf("relation %d changed under later inserts: %d rows", i, r.NumRows())
		}
	}
	if tab.NumRows() != 120 {
		t.Errorf("table holds %d rows, want 120", tab.NumRows())
	}
}

// TestDurableStreamInputOpenAllocations: opening a durable table's stream
// copies the table once and decodes nothing up front.
func TestDurableStreamInputOpenAllocations(t *testing.T) {
	store, err := OpenDurableStore(disk.NewDevice("wal", disk.PaperPageSize), disk.NewDevice("data", disk.PaperPageSize),
		&DurableOptions{PoolBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tab, err := store.CreateTable("t", Int64Col("k"), Int64Col("v"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 7)}
	}
	if err := tab.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	in := tab.StreamInput()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := in.Open(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("StreamInput().Open on %d rows allocates %.0f times, want fewer than 100", n, allocs)
	}
	r, err := in.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		row, err := r.Next()
		if i == n {
			if err == nil {
				t.Fatalf("row %d past the end: %v", i, row)
			}
			break
		}
		if err != nil || fmt.Sprint(row) != fmt.Sprint(rows[i]) {
			t.Fatalf("row %d = %v (%v), want %v", i, row, err, rows[i])
		}
	}
}
