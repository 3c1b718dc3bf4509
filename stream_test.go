package reldiv

import (
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
)

func streamInputs() (StreamInput, StreamInput) {
	dividendRows := [][]any{
		{int64(1), int64(101)},
		{int64(1), int64(102)},
		{int64(2), int64(101)},
		{int64(3), int64(101)},
		{int64(3), int64(102)},
		{int64(3), int64(999)},
	}
	divisorRows := [][]any{{int64(101)}, {int64(102)}}
	dividend := StreamInput{
		Columns: []Column{Int64Col("student"), Int64Col("course")},
		Open:    func() (RowReader, error) { return SliceReader(dividendRows), nil },
	}
	divisor := StreamInput{
		Columns: []Column{Int64Col("course")},
		Open:    func() (RowReader, error) { return SliceReader(divisorRows), nil },
	}
	return dividend, divisor
}

func collectStream(t *testing.T, opts *Options) []int64 {
	t.Helper()
	dividend, divisor := streamInputs()
	var got []int64
	err := DivideStream(dividend, divisor, nil, opts, func(row []any) error {
		got = append(got, row[0].(int64))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDivideStream(t *testing.T) {
	got := collectStream(t, nil)
	if len(got) != 2 {
		t.Fatalf("quotient = %v, want students 1 and 3", got)
	}
	seen := map[int64]bool{got[0]: true, got[1]: true}
	if !seen[1] || !seen[3] {
		t.Errorf("quotient = %v", got)
	}
}

func TestDivideStreamEarlyEmit(t *testing.T) {
	got := collectStream(t, &Options{EarlyEmit: true})
	if len(got) != 2 {
		t.Errorf("early emit quotient = %v", got)
	}
}

func TestDivideStreamOtherAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{Naive, SortAggregationJoin, HashAggregationJoin} {
		got := collectStream(t, &Options{Algorithm: alg})
		if len(got) != 2 {
			t.Errorf("%v: quotient = %v", alg, got)
		}
	}
}

func TestDivideStreamEmitError(t *testing.T) {
	dividend, divisor := streamInputs()
	sentinel := errors.New("stop")
	err := DivideStream(dividend, divisor, nil, nil, func(row []any) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

func TestDivideStreamBadInputs(t *testing.T) {
	dividend, divisor := streamInputs()
	if err := DivideStream(StreamInput{}, divisor, nil, nil, nil); err == nil {
		t.Error("missing columns accepted")
	}
	noOpen := dividend
	noOpen.Open = nil
	if err := DivideStream(noOpen, divisor, nil, nil, nil); err == nil {
		t.Error("missing factory accepted")
	}
	if err := DivideStream(dividend, divisor, []string{"nope"}, nil, nil); err == nil {
		t.Error("unknown match column accepted")
	}
	// Row with the wrong type surfaces as an error.
	bad := StreamInput{
		Columns: []Column{Int64Col("student"), Int64Col("course")},
		Open: func() (RowReader, error) {
			return SliceReader([][]any{{"oops", int64(1)}}), nil
		},
	}
	if err := DivideStream(bad, divisor, nil, nil, func([]any) error { return nil }); err == nil {
		t.Error("bad row type accepted")
	}
}

func TestSliceReaderEOF(t *testing.T) {
	r := SliceReader(nil)
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty reader: %v", err)
	}
}

func TestStreamReplayability(t *testing.T) {
	// Count how many times the divisor factory runs: with-join algorithms
	// scan it more than once, which is why StreamInput.Open is a factory.
	dividend, divisor := streamInputs()
	opens := 0
	orig := divisor.Open
	divisor.Open = func() (RowReader, error) {
		opens++
		return orig()
	}
	err := DivideStream(dividend, divisor, nil,
		&Options{Algorithm: HashAggregationJoin}, func([]any) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if opens < 2 {
		t.Errorf("divisor opened %d times; with-join algorithms need a replayable stream", opens)
	}
}

// TestDivideStreamRunsParallelPlan: Workers > 1 runs the exchange over the
// streams, as Divide does, and returns division.Reference's quotient.
func TestDivideStreamRunsParallelPlan(t *testing.T) {
	dividend := NewRelation("transcript", Int64Col("student"), Int64Col("course"))
	for s := 0; s < 60; s++ {
		for c := 0; c < 8; c++ {
			if s%3 != 0 || c != s%8 { // every third student misses a course
				dividend.MustInsert(s, c)
			}
		}
		dividend.MustInsert(s, 99) // a course outside the divisor
	}
	_, divisor := bigRelations(0, 8)
	ref, err := division.Reference(division.Spec{
		Dividend:    exec.NewMemScan(dividend.schema, arenaTuples(dividend)),
		Divisor:     exec.NewMemScan(divisor.schema, arenaTuples(divisor)),
		DivisorCols: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(ref))
	for i, q := range ref {
		want[i] = dividend.schema.Int64(q, 0)
	}
	slices.Sort(want)
	if len(want) != 40 {
		t.Fatalf("reference quotient has %d rows, want 40", len(want))
	}

	divisions := obs.Default.Counter("parallel.divisions")
	before := divisions.Load()
	var streamed [][]any
	err = DivideStream(relationStream(dividend), relationStream(divisor), nil,
		&Options{Workers: 2, BitVectorFilter: true}, func(row []any) error {
			streamed = append(streamed, row)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if divisions.Load() == before {
		t.Error("DivideStream with Workers: 2 did not run the exchange: parallel.divisions unchanged")
	}
	if got := sortedFirstColumn(streamed); !slices.Equal(got, want) {
		t.Errorf("quotient %v, reference %v", got, want)
	}
}

// TestDivideStreamFollowsDividePlan: the options plan a streamed division as
// they plan Divide's, so both entry points return the same quotient or the
// same typed error — a budget runs recursive hash-division whatever the
// algorithm, on both.
func TestDivideStreamFollowsDividePlan(t *testing.T) {
	dividend, divisor := bigRelations(50, 8)
	for _, opts := range []Options{
		{Algorithm: Naive, MemoryBudget: 64},
		{Algorithm: SortAggregationJoin, MemoryBudget: 4 << 10},
		{Workers: 2, BitVectorFilter: true},
		{Workers: 2, DivisorPartitioned: true},
		{Algorithm: HashDivision, EarlyEmit: true},
	} {
		rel, derr := Divide(dividend, divisor, nil, &opts)
		var streamed [][]any
		serr := DivideStream(relationStream(dividend), relationStream(divisor), nil, &opts, func(row []any) error {
			streamed = append(streamed, row)
			return nil
		})
		if derr != nil || serr != nil {
			if derr == nil || serr == nil || derr.Error() != serr.Error() {
				t.Errorf("%+v: Divide error %v, DivideStream error %v", opts, derr, serr)
			}
			continue
		}
		if got, want := sortedFirstColumn(streamed), sortedFirstColumn(rel.Rows()); !slices.Equal(got, want) {
			t.Errorf("%+v: DivideStream quotient %v, Divide %v", opts, got, want)
		}
	}
	// The first plan fails on both paths with the recursion's typed error.
	_, err := Divide(dividend, divisor, nil, &Options{Algorithm: Naive, MemoryBudget: 64})
	if !errors.Is(err, division.ErrPartitionDepth) {
		t.Errorf("Divide under a 64-byte budget: %v, want division.ErrPartitionDepth", err)
	}
}
