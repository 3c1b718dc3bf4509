package reldiv

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/division"
	"repro/internal/obs"
)

func ordersProducts() (*Relation, *Relation) {
	orders := NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products := NewRelation("products", Int64Col("product"))
	for _, p := range []int{10, 20, 30} {
		products.MustInsert(p)
	}
	// Customer 1 buys everything, 2 misses product 30, 3 buys everything
	// plus an item outside the divisor.
	for _, p := range []int{10, 20, 30} {
		orders.MustInsert(1, p)
	}
	orders.MustInsert(2, 10)
	orders.MustInsert(2, 20)
	for _, p := range []int{10, 20, 30, 99} {
		orders.MustInsert(3, p)
	}
	return orders, products
}

func quotientCustomers(t *testing.T, q *Relation) map[int64]bool {
	t.Helper()
	out := make(map[int64]bool)
	for _, row := range q.Rows() {
		out[row[0].(int64)] = true
	}
	return out
}

func TestDivideDefault(t *testing.T) {
	orders, products := ordersProducts()
	q, err := Divide(orders, products, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := quotientCustomers(t, q)
	if len(got) != 2 || !got[1] || !got[3] {
		t.Errorf("quotient = %v, want {1,3}", got)
	}
	if cols := q.Columns(); len(cols) != 1 || cols[0] != "customer" {
		t.Errorf("quotient columns = %v", cols)
	}
	if !strings.Contains(q.Name(), "÷") {
		t.Errorf("quotient name = %q", q.Name())
	}
}

func TestDivideEveryAlgorithm(t *testing.T) {
	orders, products := ordersProducts()
	for _, alg := range []Algorithm{Naive, SortAggregationJoin, HashAggregationJoin, HashDivision} {
		q, err := Divide(orders, products, nil, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := quotientCustomers(t, q)
		if len(got) != 2 || !got[1] || !got[3] {
			t.Errorf("%v: quotient = %v", alg, got)
		}
	}
}

func TestDivideExplicitOn(t *testing.T) {
	// Dividend column named differently than the divisor's.
	taken := NewRelation("taken", Int64Col("student"), Int64Col("cno"))
	courses := NewRelation("courses", Int64Col("course_no"))
	courses.MustInsert(1)
	taken.MustInsert(7, 1)
	q, err := Divide(taken, courses, []string{"cno"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 1 {
		t.Errorf("quotient = %v", q.Rows())
	}
	// Default name matching fails for mismatched names.
	if _, err := Divide(taken, courses, nil, nil); err == nil {
		t.Error("expected error when divisor column name is absent from dividend")
	}
}

func TestDivideParallel(t *testing.T) {
	orders, products := ordersProducts()
	for _, opts := range []*Options{
		{Workers: 4},
		{Workers: 4, DivisorPartitioned: true},
		{Workers: 3, BitVectorFilter: true},
	} {
		q, err := Divide(orders, products, nil, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got := quotientCustomers(t, q)
		if len(got) != 2 || !got[1] || !got[3] {
			t.Errorf("%+v: quotient = %v", opts, got)
		}
	}
}

func TestDivideWithMemoryBudget(t *testing.T) {
	orders := NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products := NewRelation("products", Int64Col("product"))
	for p := 0; p < 5; p++ {
		products.MustInsert(p)
	}
	for c := 0; c < 500; c++ {
		for p := 0; p < 5; p++ {
			orders.MustInsert(c, p)
		}
	}
	q, err := Divide(orders, products, nil, &Options{MemoryBudget: 24 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 500 {
		t.Errorf("quotient = %d rows, want 500", q.NumRows())
	}
}

// partialOrders is 600 customers over 8 products in which every third
// customer buys all of them and the rest miss one; want is the quotient.
func partialOrders() (orders, products *Relation, want map[int64]bool) {
	orders = NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products = NewRelation("products", Int64Col("product"))
	for p := 0; p < 8; p++ {
		products.MustInsert(p)
	}
	want = map[int64]bool{}
	for c := 0; c < 600; c++ {
		full := c%3 == 0
		if full {
			want[int64(c)] = true
		}
		for p := 0; p < 8; p++ {
			if full || p != c%8 {
				orders.MustInsert(c, p)
			}
		}
	}
	return orders, products, want
}

// quarterTableBudget is a quarter of the hash tables' peak footprint when
// orders ÷ products runs in memory.
func quarterTableBudget(t *testing.T, orders, products *Relation) int {
	t.Helper()
	_, st, err := DivideWithStats(orders, products, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st.PeakTableBytes / 4
}

// TestDivideMemoryBudgetRepartitions: a budget below the table footprint
// runs recursive hash-division, which re-partitions the overflowing input
// (counted in division.repartitions) and still returns the exact quotient.
func TestDivideMemoryBudgetRepartitions(t *testing.T) {
	orders, products, want := partialOrders()
	budget := quarterTableBudget(t, orders, products)
	before := obs.Default.Get("division.repartitions")
	q, err := Divide(orders, products, nil, &Options{MemoryBudget: budget})
	if err != nil {
		t.Fatalf("budget %d: %v", budget, err)
	}
	got := quotientCustomers(t, q)
	if len(got) != len(want) {
		t.Fatalf("quotient = %d rows, want %d", len(got), len(want))
	}
	for c := range want {
		if !got[c] {
			t.Fatalf("customer %d missing from the quotient", c)
		}
	}
	if obs.Default.Get("division.repartitions") <= before {
		t.Fatalf("budget %d divided without re-partitioning", budget)
	}
}

// TestDivideStreamMemoryBudgetRepartitions: a streamed division under a
// budget its tables outgrow re-partitions as Divide does instead of failing,
// and the budget takes precedence over EarlyEmit.
func TestDivideStreamMemoryBudgetRepartitions(t *testing.T) {
	orders, products, want := partialOrders()
	budget := quarterTableBudget(t, orders, products)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"auto", Options{MemoryBudget: budget}},
		{"early-emit", Options{Algorithm: HashDivision, EarlyEmit: true, MemoryBudget: budget}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := obs.Default.Get("division.repartitions")
			got := map[int64]bool{}
			if err := DivideStream(relationStream(orders), relationStream(products), nil, &c.opts, func(row []any) error {
				got[row[0].(int64)] = true
				return nil
			}); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			if len(got) != len(want) {
				t.Fatalf("quotient = %d rows, want %d", len(got), len(want))
			}
			for cust := range want {
				if !got[cust] {
					t.Fatalf("customer %d missing from the quotient", cust)
				}
			}
			if obs.Default.Get("division.repartitions") <= before {
				t.Fatalf("budget %d divided without re-partitioning", budget)
			}
		})
	}
}

// TestDivideWithStatsBudgetOverflowFails: DivideWithStats runs one
// in-memory hash-division, so a budget its tables outgrow fails the call
// with the division's memory-budget error rather than re-partitioning.
func TestDivideWithStatsBudgetOverflowFails(t *testing.T) {
	orders, products, _ := partialOrders()
	budget := quarterTableBudget(t, orders, products)
	q, _, err := DivideWithStats(orders, products, nil, &Options{MemoryBudget: budget})
	if !errors.Is(err, division.ErrMemoryBudget) || q != nil {
		t.Fatalf("budget %d: quotient %v, err %v, want division.ErrMemoryBudget", budget, q, err)
	}
}

func TestDivideEarlyEmit(t *testing.T) {
	orders, products := ordersProducts()
	q, err := Divide(orders, products, nil, &Options{Algorithm: HashDivision, EarlyEmit: true})
	if err != nil {
		t.Fatal(err)
	}
	got := quotientCustomers(t, q)
	if len(got) != 2 {
		t.Errorf("early emit quotient = %v", got)
	}
}

func TestStringColumns(t *testing.T) {
	transcript := NewRelation("transcript", StringCol("student", 8), StringCol("course", 12))
	courses := NewRelation("courses", StringCol("course", 12))
	courses.MustInsert("Database1")
	courses.MustInsert("Database2")
	transcript.MustInsert("Ann", "Database1")
	transcript.MustInsert("Ann", "Database2")
	transcript.MustInsert("Barb", "Database2")
	q, err := Divide(transcript, courses, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 1 || q.Row(0)[0].(string) != "Ann" {
		t.Errorf("quotient = %v", q.Rows())
	}
}

func TestExplainPrefersHashDivision(t *testing.T) {
	orders, products := ordersProducts()
	plan, err := Explain(orders, products, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != HashDivision {
		t.Errorf("chosen = %v, want hash-division", plan.Chosen)
	}
	if len(plan.EstimatedMS) != 4 {
		t.Errorf("estimates for %d algorithms, want 4", len(plan.EstimatedMS))
	}
	if plan.EstimatedMS[Naive] <= plan.EstimatedMS[HashDivision] {
		t.Error("naive should be estimated costlier than hash-division")
	}
}

func TestFilterProjectHelpers(t *testing.T) {
	orders, _ := ordersProducts()
	only1 := orders.Filter(func(row []any) bool { return row[0].(int64) == 1 })
	if only1.NumRows() != 3 {
		t.Errorf("filter = %d rows", only1.NumRows())
	}
	proj, err := orders.Project("product")
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Columns()) != 1 || proj.Columns()[0] != "product" {
		t.Errorf("project columns = %v", proj.Columns())
	}
	if _, err := orders.Project("nope"); err == nil {
		t.Error("projecting a missing column should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orders, _ := ordersProducts()
	var buf bytes.Buffer
	if err := orders.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := FromCSV(&buf, "orders", Int64Col("customer"), Int64Col("product"))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != orders.NumRows() {
		t.Errorf("round trip: %d vs %d rows", back.NumRows(), orders.NumRows())
	}
	if !bytes.Equal(orders.rows, back.rows) {
		t.Fatalf("round trip changed the rows: %v vs %v", back.Rows(), orders.Rows())
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV(strings.NewReader("a,b\n"), "x", Int64Col("v"), Int64Col("w")); err == nil {
		t.Error("non-numeric field accepted for int column")
	}
	if _, err := FromCSV(strings.NewReader("1,2,3\n"), "x", Int64Col("v")); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	a, err := ParseAlgorithm("hash-division")
	if err != nil || a != HashDivision {
		t.Errorf("ParseAlgorithm = %v, %v", a, err)
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if HashDivision.String() != "hash-division" {
		t.Errorf("String = %q", HashDivision.String())
	}
}

func TestNoJoinVariantsExposedButGuarded(t *testing.T) {
	// The no-join variants are reachable when forced, matching the paper's
	// first-example setting.
	orders := NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products := NewRelation("products", Int64Col("product"))
	products.MustInsert(1)
	products.MustInsert(2)
	orders.MustInsert(7, 1)
	orders.MustInsert(7, 2)
	orders.MustInsert(8, 1)
	for _, alg := range []Algorithm{SortAggregation, HashAggregation} {
		q, err := Divide(orders, products, nil, &Options{Algorithm: alg, AssumeUniqueInputs: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := quotientCustomers(t, q)
		if len(got) != 1 || !got[7] {
			t.Errorf("%v: quotient = %v", alg, got)
		}
	}
}

func TestEmptyDivisor(t *testing.T) {
	orders, _ := ordersProducts()
	empty := NewRelation("products", Int64Col("product"))
	q, err := Divide(orders, empty, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 0 {
		t.Errorf("empty divisor quotient = %v", q.Rows())
	}
}

func TestDivideWithStats(t *testing.T) {
	orders, products := ordersProducts()
	q, st, err := DivideWithStats(orders, products, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 2 {
		t.Errorf("quotient = %d rows", q.NumRows())
	}
	if st.DividendTuples != int64(orders.NumRows()) {
		t.Errorf("DividendTuples = %d, want %d", st.DividendTuples, orders.NumRows())
	}
	if st.DivisorDistinct != 3 {
		t.Errorf("DivisorDistinct = %d", st.DivisorDistinct)
	}
	if st.DiscardedNoMatch != 1 { // customer 3's product 99
		t.Errorf("DiscardedNoMatch = %d", st.DiscardedNoMatch)
	}
	if st.Candidates != 3 || st.QuotientRows != 2 {
		t.Errorf("candidates/quotient = %d/%d", st.Candidates, st.QuotientRows)
	}
	if st.PeakTableBytes <= 0 {
		t.Error("no peak memory recorded")
	}
}

// TestOptionsMatrix runs every meaningful Options combination on one
// workload and demands the identical quotient from all of them.
func TestOptionsMatrix(t *testing.T) {
	orders := NewRelation("orders", Int64Col("customer"), Int64Col("product"))
	products := NewRelation("products", Int64Col("product"))
	for p := 0; p < 12; p++ {
		products.MustInsert(p)
	}
	want := 0
	for c := 0; c < 120; c++ {
		full := c%3 == 0
		if full {
			want++
		}
		for p := 0; p < 12; p++ {
			if full || (c+p)%2 == 0 {
				orders.MustInsert(c, p)
			}
		}
		orders.MustInsert(c, 999) // noise
	}
	matrix := []*Options{
		nil,
		{Algorithm: Naive},
		{Algorithm: SortAggregationJoin},
		{Algorithm: HashAggregationJoin},
		{Algorithm: HashDivision},
		{Algorithm: HashDivision, EarlyEmit: true},
		{MemoryBudget: 12 * 1024},
		{Workers: 3},
		{Workers: 3, DivisorPartitioned: true},
		{Workers: 3, BitVectorFilter: true},
		{Workers: 2, DivisorPartitioned: true, BitVectorFilter: true},
	}
	for i, opts := range matrix {
		q, err := Divide(orders, products, nil, opts)
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, opts, err)
		}
		if q.NumRows() != want {
			t.Errorf("case %d (%+v): %d rows, want %d", i, opts, q.NumRows(), want)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	r := NewRelation("r", Int64Col("a"))
	if err := r.Insert("x"); err == nil {
		t.Error("string into int column accepted")
	}
	if err := r.Insert(1, 2); err == nil {
		t.Error("wrong arity accepted")
	}
	// A row rejected after its first value was encoded leaves nothing behind.
	w := NewRelation("w", Int64Col("a"), StringCol("s", 2))
	w.MustInsert(1, "x")
	if err := w.Insert(2, "too long"); err == nil {
		t.Error("overflowing string accepted")
	}
	w.MustInsert(3, "y")
	if got := fmt.Sprint(w.Rows()); w.NumRows() != 2 || got != "[[1 x] [3 y]]" {
		t.Errorf("after a rejected insert: %d rows %s", w.NumRows(), got)
	}
}
