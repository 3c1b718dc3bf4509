package division

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestPlaceDivisorMatchesRouter checks that the two halves of divisor
// partitioning agree: every dividend tuple whose divisor value exists goes
// to the site holding that value, phases number exactly the non-empty
// clusters, and quotient partitioning replicates the divisor without
// phases.
func TestPlaceDivisorMatchesRouter(t *testing.T) {
	inst, err := workload.Generate(workload.Config{
		DivisorTuples:      30,
		QuotientCandidates: 40,
		FullFraction:       0.5,
		MatchFraction:      0.7,
		Seed:               5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
	const sites = 4
	place := PlaceDivisor(inst.Divisor, DivisorPartitioning, sites)
	next := 0
	for i, cluster := range place.Clusters {
		if len(cluster) == 0 {
			if place.Phase[i] != -1 {
				t.Errorf("empty site %d has phase %d", i, place.Phase[i])
			}
			continue
		}
		if place.Phase[i] != next {
			t.Errorf("site %d has phase %d, want %d", i, place.Phase[i], next)
		}
		next++
	}
	if place.Phases != next {
		t.Errorf("Phases = %d, want %d", place.Phases, next)
	}
	siteOf := map[string]int{}
	for i, cluster := range place.Clusters {
		for _, d := range cluster {
			siteOf[string(d)] = i
		}
	}
	plan := CompileKeyPlan(sp.Dividend.Schema(), sp.DivisorCols)
	rt := NewRouter(DivisorPartitioning, nil, sites)
	for _, r := range inst.Dividend {
		site, ok := routeTuple(plan, &rt, r)
		if !ok {
			t.Fatal("a router without a filter dropped a tuple")
		}
		if want, match := siteOf[string(workload.TranscriptSchema.ProjectTuple(r, []int{1}))]; match && site != want {
			t.Fatalf("dividend tuple routed to site %d, its divisor value is on site %d", site, want)
		}
	}

	rep := PlaceDivisor(inst.Divisor, QuotientPartitioning, sites)
	for i := range rep.Clusters {
		if len(rep.Clusters[i]) != len(inst.Divisor) || rep.Phase[i] != -1 {
			t.Errorf("quotient partitioning site %d: %d divisor tuples, phase %d",
				i, len(rep.Clusters[i]), rep.Phase[i])
		}
	}
	if rep.Phases != 0 {
		t.Errorf("quotient partitioning numbered %d phases", rep.Phases)
	}
}

// routeTuple routes one dividend tuple on its plan words.
func routeTuple(plan *KeyPlan, rt *Router, t tuple.Tuple) (int, bool) {
	return rt.Dest(plan.div.hashRow(t), plan.quot.hashRow(t))
}

// TestRouterFilter checks the filter half of the Router: with a Babb filter
// built from the divisor, exactly the tuples whose divisor value hashes to
// an empty bit are dropped, and no matching tuple ever is.
func TestRouterFilter(t *testing.T) {
	ds := workload.TranscriptSchema
	ss := workload.CourseSchema
	divisor := []tuple.Tuple{ss.MustMake(1), ss.MustMake(2), ss.MustMake(3)}
	bv := bitmap.New(FilterBits(len(divisor)))
	for _, d := range divisor {
		SetFilterBit(bv, d)
	}
	sp := Spec{Dividend: exec.NewMemScan(ds, nil), Divisor: exec.NewMemScan(ss, divisor), DivisorCols: []int{1}}
	plan := CompileKeyPlan(sp.Dividend.Schema(), sp.DivisorCols)
	rt := NewRouter(QuotientPartitioning, bv, 3)
	for course := int64(0); course < 200; course++ {
		_, ok := routeTuple(plan, &rt, ds.MustMake(7, course))
		if course >= 1 && course <= 3 && !ok {
			t.Errorf("filter dropped divisor course %d", course)
		}
		if want := bv.Test(int(tuple.HashBytes(ss.MustMake(course)) % uint64(bv.Len()))); ok != want {
			t.Errorf("course %d: passed=%v, filter bit %v", course, ok, want)
		}
	}
	if FilterBits(3) != 25 {
		t.Errorf("FilterBits(3) = %d, want 25", FilterBits(3))
	}
}

// TestPhaseCollector checks the collection site: only candidates every
// phase reported are emitted, and duplicates from one phase count once.
func TestPhaseCollector(t *testing.T) {
	qs := tuple.NewSchema(tuple.Int64Field("student"))
	c := NewPhaseCollector(qs, 3, 4, 2)
	for _, r := range []struct{ student, phase int64 }{
		{1, 0}, {1, 1}, {1, 2}, // all phases: quotient
		{2, 0}, {2, 2}, // missing phase 1
		{3, 1}, {3, 1}, // one phase, twice
		{4, 2}, {4, 0}, {4, 1}, {4, 1},
	} {
		c.Add(qs.MustMake(r.student), int(r.phase))
	}
	var got []int64
	if err := c.Scan(func(q tuple.Tuple) error {
		got = append(got, qs.Int64(q, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !(got[0] == 1 && got[1] == 4 || got[0] == 4 && got[1] == 1) {
		t.Errorf("quotient %v, want [1 4]", got)
	}
}
