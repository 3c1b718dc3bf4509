package bench

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/workload"
)

func TestRunCellProducesAllCostViews(t *testing.T) {
	cell, err := RunCell(division.AlgHashDivision, 25, 25, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cell.QuotientSize != 25 {
		t.Errorf("quotient = %d, want 25", cell.QuotientSize)
	}
	if cell.R != 625 {
		t.Errorf("|R| = %d, want 625", cell.R)
	}
	if cell.SimulatedIO <= 0 {
		t.Error("no simulated I/O recorded")
	}
	if cell.CountedCPUMS <= 0 {
		t.Error("no counted CPU recorded")
	}
	if cell.MeasuredCPU <= 0 {
		t.Error("no measured CPU recorded")
	}
	if cell.TotalMS() <= cell.SimulatedIO {
		t.Error("TotalMS should add CPU to I/O")
	}
}

// TestSmallGridShape asserts the paper's §5.2 findings on a reduced grid
// using the deterministic cost view under the analytic page geometry
// (5 dividend / 10 divisor tuples per page):
//   - hash-based methods beat sort-based methods,
//   - a preceding semi-join makes aggregation-based division inferior to
//     the direct algorithms,
//   - hash-division is competitive with hash aggregation (within ~25%).
func TestSmallGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in short mode")
	}
	rows, err := Table4(AnalyticGeometryConfig(), []int{25, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		get := func(a division.Algorithm) float64 {
			for _, c := range row.Cells {
				if c.Alg == a {
					return c.TotalMS()
				}
			}
			t.Fatalf("missing cell %v", a)
			return 0
		}
		naive := get(division.AlgNaive)
		sortAgg := get(division.AlgSortAgg)
		sortAggJoin := get(division.AlgSortAggJoin)
		hashAgg := get(division.AlgHashAgg)
		hashAggJoin := get(division.AlgHashAggJoin)
		hashDiv := get(division.AlgHashDivision)

		if !(hashDiv < naive && hashDiv < sortAgg && hashDiv < sortAggJoin) {
			t.Errorf("(%d,%d): hash-division %.0f not beating sort-based (naive %.0f, sort-agg %.0f, +join %.0f)",
				row.S, row.Q, hashDiv, naive, sortAgg, sortAggJoin)
		}
		if !(hashAgg < sortAgg) {
			t.Errorf("(%d,%d): hash-agg %.0f not beating sort-agg %.0f", row.S, row.Q, hashAgg, sortAgg)
		}
		if !(hashDiv < hashAggJoin) {
			t.Errorf("(%d,%d): hash-division %.0f should beat hash-agg+join %.0f (no semi-join needed)",
				row.S, row.Q, hashDiv, hashAggJoin)
		}
		if !(sortAggJoin > sortAgg) {
			t.Errorf("(%d,%d): the extra sort and join should cost: %.0f vs %.0f",
				row.S, row.Q, sortAggJoin, sortAgg)
		}
		if hashDiv > hashAgg*1.25 {
			t.Errorf("(%d,%d): hash-division %.0f more than 25%% over hash-agg %.0f",
				row.S, row.Q, hashDiv, hashAgg)
		}
	}
}

func TestGapGrowsWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in short mode")
	}
	cfg := PaperConfig()
	small, err := RunCell(division.AlgNaive, 25, 25, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smallHD, err := RunCell(division.AlgHashDivision, 25, 25, cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunCell(division.AlgNaive, 100, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bigHD, err := RunCell(division.AlgHashDivision, 100, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smallFactor := small.TotalMS() / smallHD.TotalMS()
	bigFactor := big.TotalMS() / bigHD.TotalMS()
	if bigFactor <= smallFactor {
		t.Errorf("factor of difference should grow with relation size: %.2f at 25², %.2f at 100²",
			smallFactor, bigFactor)
	}
}

func TestDilutionSweepHashDivisionWins(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	points, err := DilutionSweep(50, 200, AnalyticGeometryConfig())
	if err != nil {
		t.Fatal(err)
	}
	// In every diluted point (R != Q×S), hash-division must be the cheapest
	// of the correct algorithms — the §4.6 speculation.
	for _, p := range points[1:] {
		var hd, best float64
		for i, c := range p.Cells {
			v := c.TotalMS()
			if c.Alg == division.AlgHashDivision {
				hd = v
			}
			if i == 0 || v < best {
				best = v
			}
		}
		if hd > best {
			t.Errorf("full=%.1f noise=%d: hash-division %.0f not the fastest (best %.0f)",
				p.FullFraction, p.Noise, hd, best)
		}
	}
}

// TestDuplicateSweepHashDivisionInsensitive checks the paper's closing
// claim ("all algorithms except hash-division require uniqueness in their
// inputs, which may require further expensive preprocessing") in its two
// concrete forms:
//
//   - against the SORT-based algorithms, duplication widens hash-division's
//     cost advantage (duplicates inflate the sorts);
//   - against hash aggregation, the preprocessing price is MEMORY — the
//     hash-based duplicate elimination must hold the entire distinct
//     dividend, while hash-division's tables hold only divisor + quotient.
func TestDuplicateSweepHashDivisionInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	points, err := DuplicateSweep(25, 100, AnalyticGeometryConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(p DuplicatePoint, alg division.Algorithm) float64 {
		for _, c := range p.Cells {
			if c.Alg == alg {
				return c.TotalMS()
			}
		}
		t.Fatalf("missing %v", alg)
		return 0
	}
	for _, sortAlg := range []division.Algorithm{division.AlgNaive, division.AlgSortAggJoin} {
		r1 := get(points[0], sortAlg) / get(points[0], division.AlgHashDivision)
		r4 := get(points[len(points)-1], sortAlg) / get(points[len(points)-1], division.AlgHashDivision)
		if r4 <= r1 {
			t.Errorf("%v vs hash-division ratio should grow with duplication: %.2f -> %.2f",
				sortAlg, r1, r4)
		}
	}
}

// TestDuplicateMemoryFootprint quantifies the memory side of the claim
// directly: hash aggregation's required duplicate elimination holds the
// whole distinct dividend, hash-division's tables hold divisor + quotient.
func TestDuplicateMemoryFootprint(t *testing.T) {
	wcfg := workload.PaperCase(25, 100, 1)
	wcfg.DuplicateFactor = 4
	inst, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := func() division.Spec {
		return division.Spec{
			Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
			Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
			DivisorCols: []int{1},
		}
	}

	// Hash-division's footprint.
	hd := division.NewHashDivision(sp(), division.Env{}, division.HashDivisionOptions{})
	if _, err := exec.Drain(hd); err != nil {
		t.Fatal(err)
	}
	hdBytes := hd.Stats().PeakTableBytes

	// The duplicate-elimination table hash aggregation needs first.
	dd := exec.NewHashDedup(exec.NewMemScan(workload.TranscriptSchema, inst.Dividend), nil)
	if err := dd.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := dd.Next(); err != nil {
			break
		}
		n++
	}
	dedupBytes := dd.TableMemBytes()
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 2500 {
		t.Fatalf("dedup kept %d, want 2500", n)
	}
	if dedupBytes < 4*hdBytes {
		t.Errorf("dedup table %d bytes not substantially larger than hash-division tables %d bytes",
			dedupBytes, hdBytes)
	}
}

func TestFormatters(t *testing.T) {
	t1 := FormatTable1(costmodel.PaperUnits())
	if !strings.Contains(t1, "RIO") || !strings.Contains(t1, "30") {
		t.Error("Table 1 formatting incomplete")
	}
	t2 := FormatTable2()
	if !strings.Contains(t2, "2536369") { // paper's largest naive cost
		t.Error("Table 2 formatting should include the paper's values")
	}
	t3 := FormatTable3(disk.PaperCost())
	if !strings.Contains(t3, "seek") {
		t.Error("Table 3 formatting incomplete")
	}
	cell, err := RunCell(division.AlgHashDivision, 25, 25, PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	row := Row{S: 25, Q: 25}
	for i := range row.Cells {
		row.Cells[i] = cell
	}
	t4 := FormatTable4([]Row{row}, true)
	if !strings.Contains(t4, "hash-div") {
		t.Error("Table 4 formatting incomplete")
	}
	if !strings.Contains(FormatTable4([]Row{row}, false), "measured") {
		t.Error("Table 4 measured-mode caption missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.PageSize != disk.PaperPageSize || cfg.PoolBytes <= 0 || cfg.Units.Comp == 0 {
		t.Errorf("withDefaults incomplete: %+v", cfg)
	}
}

// TestTable4HashCellsPinned pins the Table 1-priced CPU and the Table 3-priced
// I/O of the hash-based cells of the paper grid (PaperConfig, |S|, |Q| in
// {25, 100, 400}) to a recorded run. Both are deterministic operation counts,
// so any change to how the hash tables count Hash and Comp, or to the I/O a
// plan performs, shows here as a changed constant.
func TestTable4HashCellsPinned(t *testing.T) {
	ha, haj, hd := division.AlgHashAgg, division.AlgHashAggJoin, division.AlgHashDivision
	for _, c := range []struct {
		alg       division.Algorithm
		s, q      int
		cpu, simI float64
	}{
		{ha, 25, 25, 48.18, 82},
		{haj, 25, 25, 94.33, 82},
		{hd, 25, 25, 100.89, 82},
		{ha, 25, 100, 189.81, 124},
		{haj, 25, 100, 371.71, 124},
		{hd, 25, 100, 396.87, 124},
		{ha, 25, 400, 843.48, 334},
		{haj, 25, 400, 1567.98, 375},
		{hd, 25, 400, 1667.94, 334},
		{ha, 100, 25, 194.45999999999998, 124},
		{haj, 100, 25, 461.74, 124},
		{hd, 100, 25, 414.41999999999996, 124},
		{ha, 100, 100, 763.41, 334},
		{haj, 100, 100, 1811.79, 375},
		{hd, 100, 100, 1627.3199999999997, 334},
		{ha, 100, 400, 3404.7599999999998, 1160},
		{haj, 100, 400, 7577.54, 31875},
		{hd, 100, 400, 6844.469999999999, 1160},
		{ha, 400, 25, 779.0999999999999, 334},
		{haj, 400, 25, 1910.37, 375},
		{hd, 400, 25, 1727.415, 334},
		{ha, 400, 100, 3058.02, 1160},
		{haj, 400, 100, 7432.94, 31875},
		{hd, 400, 100, 6779.91, 1160},
		{ha, 400, 400, 13646.19, 4450},
		{haj, 400, 400, 30996.11, 113170},
		{hd, 400, 400, 28462.38, 4450},
	} {
		cell, err := RunCell(c.alg, c.s, c.q, PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		if cell.CountedCPUMS != c.cpu || cell.SimulatedIO != c.simI {
			t.Errorf("%v (%d,%d): counted CPU %v ms, simulated I/O %v ms; recorded %v and %v",
				c.alg, c.s, c.q, cell.CountedCPUMS, cell.SimulatedIO, c.cpu, c.simI)
		}
	}
}
