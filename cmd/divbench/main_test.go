package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("25, 100,400")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 25 || sizes[2] != 400 {
		t.Errorf("sizes = %v", sizes)
	}
	if _, err := parseSizes("25,x"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestConfigFor(t *testing.T) {
	paper, err := configFor("paper")
	if err != nil {
		t.Fatal(err)
	}
	if paper.PageSize != 8192 {
		t.Errorf("paper page size = %d", paper.PageSize)
	}
	analytic, err := configFor("analytic")
	if err != nil {
		t.Fatal(err)
	}
	if analytic.PageSize != 84 {
		t.Errorf("analytic page size = %d", analytic.PageSize)
	}
	if _, err := configFor("weird"); err == nil {
		t.Error("unknown geometry accepted")
	}
}

func TestRunExample(t *testing.T) {
	if err := runExample(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSubcommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subcommand smoke in short mode")
	}
	if err := runTable4([]string{"-sizes", "25", "-geometry", "analytic"}); err != nil {
		t.Fatal(err)
	}
	if err := runOverflow([]string{"-q", "500", "-budget", "12"}); err != nil {
		t.Fatal(err)
	}
	if err := runSweep([]string{"-s", "10", "-q", "40"}); err != nil {
		t.Fatal(err)
	}
	if err := runParallel([]string{"-s", "20", "-q", "50", "-noise", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteJSONSectionMerges(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	if err := writeJSONSection(path, "a", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(path, "b", map[string]int{"y": 2}); err != nil {
		t.Fatal(err)
	}
	// Rewriting a section must preserve the other one.
	if err := writeJSONSection(path, "a", map[string]int{"x": 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]int
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unparsable merged file: %v\n%s", err, data)
	}
	if doc["a"]["x"] != 3 || doc["b"]["y"] != 2 {
		t.Errorf("merged doc = %v", doc)
	}
}

// TestProfileSectionPreservesSiblingsAndIsDeterministic checks that writing
// the profile section leaves previously recorded table4 and batch_ablation
// sections byte-for-byte intact, and that the profile section itself is
// identical across runs (no wall-clock times or other nondeterminism leaks
// into the JSON).
func TestProfileSectionPreservesSiblingsAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("profile section smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	// Seed the results file with stand-in sibling sections.
	if err := writeJSONSection(benchJSONFile, "table4", map[string]any{"geometry": "paper", "cells": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(benchJSONFile, "batch_ablation", map[string]any{"reps": 3}); err != nil {
		t.Fatal(err)
	}
	sections := func() map[string]json.RawMessage {
		data, err := os.ReadFile(benchJSONFile)
		if err != nil {
			t.Fatal(err)
		}
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := sections()

	if err := runTable4([]string{"-sizes", "10", "-geometry", "analytic", "-profile"}); err != nil {
		t.Fatal(err)
	}
	after := sections()
	for _, name := range []string{"table4", "batch_ablation"} {
		if !bytes.Equal(before[name], after[name]) {
			t.Errorf("section %q changed:\nbefore: %s\nafter:  %s", name, before[name], after[name])
		}
	}
	first, ok := after["profile"]
	if !ok {
		t.Fatal("profile section missing")
	}

	if err := runTable4([]string{"-sizes", "10", "-geometry", "analytic", "-profile"}); err != nil {
		t.Fatal(err)
	}
	if second := sections()["profile"]; !bytes.Equal(first, second) {
		t.Errorf("profile section differs across runs:\nfirst:  %s\nsecond: %s", first, second)
	}

	var section struct {
		S          int `json:"s"`
		Algorithms []struct {
			Algorithm    string         `json:"algorithm"`
			QuotientRows int            `json:"quotient_rows"`
			Tree         map[string]any `json:"tree"`
		} `json:"algorithms"`
	}
	if err := json.Unmarshal(first, &section); err != nil {
		t.Fatal(err)
	}
	if section.S != 10 || len(section.Algorithms) != 6 {
		t.Errorf("profile section shape: s=%d, %d algorithms", section.S, len(section.Algorithms))
	}
	for _, a := range section.Algorithms {
		if a.QuotientRows == 0 {
			t.Errorf("%s: zero quotient rows in profile workload", a.Algorithm)
		}
		if a.Tree == nil {
			t.Errorf("%s: missing span tree", a.Algorithm)
		}
	}
}

// TestParallelScalingSectionPreservesSiblings checks that writing the
// parallel_scaling section leaves previously recorded sections byte-for-byte
// intact and that the section has the expected shape (serial baseline, every
// strategy × path combination, speedups populated).
func TestParallelScalingSectionPreservesSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel scaling smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	if err := writeJSONSection(benchJSONFile, "table4", map[string]any{"geometry": "paper", "cells": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	sections := func() map[string]json.RawMessage {
		data, err := os.ReadFile(benchJSONFile)
		if err != nil {
			t.Fatal(err)
		}
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := sections()

	err = runParallel([]string{"-s", "20", "-q", "60", "-noise", "2", "-workers", "1,2", "-reps", "1", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	after := sections()
	if !bytes.Equal(before["table4"], after["table4"]) {
		t.Errorf("table4 section changed:\nbefore: %s\nafter:  %s", before["table4"], after["table4"])
	}
	raw, ok := after["parallel_scaling"]
	if !ok {
		t.Fatal("parallel_scaling section missing")
	}
	var section struct {
		S          int   `json:"s"`
		R          int   `json:"r"`
		GOMAXPROCS int   `json:"gomaxprocs"`
		SerialNs   int64 `json:"serial_ns"`
		Points     []struct {
			Strategy string  `json:"strategy"`
			Workers  int     `json:"workers"`
			Ns       int64   `json:"ns"`
			Speedup  float64 `json:"speedup"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &section); err != nil {
		t.Fatal(err)
	}
	if section.S != 20 || section.R == 0 || section.SerialNs == 0 || section.GOMAXPROCS == 0 {
		t.Errorf("section header: %+v", section)
	}
	// 2 strategies × 2 worker counts.
	if len(section.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(section.Points))
	}
	strategies := map[string]bool{}
	for _, p := range section.Points {
		strategies[p.Strategy] = true
		if p.Ns == 0 || p.Speedup == 0 {
			t.Errorf("unpopulated point %+v", p)
		}
	}
	for _, want := range []string{"quotient-partitioning", "divisor-partitioning"} {
		if !strategies[want] {
			t.Errorf("no points for strategy %q", want)
		}
	}
}

func TestRunBatchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("batch ablation smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	err = runBatch([]string{"-sizes", "25", "-batchsizes", "64,256", "-reps", "1", "-geometry", "analytic", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(benchJSONFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["batch_ablation"]; !ok {
		t.Errorf("missing batch_ablation section in %s", data)
	}
}

func TestIOOverlapSectionPreservesSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("io overlap smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	if err := writeJSONSection(benchJSONFile, "table4", map[string]any{"geometry": "paper", "cells": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(benchJSONFile, "parallel_scaling", map[string]any{"s": 20, "points": []int{3}}); err != nil {
		t.Fatal(err)
	}
	sections := func() map[string]json.RawMessage {
		data, err := os.ReadFile(benchJSONFile)
		if err != nil {
			t.Fatal(err)
		}
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := sections()

	err = runIO([]string{"-pages", "8", "-scale", "0.01", "-shards", "1,2",
		"-workers", "2", "-iters", "1", "-reps", "1", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	after := sections()
	for _, sib := range []string{"table4", "parallel_scaling"} {
		if !bytes.Equal(before[sib], after[sib]) {
			t.Errorf("%s section changed:\nbefore: %s\nafter:  %s", sib, before[sib], after[sib])
		}
	}
	raw, ok := after["io_overlap"]
	if !ok {
		t.Fatal("io_overlap section missing")
	}
	var section struct {
		Pages       int     `json:"pages"`
		PageSize    int     `json:"page_size"`
		ReadDelayNs int64   `json:"read_delay_ns"`
		Scale       float64 `json:"scale"`
		Window      int     `json:"window"`
		Depth       int     `json:"depth"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		Scan        struct {
			SyncNs         int64 `json:"sync_ns"`
			ReadaheadNs    int64 `json:"readahead_ns"`
			Fixes          int   `json:"fixes"`
			PrefetchIssued int   `json:"prefetch_issued"`
		} `json:"scan"`
		ShardSweep struct {
			Workers   int `json:"workers"`
			PoolPages int `json:"pool_pages"`
			Points    []struct {
				Shards int   `json:"shards"`
				Ns     int64 `json:"ns"`
			} `json:"points"`
		} `json:"shard_sweep"`
	}
	if err := json.Unmarshal(raw, &section); err != nil {
		t.Fatal(err)
	}
	if section.Pages != 8 || section.PageSize == 0 || section.ReadDelayNs == 0 ||
		section.Window == 0 || section.Depth == 0 || section.GOMAXPROCS == 0 {
		t.Errorf("section header: %+v", section)
	}
	if section.Scan.SyncNs == 0 || section.Scan.ReadaheadNs == 0 || section.Scan.Fixes == 0 ||
		section.Scan.PrefetchIssued == 0 {
		t.Errorf("scan result unpopulated: %+v", section.Scan)
	}
	if section.ShardSweep.Workers != 2 || section.ShardSweep.PoolPages == 0 {
		t.Errorf("shard sweep header: %+v", section.ShardSweep)
	}
	if len(section.ShardSweep.Points) != 2 {
		t.Fatalf("shard sweep has %d points, want 2", len(section.ShardSweep.Points))
	}
	for _, p := range section.ShardSweep.Points {
		if p.Shards == 0 || p.Ns == 0 {
			t.Errorf("unpopulated sweep point %+v", p)
		}
	}
}

// TestMemoryPressureSectionPreservesSiblings runs the spill sweep with
// -json -check on a reduced workload: siblings must stay byte-for-byte
// intact, the section must have the expected shape, and the -check gate
// (exact quotients, spill engaged, smooth degradation) must hold.
func TestMemoryPressureSectionPreservesSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("memory pressure smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	if err := writeJSONSection(benchJSONFile, "table4", map[string]any{"geometry": "paper", "cells": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(benchJSONFile, "wal_commit", map[string]any{"points": []int{3}}); err != nil {
		t.Fatal(err)
	}
	sections := func() map[string]json.RawMessage {
		data, err := os.ReadFile(benchJSONFile)
		if err != nil {
			t.Fatal(err)
		}
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := sections()

	// The budget list stops at 5%: the -race builds of this test slow the
	// deep-recursion points far more than the in-memory ones, so the 1%
	// point of the CI sweep (go run, uninstrumented) would trip the
	// smoothness gate here on instrumentation overhead, not on real cost.
	// The reps are the command's default 3: -check gates each point's
	// minimum, and one sample of a ~1 ms point is too noisy for the bound.
	err = runSpill([]string{"-s", "8", "-q", "600", "-budgets", "100,25,5",
		"-reps", "3", "-json", "-check"})
	if err != nil {
		t.Fatal(err)
	}
	after := sections()
	for _, sib := range []string{"table4", "wal_commit"} {
		if !bytes.Equal(before[sib], after[sib]) {
			t.Errorf("%s section changed:\nbefore: %s\nafter:  %s", sib, before[sib], after[sib])
		}
	}
	raw, ok := after["memory_pressure"]
	if !ok {
		t.Fatal("memory_pressure section missing")
	}
	var section struct {
		S          int    `json:"s"`
		R          int    `json:"r"`
		Strategy   string `json:"strategy"`
		InputBytes int    `json:"input_bytes"`
		Points     []struct {
			Pct          int   `json:"pct"`
			BudgetBytes  int   `json:"budget_bytes"`
			Ns           int64 `json:"ns"`
			QuotientRows int   `json:"quotient_rows"`
			Attempts     int   `json:"attempts"`
			MaxDepth     int   `json:"max_depth"`
			SpillBytes   int64 `json:"spill_bytes"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &section); err != nil {
		t.Fatal(err)
	}
	if section.S != 8 || section.R == 0 || section.InputBytes == 0 || section.Strategy != "quotient" {
		t.Errorf("section header: %+v", section)
	}
	if len(section.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(section.Points))
	}
	if p := section.Points[0]; p.Pct != 100 || p.SpillBytes != 0 {
		t.Errorf("full-budget point should not spill: %+v", p)
	}
	spilled := false
	for _, p := range section.Points {
		if p.Ns == 0 || p.BudgetBytes == 0 || p.QuotientRows == 0 || p.Attempts == 0 {
			t.Errorf("unpopulated point %+v", p)
		}
		if p.SpillBytes > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Error("no sweep point spilled")
	}
}

// TestCheckSpillSweep exercises the gate logic on synthetic curves.
func TestCheckSpillSweep(t *testing.T) {
	ms := int64(time.Millisecond)
	mk := func(pct int, ns int64, spill int64) spillPoint {
		p := spillPoint{Pct: pct, BudgetBytes: pct, Ns: ns, SpillBytes: spill}
		if spill > 0 {
			p.SpilledParts = 1
		}
		return p
	}
	smooth := []spillPoint{mk(100, 2*ms, 0), mk(50, 3*ms, 1), mk(25, 5*ms, 2), mk(10, 7*ms, 3)}
	if err := checkSpillSweep(smooth); err != nil {
		t.Errorf("smooth curve rejected: %v", err)
	}
	if err := checkSpillSweep(smooth[:1]); err == nil {
		t.Error("single point accepted")
	}
	unordered := []spillPoint{mk(50, 2*ms, 0), mk(100, 3*ms, 1)}
	if err := checkSpillSweep(unordered); err == nil {
		t.Error("non-decreasing budget order accepted")
	}
	fullSpills := []spillPoint{mk(100, 2*ms, 9), mk(50, 3*ms, 9)}
	if err := checkSpillSweep(fullSpills); err == nil {
		t.Error("spill at the full budget accepted")
	}
	noSpill := []spillPoint{mk(100, 2*ms, 0), mk(50, 3*ms, 0)}
	if err := checkSpillSweep(noSpill); err == nil {
		t.Error("sweep without any spill accepted")
	}
	cliff := []spillPoint{mk(100, 2*ms, 0), mk(50, 20*ms, 1)}
	if err := checkSpillSweep(cliff); err == nil {
		t.Error("10x step cliff accepted")
	}
	creep := []spillPoint{mk(100, 2*ms, 0), mk(50, 7*ms, 1), mk(25, 20*ms, 1)}
	if err := checkSpillSweep(creep); err == nil {
		t.Error("10x total growth accepted")
	}
	noisy := []spillPoint{mk(100, 10_000, 0), mk(50, 90_000, 1), mk(25, 2*ms, 1)}
	if err := checkSpillSweep(noisy); err != nil {
		t.Errorf("sub-noise-floor jitter rejected: %v", err)
	}
}

func TestWALCommitSectionPreservesSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("wal commit smoke in short mode")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	if err := writeJSONSection(benchJSONFile, "table4", map[string]any{"geometry": "paper", "cells": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(benchJSONFile, "io_overlap", map[string]any{"pages": 8, "scale": 0.01}); err != nil {
		t.Fatal(err)
	}
	sections := func() map[string]json.RawMessage {
		data, err := os.ReadFile(benchJSONFile)
		if err != nil {
			t.Fatal(err)
		}
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := sections()

	err = runWAL([]string{"-appenders", "1,4", "-windows", "0",
		"-records", "20", "-scale", "0.01", "-reps", "1", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	after := sections()
	for _, sib := range []string{"table4", "io_overlap"} {
		if !bytes.Equal(before[sib], after[sib]) {
			t.Errorf("%s section changed:\nbefore: %s\nafter:  %s", sib, before[sib], after[sib])
		}
	}
	raw, ok := after["wal_commit"]
	if !ok {
		t.Fatal("wal_commit section missing")
	}
	var section struct {
		RecordsPerAppender int     `json:"records_per_appender"`
		PayloadBytes       int     `json:"payload_bytes"`
		Scale              float64 `json:"scale"`
		SyncDelayNs        int64   `json:"sync_delay_ns"`
		Points             []struct {
			Appenders      int     `json:"appenders"`
			WindowUs       int     `json:"window_us"`
			Ns             int64   `json:"ns"`
			Appends        int     `json:"appends"`
			Syncs          int     `json:"syncs"`
			SyncsPerAppend float64 `json:"syncs_per_append"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &section); err != nil {
		t.Fatal(err)
	}
	if section.RecordsPerAppender != 20 || section.SyncDelayNs <= 0 {
		t.Errorf("section shape off: %+v", section)
	}
	if len(section.Points) != 2 {
		t.Fatalf("%d sweep points, want 2", len(section.Points))
	}
	for _, p := range section.Points {
		if p.Appends != p.Appenders*20 {
			t.Errorf("point %+v: appends != appenders*records", p)
		}
		if p.Syncs <= 0 || p.SyncsPerAppend <= 0 {
			t.Errorf("point %+v: sync counters missing", p)
		}
	}
}
