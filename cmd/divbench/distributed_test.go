package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestNetworkScalingSectionPreservesSiblings checks that writing the
// network_scaling section leaves previously recorded sections — the
// phased_baseline the overlap gate reads among them — byte-for-byte intact
// and that the section has the expected shape: both strategies, a filtered
// and an unfiltered point per cell, and the filtered point cheaper on the
// dividend wire.
func TestNetworkScalingSectionPreservesSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep smoke in short mode")
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
	if err := writeJSONSection(benchJSONFile, "parallel_scaling", map[string]any{"s": 20, "points": []int{3}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONSection(benchJSONFile, "phased_baseline", map[string]any{"points": []phasedBaselinePoint{{
		S: 100, Workers: 4, Noise: 5, Zipf: 1.5, Strategy: "quotient-partitioning", LatencyScale: 1, P50Ns: 249781236,
	}}}); err != nil {
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

	if err := runDistributed([]string{"-sizes", "25", "-workers", "2", "-reps", "1", "-json"}); err != nil {
		t.Fatal(err)
	}
	after := sections()
	for _, name := range []string{"table4", "parallel_scaling", "phased_baseline"} {
		if !bytes.Equal(before[name], after[name]) {
			t.Errorf("section %q changed:\nbefore: %s\nafter:  %s", name, before[name], after[name])
		}
	}
	raw, ok := after["network_scaling"]
	if !ok {
		t.Fatal("network_scaling section missing")
	}

	var section struct {
		Workers int `json:"workers"`
		Points  []struct {
			Strategy       string  `json:"strategy"`
			Filtered       bool    `json:"filtered"`
			LatencyScale   float64 `json:"latency_scale"`
			Gomaxprocs     int     `json:"gomaxprocs"`
			DividendBytes  int64   `json:"dividend_bytes"`
			FilterBytes    int64   `json:"filter_bytes"`
			TuplesFiltered int64   `json:"tuples_filtered"`
			Ns             int64   `json:"ns"`
			P50Ns          int64   `json:"p50_ns"`
			P95Ns          int64   `json:"p95_ns"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &section); err != nil {
		t.Fatal(err)
	}
	if section.Workers != 2 {
		t.Errorf("workers = %d, want 2", section.Workers)
	}
	// One cell × two strategies × {unfiltered, filtered}.
	if len(section.Points) != 4 {
		t.Fatalf("%d points, want 4", len(section.Points))
	}
	byKey := map[[2]any]int64{}
	for _, p := range section.Points {
		if p.LatencyScale != 0 {
			t.Errorf("default sweep priced a link: latency_scale %g", p.LatencyScale)
		}
		if p.Gomaxprocs <= 0 {
			t.Errorf("point missing gomaxprocs stamp: %d", p.Gomaxprocs)
		}
		if p.P50Ns <= 0 || p.P95Ns < p.P50Ns || p.Ns > p.P50Ns {
			t.Errorf("%s wall-clock stats out of order: min %d, p50 %d, p95 %d",
				p.Strategy, p.Ns, p.P50Ns, p.P95Ns)
		}
		byKey[[2]any{p.Strategy, p.Filtered}] = p.DividendBytes + p.FilterBytes
		if p.Filtered && p.TuplesFiltered == 0 {
			t.Errorf("%s filtered point dropped no tuples", p.Strategy)
		}
		if !p.Filtered && p.FilterBytes != 0 {
			t.Errorf("%s unfiltered point reports %d filter bytes", p.Strategy, p.FilterBytes)
		}
	}
	for _, strategy := range []string{"quotient-partitioning", "divisor-partitioning"} {
		plain, filtered := byKey[[2]any{strategy, false}], byKey[[2]any{strategy, true}]
		if plain == 0 || filtered == 0 {
			t.Fatalf("%s: missing point pair (plain=%d filtered=%d)", strategy, plain, filtered)
		}
		if filtered >= plain {
			t.Errorf("%s: filtered wire %d ≥ unfiltered %d", strategy, filtered, plain)
		}
	}
}

// TestOverlapGate checks gate 2 against the recorded phased baseline: a cell
// passes at the 1.5x floor, fails below it, and fails — rather than skips —
// when no baseline entry matches its size, workers, noise, zipf, strategy
// and latency scale.
func TestOverlapGate(t *testing.T) {
	baseline := []phasedBaselinePoint{{
		S: 100, Workers: 4, Noise: 5, Zipf: 1.5, Strategy: "quotient-partitioning", LatencyScale: 1, P50Ns: 300,
	}}
	p := networkScalingPoint{S: 100, Workers: 4, Strategy: "quotient-partitioning", LatencyScale: 1, P50Ns: 200}
	if speedup, failure := overlapGate(baseline, p, 5, 1.5); failure != "" || speedup != 1.5 {
		t.Errorf("1.5x cell: speedup %.2f, failure %q", speedup, failure)
	}
	slow := p
	slow.P50Ns = 201
	if _, failure := overlapGate(baseline, slow, 5, 1.5); failure == "" {
		t.Error("a cell below the floor passed")
	}
	for name, miss := range map[string]func(*networkScalingPoint, *int, *float64){
		"size":     func(p *networkScalingPoint, _ *int, _ *float64) { p.S = 25 },
		"workers":  func(p *networkScalingPoint, _ *int, _ *float64) { p.Workers = 2 },
		"noise":    func(_ *networkScalingPoint, n *int, _ *float64) { *n = 3 },
		"zipf":     func(_ *networkScalingPoint, _ *int, z *float64) { *z = 1.2 },
		"strategy": func(p *networkScalingPoint, _ *int, _ *float64) { p.Strategy = "divisor-partitioning" },
		"latency":  func(p *networkScalingPoint, _ *int, _ *float64) { p.LatencyScale = 2 },
	} {
		q, noise, zipf := p, 5, 1.5
		miss(&q, &noise, &zipf)
		if _, failure := overlapGate(baseline, q, noise, zipf); !strings.Contains(failure, "no phased_baseline entry") {
			t.Errorf("cell differing in %s: failure %q, want a missing-baseline failure", name, failure)
		}
	}
}
