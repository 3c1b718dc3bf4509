package main

// divbench distributed: the §6 shared-nothing sweep over a real transport.
// Workers are separate processes (-forked, each one `divbench distributed
// -worker` dialing back to the coordinator) or goroutine-hosted TCP
// listeners (the default, CI-safe). Each cell divides the same skewed
// workload under both partitioning strategies, with and without bit-vector
// filtering, with the links optionally priced by the paper's cost model
// (-latency scales). Two gates ride on -check: the filter plus its shipping
// cost must beat the unfiltered wire at every cell, and at latency scale >= 1
// the filtered plan must beat the recorded p50 of the retired phased
// unfiltered engine (the phased_baseline section of BENCH_divbench.json) by
// >= 1.5x — the overlap the morsel producers and per-link writers exist to
// buy.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	osexec "os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/netexchange"
	"repro/internal/workload"
)

// wallSpeedupFloor is what -check demands of filtered shipping over the
// recorded phased unfiltered p50 at latency scale >= 1 (p50 over reps).
const wallSpeedupFloor = 1.5

// phasedBaselinePoint is one recorded p50 of phased unfiltered shipping, the
// engine that wrote each link in turn from one scanning goroutine. The
// engine is gone; its numbers, measured on the commit that last had it, stay
// in the phased_baseline section as the reference of the overlap gate. At
// latency scale 1 the run time is almost all priced link delay, so the
// number depends little on the host.
type phasedBaselinePoint struct {
	S            int     `json:"s"`
	Workers      int     `json:"workers"`
	Noise        int     `json:"noise"`
	Zipf         float64 `json:"zipf"`
	Strategy     string  `json:"strategy"`
	LatencyScale float64 `json:"latency_scale"`
	P50Ns        int64   `json:"p50_ns"`
}

// loadPhasedBaseline reads the phased_baseline points of path; a missing
// file or section yields none, so every gated cell then fails.
func loadPhasedBaseline(path string) []phasedBaselinePoint {
	var doc struct {
		Section struct {
			Points []phasedBaselinePoint `json:"points"`
		} `json:"phased_baseline"`
	}
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &doc) != nil {
		return nil
	}
	return doc.Section.Points
}

// overlapGate is gate 2: the filtered point p of a cell at latency scale
// >= 1 must beat the recorded phased unfiltered p50 of the same cell by
// wallSpeedupFloor. It returns the speedup, and a failure message when the
// gate fails or the cell has no recorded baseline.
func overlapGate(baseline []phasedBaselinePoint, p networkScalingPoint, noise int, zipf float64) (float64, string) {
	for _, b := range baseline {
		if b.S != p.S || b.Workers != p.Workers || b.Noise != noise || b.Zipf != zipf ||
			b.Strategy != p.Strategy || b.LatencyScale != p.LatencyScale {
			continue
		}
		speedup := float64(b.P50Ns) / float64(p.P50Ns)
		if speedup >= wallSpeedupFloor {
			return speedup, ""
		}
		return speedup, fmt.Sprintf("size %d, lat %g, %s: filtered %.2fx over recorded phased+unfiltered, want >= %.1fx (%s vs %s)",
			p.S, p.LatencyScale, p.Strategy, speedup, wallSpeedupFloor,
			time.Duration(p.P50Ns).Round(time.Microsecond), time.Duration(b.P50Ns).Round(time.Microsecond))
	}
	return 0, fmt.Sprintf("size %d, lat %g, %s: no phased_baseline entry for workers=%d noise=%d zipf=%g in %s",
		p.S, p.LatencyScale, p.Strategy, p.Workers, noise, zipf, benchJSONFile)
}

// networkScalingPoint is one (cell, latency, strategy, filter) measurement
// in the network_scaling section.
type networkScalingPoint struct {
	S            int     `json:"s"`
	Q            int     `json:"q"`
	R            int     `json:"r"`
	Strategy     string  `json:"strategy"`
	Workers      int     `json:"workers"`
	Filtered     bool    `json:"filtered"`
	LatencyScale float64 `json:"latency_scale"`
	Gomaxprocs   int     `json:"gomaxprocs"`

	DividendBytes  int64 `json:"dividend_bytes"` // dividend batch frames alone
	FilterBytes    int64 `json:"filter_bytes"`   // bit-vector frames (0 unfiltered)
	BytesShipped   int64 `json:"bytes_shipped"`  // all frames, both directions
	TuplesShipped  int64 `json:"tuples_shipped"`
	TuplesFiltered int64 `json:"tuples_filtered"`
	RoundTrips     int64 `json:"round_trips"` // per-link protocol rounds, summed
	Ns             int64 `json:"ns"`          // min wall clock over reps
	P50Ns          int64 `json:"p50_ns"`      // median wall clock over reps
	P95Ns          int64 `json:"p95_ns"`      // p95 wall clock over reps
}

// quantileNs picks the q-quantile from sorted wall-clock samples.
func quantileNs(sorted []time.Duration, q float64) int64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx].Nanoseconds()
}

func parseLatencies(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -latency scale %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func runDistributed(args []string) error {
	fs := flag.NewFlagSet("distributed", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "25,100,400", "comma-separated |S|/|Q| grid sizes")
	noise := fs.Int("noise", 5, "non-matching tuples per candidate (what the filter drops)")
	zipf := fs.Float64("zipf", 1.5, "Zipf s for course skew (>1 unbalances divisor partitioning)")
	workers := fs.Int("workers", 4, "worker count")
	reps := fs.Int("reps", 3, "repetitions per point; minimum wall clock wins, p50/p95 reported")
	latencyFlag := fs.String("latency", "0", "comma-separated link latency scales (0 = raw loopback; 1 = the paper's cost model per frame and byte)")
	budget := fs.Int64("budget", 0, "per-worker memory budget in bytes (0 = unbounded in-memory tables)")
	forked := fs.Bool("forked", false, "spawn workers as separate OS processes instead of goroutine-hosted listeners")
	jsonOut := fs.Bool("json", false, "merge a network_scaling section into "+benchJSONFile)
	check := fs.Bool("check", false, "exit nonzero unless filtering cuts dividend bytes-on-wire and, at latency >= 1, filtered shipping beats the recorded phased+unfiltered p50 ("+benchJSONFile+" phased_baseline) by >= 1.5x; quotients must match the serial reference exactly (skipped when GOMAXPROCS < 2)")
	workerMode := fs.Bool("worker", false, "internal: run as a forked worker process")
	connect := fs.String("connect", "", "internal: coordinator address a forked worker dials")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode {
		return runForkedWorker(*connect)
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	latencies, err := parseLatencies(*latencyFlag)
	if err != nil {
		return err
	}
	baseline := loadPhasedBaseline(benchJSONFile)
	if *check && runtime.GOMAXPROCS(0) < 2 {
		fmt.Println("(distributed -check skipped: GOMAXPROCS < 2, no parallelism available)")
		return nil
	}

	baseConns, cleanup, err := startWorkers(*workers, *forked)
	if err != nil {
		return err
	}
	defer cleanup()

	mode := "goroutine-hosted"
	if *forked {
		mode = "forked processes"
	}
	fmt.Printf("Distributed division over TCP (§6 + DESIGN.md §14–15): workers=%d (%s), zipf=%.2f, noise=%d, budget=%d\n",
		*workers, mode, *zipf, *noise, *budget)
	fmt.Printf("%-6s %-6s %-5s %-8s %-24s %-8s %12s %12s %12s %10s %10s\n",
		"|S|", "|Q|", "lat", "filter", "strategy", "drops",
		"dividend B", "filter B", "total B", "p50", "p95")

	strategies := []division.PartitionStrategy{
		division.QuotientPartitioning, division.DivisorPartitioning,
	}
	var points []networkScalingPoint
	var checkErrs []string
	for _, size := range sizes {
		inst, err := workload.Generate(workload.Config{
			DivisorTuples:      size,
			QuotientCandidates: size,
			FullFraction:       0.5,
			MatchFraction:      0.8,
			NoisePerCandidate:  *noise,
			CourseZipfS:        *zipf,
			Shuffle:            true,
			Seed:               int64(size),
		})
		if err != nil {
			return err
		}
		spec := func() division.Spec {
			return division.Spec{
				Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
				Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
				DivisorCols: []int{1},
			}
		}
		ref, err := division.Reference(spec())
		if err != nil {
			return err
		}
		qs := spec().QuotientSchema()

		for _, scale := range latencies {
			// One wrapper layer per scale: frame counting always on, the
			// frame and byte delays priced from the paper's cost model.
			conns := make([]net.Conn, len(baseConns))
			for i, c := range baseConns {
				conns[i] = netexchange.LatencyConnFromCost(c, disk.PaperCost(), scale)
			}
			for _, strategy := range strategies {
				var cell [2]networkScalingPoint // unfiltered, filtered
				for fi, useFilter := range []bool{false, true} {
					var best *netexchange.Result
					samples := make([]time.Duration, 0, *reps)
					for r := 0; r < *reps; r++ {
						res, err := netexchange.Divide(context.Background(), spec(), netexchange.Config{
							Strategy:        strategy,
							BitVectorFilter: useFilter,
							WorkerBudget:    *budget,
						}, conns)
						if err != nil {
							return fmt.Errorf("size %d, lat %g, %s, filter=%v: %w",
								size, scale, strategy, useFilter, err)
						}
						if !division.EqualTupleSets(qs, res.Quotient, ref) {
							return fmt.Errorf("size %d, lat %g, %s, filter=%v: quotient diverges from serial reference (%d vs %d tuples)",
								size, scale, strategy, useFilter, len(res.Quotient), len(ref))
						}
						samples = append(samples, res.Elapsed)
						if best == nil || res.Elapsed < best.Elapsed {
							best = res
						}
					}
					sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
					var rounds int64
					for _, l := range best.Links {
						rounds += l.RoundTrips
					}
					p := networkScalingPoint{
						S: size, Q: size, R: len(inst.Dividend),
						Strategy: strategy.String(), Workers: *workers, Filtered: useFilter,
						LatencyScale:   scale,
						Gomaxprocs:     runtime.GOMAXPROCS(0),
						DividendBytes:  best.DividendBytes,
						FilterBytes:    best.FilterBytes,
						BytesShipped:   best.Network.BytesShipped,
						TuplesShipped:  best.Network.TuplesShipped,
						TuplesFiltered: best.Network.TuplesFiltered,
						RoundTrips:     rounds,
						Ns:             samples[0].Nanoseconds(),
						P50Ns:          quantileNs(samples, 0.5),
						P95Ns:          quantileNs(samples, 0.95),
					}
					points = append(points, p)
					cell[fi] = p
					fmt.Printf("%-6d %-6d %-5g %-8v %-24s %-8d %12d %12d %12d %10s %10s\n",
						size, size, scale, useFilter, p.Strategy, p.TuplesFiltered,
						p.DividendBytes, p.FilterBytes, p.BytesShipped,
						time.Duration(p.P50Ns).Round(time.Microsecond),
						time.Duration(p.P95Ns).Round(time.Microsecond))
				}
				// Gate 1: the filter plus its own wire cost must cut
				// dividend bytes.
				unfiltered, filtered := cell[0], cell[1]
				saved := unfiltered.DividendBytes - filtered.DividendBytes - filtered.FilterBytes
				fmt.Printf("%36s net dividend wire saved by filter: %d bytes (%.1f%%)\n", "",
					saved, 100*float64(saved)/float64(unfiltered.DividendBytes))
				if saved <= 0 {
					checkErrs = append(checkErrs, fmt.Sprintf(
						"size %d, lat %g, %s: filter saved %d bytes (dividend %d → %d + %d filter)",
						size, scale, strategy, saved, unfiltered.DividendBytes,
						filtered.DividendBytes, filtered.FilterBytes))
				}
				// Gate 2, the overlap claim: once the links cost real time,
				// filtered shipping must beat the recorded phased unfiltered
				// p50 by the floor. A cell without a recorded baseline fails.
				if scale >= 1 {
					speedup, failure := overlapGate(baseline, filtered, *noise, *zipf)
					if failure != "" {
						checkErrs = append(checkErrs, failure)
					} else {
						fmt.Printf("%36s filtered vs recorded phased+unfiltered: %.2fx\n", "", speedup)
					}
				}
			}
		}
	}

	if *jsonOut {
		section := map[string]any{
			"workers":    *workers,
			"forked":     *forked,
			"zipf":       *zipf,
			"noise":      *noise,
			"reps":       *reps,
			"budget":     *budget,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"points":     points,
		}
		if err := writeJSONSection(benchJSONFile, "network_scaling", section); err != nil {
			return err
		}
		fmt.Printf("(wrote network_scaling section to %s)\n", benchJSONFile)
	}

	if *check {
		if len(checkErrs) > 0 {
			for _, e := range checkErrs {
				fmt.Fprintf(os.Stderr, "distributed -check: %s\n", e)
			}
			return fmt.Errorf("distributed -check: %d gate failure(s)", len(checkErrs))
		}
		fmt.Println("distributed -check passed: filtering cut dividend bytes-on-wire at every cell, overlap beat the recorded phased baseline where priced, quotients exact")
	}
	return nil
}

// startWorkers provides n worker connections: goroutine-hosted listeners in
// this process, or forked `divbench distributed -worker` processes dialing
// back over TCP. cleanup closes the links and reaps whatever was started.
func startWorkers(n int, forked bool) (conns []net.Conn, cleanup func(), err error) {
	if !forked {
		cl, err := netexchange.StartLocalCluster(n)
		if err != nil {
			return nil, nil, err
		}
		return cl.Conns(), cl.Close, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	var cmds []*osexec.Cmd
	cleanup = func() {
		for _, c := range conns {
			c.Close()
		}
		for _, cmd := range cmds {
			cmd.Wait()
		}
		ln.Close()
	}
	for i := 0; i < n; i++ {
		cmd := osexec.Command(exe, "distributed", "-worker", "-connect", ln.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cleanup()
			return nil, nil, err
		}
		cmds = append(cmds, cmd)
		conn, err := ln.Accept()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		conns = append(conns, conn)
	}
	return conns, cleanup, nil
}

// runForkedWorker is the hidden worker mode: dial the coordinator and serve
// exchange jobs on that one link until it closes.
func runForkedWorker(addr string) error {
	if addr == "" {
		return fmt.Errorf("distributed -worker needs -connect address")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return netexchange.ServeWorker(conn)
}
