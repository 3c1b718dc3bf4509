package main

// divbench io — measures what the sharded buffer pool and asynchronous
// read-ahead buy on a device with realistic latency. Two experiments:
//
//  1. Scan overlap: a sequential page scan over a disk.Latency device (delay
//     derived from the paper's Table 3 per-transfer cost), synchronous vs.
//     with the prefetcher staging pages ahead of the cursor. With read-ahead
//     the device sleeps overlap each other and the consumer, so wall clock
//     drops toward scan-CPU + latency/depth.
//  2. Shard sweep: W workers dirtying a page set several times larger than
//     the pool, so nearly every fix evicts a dirty frame — and a victim's
//     write-back holds its shard's lock across the device write. One shard
//     serializes every write-back behind a single lock; N shards let them
//     overlap, which wall clock shows directly on the latency device.
//
// Results merge into the io_overlap section of BENCH_divbench.json,
// preserving sibling sections byte-for-byte.

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// ioScanResult is the scan-overlap half of the io_overlap JSON section.
type ioScanResult struct {
	SyncNs          int64   `json:"sync_ns"`
	ReadaheadNs     int64   `json:"readahead_ns"`
	Speedup         float64 `json:"speedup"`
	Fixes           int     `json:"fixes"`
	PrefetchIssued  int     `json:"prefetch_issued"`
	PrefetchHits    int     `json:"prefetch_hits"`
	PrefetchHitRate float64 `json:"prefetch_hit_rate"`
	PrefetchWasted  int     `json:"prefetch_wasted"`
	PrefetchDropped int     `json:"prefetch_dropped"`
}

// ioShardPoint is one pool configuration in the shard-count sweep.
type ioShardPoint struct {
	Shards    int     `json:"shards"`
	Ns        int64   `json:"ns"`
	SpeedupV1 float64 `json:"speedup_vs_1_shard"`
}

// ioSeedFile fills a heap file with enough records to cover pages pages.
func ioSeedFile(pool *buffer.Pool, dev disk.Dev, pages int) (*storage.File, error) {
	schema := tuple.NewSchema(tuple.CharField("student", 8), tuple.CharField("course", 12))
	f := storage.NewFile(pool, dev, schema, "iobench")
	ap := f.NewAppender()
	for i := 0; i < pages*f.RecordsPerPage(); i++ {
		t := schema.MustMake(fmt.Sprintf("s%06d", i), fmt.Sprintf("c%09d", i))
		if _, err := ap.Append(t); err != nil {
			ap.Close()
			return nil, err
		}
	}
	if err := ap.Close(); err != nil {
		return nil, err
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	return f, nil
}

// ioScanOnce drives one full page-at-a-time scan, touching every record
// area byte count so the consumer does token CPU work per page.
func ioScanOnce(f *storage.File) (int, error) {
	ps := f.ScanPages(false)
	defer ps.Close()
	total := 0
	for {
		data, _, err := ps.Next()
		if err == io.EOF {
			return total, ps.Close()
		}
		if err != nil {
			return total, err
		}
		total += len(data)
	}
}

func runIO(args []string) error {
	fs := flag.NewFlagSet("io", flag.ContinueOnError)
	pages := fs.Int("pages", 64, "heap-file pages to scan")
	scale := fs.Float64("scale", 0.1, "latency scale: 1.0 = the paper's full per-transfer milliseconds")
	window := fs.Int("window", buffer.DefaultPrefetchWindow, "prefetcher in-flight window")
	depth := fs.Int("depth", buffer.DefaultPrefetchDepth, "scanner read-ahead depth in pages")
	workers := fs.Int("workers", 4, "concurrent writers in the shard sweep")
	shardsFlag := fs.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
	iters := fs.Int("iters", 2, "passes over the page set per worker per shard-sweep point")
	reps := fs.Int("reps", 3, "repetitions per measurement; minimum wall clock wins")
	gmp := fs.Int("gomaxprocs", 0, "if > 0, set GOMAXPROCS for the run (the shard sweep needs >= 2 to show contention)")
	jsonOut := fs.Bool("json", false, "merge an io_overlap section into "+benchJSONFile)
	check := fs.Bool("check", false, "exit nonzero unless read-ahead beats the synchronous scan with >= 80% prefetch hit rate (skipped when GOMAXPROCS < 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gmp > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*gmp))
	}
	shardCounts, err := parseSizes(*shardsFlag)
	if err != nil {
		return err
	}

	// ---- Experiment 1: sequential scan, synchronous vs. read-ahead. ----
	base := disk.NewDevice("iobench", disk.PaperPageSize)
	lat := disk.LatencyFromCost(base, disk.PaperCost(), *scale)
	lat.WriteDelay = 0 // loading the file is setup, not the experiment
	pool := buffer.New(4 << 20)
	obs.InstrumentPool(obs.Default, pool)
	f, err := ioSeedFile(pool, lat, *pages)
	if err != nil {
		return err
	}

	measureScan := func() (int64, error) {
		best := int64(0)
		for r := 0; r < *reps; r++ {
			if err := pool.DropClean(); err != nil {
				return 0, err
			}
			pool.ResetStats()
			start := time.Now()
			if _, err := ioScanOnce(f); err != nil {
				return 0, err
			}
			ns := time.Since(start).Nanoseconds()
			pool.ReadAhead().Drain()
			if r == 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}

	syncNs, err := measureScan()
	if err != nil {
		return err
	}
	pool.EnableReadAhead(*window, *depth)
	raNs, err := measureScan()
	if err != nil {
		return err
	}
	st := pool.Stats() // from the last read-ahead rep (ResetStats per rep)
	pool.DisableReadAhead()

	scan := ioScanResult{
		SyncNs:          syncNs,
		ReadaheadNs:     raNs,
		Speedup:         float64(syncNs) / float64(raNs),
		Fixes:           st.Fixes,
		PrefetchIssued:  st.PrefetchIssued,
		PrefetchHits:    st.PrefetchHits,
		PrefetchWasted:  st.PrefetchWasted,
		PrefetchDropped: st.PrefetchDropped,
	}
	if st.Fixes > 0 {
		scan.PrefetchHitRate = float64(st.PrefetchHits) / float64(st.Fixes)
	}

	fmt.Printf("I/O overlap (latency device: %s/read at scale %g, %d pages of %d bytes, GOMAXPROCS=%d)\n",
		lat.ReadDelay, *scale, *pages, disk.PaperPageSize, runtime.GOMAXPROCS(0))
	fmt.Printf("  synchronous scan : %s (min of %d)\n", time.Duration(syncNs).Round(time.Microsecond), *reps)
	fmt.Printf("  read-ahead scan  : %s (window=%d depth=%d, speedup %.2fx)\n",
		time.Duration(raNs).Round(time.Microsecond), *window, *depth, scan.Speedup)
	fmt.Printf("  prefetch: issued=%d hits=%d (hit rate %.0f%%) wasted=%d dropped=%d over %d fixes\n",
		scan.PrefetchIssued, scan.PrefetchHits, 100*scan.PrefetchHitRate,
		scan.PrefetchWasted, scan.PrefetchDropped, scan.Fixes)

	// ---- Experiment 2: shard-count sweep under evicting writers. ----
	// The page set is 4x the pool budget, so nearly every fix evicts a
	// dirty victim, and the victim's write-back holds its shard lock across
	// the delayed device write. That is the serialization sharding removes:
	// one shard queues every write-back behind one lock, N shards overlap
	// up to min(N, workers) of them.
	sweepPages := *pages
	poolPages := sweepPages / 4
	// Every worker pins one frame at a time; keep at least one more frame
	// evictable or a small run dies of pool exhaustion instead of measuring.
	if poolPages <= *workers {
		poolPages = *workers + 1
	}
	fmt.Printf("shard sweep: %d workers x %d dirtying passes over %d pages through a %d-page pool (%s/write-back)\n",
		*workers, *iters, sweepPages, poolPages, lat.ReadDelay)
	var points []ioShardPoint
	for _, nshards := range shardCounts {
		sbase := disk.NewDevice("shardsweep", disk.PaperPageSize)
		sdev := disk.NewLatency(sbase, 0, 0)
		spool := buffer.NewWithShards(poolPages*disk.PaperPageSize, nshards)
		obs.InstrumentPool(obs.Default, spool)
		ext := sbase.AllocExtent(sweepPages)
		// Seed every page through the pool (delay off) so checksums exist.
		for i := 0; i < sweepPages; i++ {
			h, err := spool.Fix(sdev, ext+disk.PageID(i))
			if err != nil {
				return err
			}
			h.MarkDirty()
			if err := h.Unfix(true); err != nil {
				return err
			}
		}
		if err := spool.FlushAll(); err != nil {
			return err
		}
		sdev.WriteDelay = lat.ReadDelay // evictions now pay real write latency
		best := int64(0)
		for r := 0; r < *reps; r++ {
			var wg sync.WaitGroup
			errs := make([]error, *workers)
			start := time.Now()
			for w := 0; w < *workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					off := w * sweepPages / *workers
					for it := 0; it < *iters; it++ {
						for k := 0; k < sweepPages; k++ {
							h, err := spool.Fix(sdev, ext+disk.PageID((off+k)%sweepPages))
							if err != nil {
								errs[w] = err
								return
							}
							h.MarkDirty()
							if err := h.Unfix(true); err != nil {
								errs[w] = err
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			ns := time.Since(start).Nanoseconds()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			if r == 0 || ns < best {
				best = ns
			}
		}
		p := ioShardPoint{Shards: nshards, Ns: best}
		if len(points) > 0 && points[0].Shards == 1 {
			p.SpeedupV1 = float64(points[0].Ns) / float64(best)
		} else if nshards == 1 {
			p.SpeedupV1 = 1
		}
		points = append(points, p)
		fmt.Printf("  shards=%d : %s (%.2fx vs 1 shard)\n",
			nshards, time.Duration(best).Round(time.Microsecond), p.SpeedupV1)
	}

	fmt.Printf("registry: prefetch issued=%d hit=%d wasted=%d dropped=%d evictions=%d\n",
		obs.Default.Get("buffer.prefetch.issued"), obs.Default.Get("buffer.prefetch.hit"),
		obs.Default.Get("buffer.prefetch.wasted"), obs.Default.Get("buffer.prefetch.dropped"),
		obs.Default.Get("buffer.evictions"))

	if *jsonOut {
		section := map[string]any{
			"pages":         *pages,
			"page_size":     disk.PaperPageSize,
			"read_delay_ns": lat.ReadDelay.Nanoseconds(),
			"scale":         *scale,
			"window":        *window,
			"depth":         *depth,
			"reps":          *reps,
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"scan":          scan,
			"shard_sweep": map[string]any{
				"workers":        *workers,
				"iters":          *iters,
				"sweep_pages":    sweepPages,
				"pool_pages":     poolPages,
				"write_delay_ns": lat.ReadDelay.Nanoseconds(),
				"points":         points,
			},
		}
		if err := writeJSONSection(benchJSONFile, "io_overlap", section); err != nil {
			return err
		}
		fmt.Printf("(wrote io_overlap section to %s)\n", benchJSONFile)
	}

	if *check {
		if runtime.GOMAXPROCS(0) < 2 {
			fmt.Println("(-check skipped: GOMAXPROCS < 2, no overlap available)")
			return nil
		}
		if scan.PrefetchHitRate < 0.8 {
			return fmt.Errorf("io -check: prefetch hit rate %.0f%% below 80%%", 100*scan.PrefetchHitRate)
		}
		if raNs >= syncNs {
			return fmt.Errorf("io -check: read-ahead scan (%s) not faster than synchronous (%s)",
				time.Duration(raNs), time.Duration(syncNs))
		}
		fmt.Printf("(-check passed: %.2fx scan speedup at %.0f%% prefetch hit rate)\n",
			scan.Speedup, 100*scan.PrefetchHitRate)
	}
	return nil
}
