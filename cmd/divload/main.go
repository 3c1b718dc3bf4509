// Command divload is the repository benchmark. It drives four closed-loop
// workloads through the library, the distributed exchange, the query server
// and the durable store, checks every operation's quotient against
// division.Reference, and prints each metric by name with its unit and
// sample count, ending with one JSON result line per workload.
//
//	divload [-workload name] [-seed n] [-seconds n] [-trace]
//
// Without -workload every workload runs in sequence. An untraced run (the
// default, 30 s per workload) measures the end-to-end metrics; a traced run
// (-trace, 10 s per workload) alternates plain operations with operations
// issued through the layers' own entry points with their statistics and
// spans enabled, and prints the per-layer metrics. Each workload first
// sets itself up several times, each time up to its first correct answer
// (setup_s is the median), and discards a warm-up of min(2 s, seconds/5).
//
// Inputs come only from workload.Generate with -seed (default 1). Seed 2 is
// held out for verifying performance claims. The benchmark's module sits in
// this directory; run it from the repository root with
//
//	sh cmd/divload/run.sh -workload morsel-zipf -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/storage"
)

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcHeapLimit)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gcHeapLimit is the heap size at which the collector runs. The workloads'
// live heaps are 4 to 18 MB and they allocate up to 3 MB per operation, so
// the default pacing (GOGC=100) starts a cycle every operation or two, and
// whether an operation overlaps one decides its latency: on durable-mixed
// the p50 falls between the operations that do and those that do not, and
// moves with their shares. With this limit a cycle comes 2 to 15 times a
// second and a p50 operation runs without one. The collections still run
// inside the measurement, and alloc_kb_per_op measures the allocation.
const gcHeapLimit = 64 << 20

// Setup repeats until at least minSetups runs and minSetupTime have passed,
// so even millisecond setups report a median over enough samples.
const (
	minSetups    = 5
	maxSetups    = 25
	minSetupTime = 250 * time.Millisecond
	maxWarmup    = 2 * time.Second
)

type config struct {
	seed    int64
	measure time.Duration
	warmup  time.Duration
	trace   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("divload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all, in order)")
	seed := fs.Int64("seed", 1, "seed of every generated input; 2 is the held-out seed for verifying claims")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default 30, or 10 with -trace)")
	trace := fs.Bool("trace", false, "traced run: print the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "divload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := config{seed: *seed, trace: *trace, measure: 30 * time.Second}
	if *trace {
		cfg.measure = 10 * time.Second
	}
	if !(*seconds >= 0) || math.IsInf(*seconds, 1) {
		fmt.Fprintf(stderr, "divload: -seconds %v is not a finite number of seconds >= 0\n", *seconds)
		return 2
	}
	if *seconds > 0 {
		cfg.measure = time.Duration(*seconds * float64(time.Second))
	}
	cfg.warmup = min(maxWarmup, cfg.measure/5)

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "divload: unknown workload %q\n", *name)
			return 2
		}
	}

	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "divload: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "divload: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// normalizeArgs joins "-trace 0" and "--trace 1" into "-trace=0" and
// "-trace=1": a boolean flag otherwise takes no separate value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// workloadDef is one benchmark traffic mix. prepare generates the inputs and
// their reference quotient, outside any timing, and returns the function
// that brings the system up on them.
type workloadDef struct {
	name    string
	prepare func(seed int64) (startFunc, error)
}

// startFunc brings a fresh system up. setup_s times it together with the
// system's first operation, so lazy initialization counts as set-up too.
// tracing installs the benchmark's timing wrappers (inert until beginTrace).
type startFunc func(tracing bool, st *setupStats) (system, error)

// setupStats collects what a setup measured besides its own duration.
type setupStats struct {
	replays      []time.Duration // durable-mixed: one log replay per setup
	replayedRows int
}

// system is a running workload.
type system interface {
	// loaders returns the closed-loop load, one entry per goroutine.
	loaders() []loader
	// beginTrace snapshots the counters the traced phase is measured
	// against and switches the timing wrappers on.
	beginTrace()
	// layers records the per-layer metrics of the traced phase.
	layers(m *metrics, ph *phase)
	// close stops everything the system started and waits for it, and
	// reports state it leaked or lost.
	close() error
}

// loader is one load goroutine: op runs one operation, returns the time the
// system took for it, and then checks its result. kind is "divide" or
// "insert" (of eventRows rows).
type loader struct {
	kind string
	op   func(traced bool) (time.Duration, error)
}

// phase is the outcome of running the loaders for one period. Latencies
// are kept per loader kind, sorted, one per operation: plain operations in
// lat, traced ones in tlat.
type phase struct {
	elapsed   time.Duration
	lat, tlat map[string][]time.Duration
	failed    int
	err       error // first failure
	alloc     uint64
}

func (p *phase) attempted() int {
	n := 0
	for k := range p.lat {
		n += p.count(k)
	}
	return n
}

// count is the number of operations of one kind, traced or not.
func (p *phase) count(kind string) int { return len(p.lat[kind]) + len(p.tlat[kind]) }

// total is the summed latency of the operations of one kind.
func (p *phase) total(kind string) time.Duration { return sum(p.lat[kind]) + sum(p.tlat[kind]) }

// runPhase runs every loader in a closed loop until d has passed. With
// alternate, every second operation of each loader is traced, so traced
// and plain operations see the same machine. A loader stops at its first
// failed operation.
func runPhase(ls []loader, d time.Duration, alternate bool) *phase {
	type loaderResult struct {
		lat, tlat []time.Duration
		failed    int
		err       error
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	results := make([]loaderResult, len(ls))
	var wg sync.WaitGroup
	for i, l := range ls {
		wg.Add(1)
		go func(r *loaderResult, l loader) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				traced := alternate && n%2 == 1
				lat, err := l.op(traced)
				if traced {
					r.tlat = append(r.tlat, lat)
				} else {
					r.lat = append(r.lat, lat)
				}
				if err != nil {
					r.failed++
					r.err = err
					return
				}
			}
		}(&results[i], l)
	}
	wg.Wait()
	p := &phase{
		elapsed: time.Since(start),
		lat:     make(map[string][]time.Duration),
		tlat:    make(map[string][]time.Duration),
	}
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	for i, r := range results {
		k := ls[i].kind
		p.lat[k] = append(p.lat[k], r.lat...)
		p.tlat[k] = append(p.tlat[k], r.tlat...)
		p.failed += r.failed
		if p.err == nil {
			p.err = r.err
		}
	}
	for _, m := range []map[string][]time.Duration{p.lat, p.tlat} {
		for _, s := range m {
			slices.Sort(s)
		}
	}
	return p
}

// result is the JSON line that ends each workload's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets w up, warms it up, measures it, tears it down, checks
// for leaks, prints the metrics and returns the JSON result. An error means
// the workload could not be set up or measured at all.
func runWorkload(w workloadDef, cfg config, out io.Writer) (*result, error) {
	baseline := runtime.NumGoroutine()
	start, err := w.prepare(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	var st setupStats
	var setups []time.Duration
	var sys system
	for total := time.Duration(0); len(setups) < minSetups || (total < minSetupTime && len(setups) < maxSetups); {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("setup %d teardown: %w", len(setups), err)
			}
		}
		// Each setup starts from a collected heap, so the garbage of the one
		// before is not charged to it.
		runtime.GC()
		t0 := time.Now()
		sys, err = start(cfg.trace, &st)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if _, err := sys.loaders()[0].op(false); err != nil {
			sys.close() //nolint:errcheck // reporting the first failure
			return nil, fmt.Errorf("setup: first operation: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d)
		total += d
	}
	slices.Sort(setups)

	ls := sys.loaders()
	warm := runPhase(ls, cfg.warmup, false)
	if cfg.trace {
		sys.beginTrace()
	}
	ph := runPhase(ls, cfg.measure, cfg.trace)

	m := &metrics{}
	m.add("setup_s", "s", quantile(setups, 0.5).Seconds(), len(setups))
	if len(st.replays) > 0 {
		slices.Sort(st.replays)
		replay := quantile(st.replays, 0.5)
		m.add("replay_ms", "ms", ms(replay), len(st.replays))
		if cfg.trace {
			m.layer("wal.replay_rows_per_s", float64(st.replayedRows)/replay.Seconds(), len(st.replays))
		}
	}
	if cfg.trace {
		sys.layers(m, ph)
		m.layer("obs.trace_overhead_frac",
			ratio(ms(quantile(ph.tlat["divide"], 0.5)), ms(quantile(ph.lat["divide"], 0.5)))-1,
			len(ph.tlat["divide"]))
	} else {
		recordEndToEnd(m, ph)
	}

	res := &result{Correct: true, Metrics: make(map[string]jsonMetric)}
	var problems []error
	for _, p := range []*phase{warm, ph} {
		res.Attempted += p.attempted()
		res.Failed += p.failed
		if p.err != nil {
			problems = append(problems, p.err)
		}
	}
	m.add("failed_frac", "frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	if err := sys.close(); err != nil {
		problems = append(problems, fmt.Errorf("teardown: %w", err))
	}
	if err := checkLeaks(baseline); err != nil {
		problems = append(problems, err)
	}
	if len(problems) > 0 {
		res.Correct = false
	}

	fmt.Fprintf(out, "divload %s: seed=%d gomaxprocs=%d trace=%v setups=%d warmup=%s measure=%s\n",
		w.name, cfg.seed, runtime.GOMAXPROCS(0), cfg.trace, len(setups), cfg.warmup, cfg.measure)
	for _, mt := range m.list {
		fmt.Fprintf(out, "  %-38s %16.6f %-9s n=%d\n", mt.name, mt.value, mt.unit, mt.samples)
	}
	for _, err := range problems {
		fmt.Fprintf(out, "  FAILED: %v\n", err)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		// A layer the workload does not exercise reads 0.
		var v float64
		if mt, ok := m.get(d.name); ok {
			v = mt.value
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// recordEndToEnd derives the user-visible metrics of one untraced phase.
func recordEndToEnd(m *metrics, p *phase) {
	div := p.lat["divide"]
	m.add("divide_p50_ms", "ms", ms(quantile(div, 0.5)), len(div))
	m.add("divide_p95_ms", "ms", ms(quantile(div, 0.95)), len(div))
	m.add("divide_qps", "1/s", float64(len(div))/p.elapsed.Seconds(), len(div))
	m.add("alloc_kb_per_op", "KB", ratio(float64(p.alloc)/1024, float64(len(div))), len(div))
	if ins := p.lat["insert"]; len(ins) > 0 {
		m.add("insert_p50_ms", "ms", ms(quantile(ins, 0.5)), len(ins))
		m.add("insert_p95_ms", "ms", ms(quantile(ins, 0.95)), len(ins))
		m.add("insert_rows_s", "rows/s", float64(len(ins)*eventRows)/p.elapsed.Seconds(), len(ins))
	}
}

// checkLeaks waits for the goroutine count to return to baseline and
// requires every spill file to be dropped.
func checkLeaks(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("leak: %d goroutines after teardown, %d before setup", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := storage.LiveSpillFiles(); n != 0 {
		return fmt.Errorf("leak: %d spill files still live after teardown", n)
	}
	return nil
}

// metricDef names a metric of the JSON result line; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 result set: metrics every workload produces.
var endToEnd = []metricDef{
	{"divide_p50_ms", "ms"},
	{"divide_p95_ms", "ms"},
	{"divide_qps", "1/s"},
	{"alloc_kb_per_op", "KB"},
	{"setup_s", "s"},
}

// perLayer is the --trace 1 result set. Timings are given as shares of the
// operation they block or as rates, so a layer a workload bypasses reads 0
// without a constant time appearing in the results.
var perLayer = []metricDef{
	{"parallel.worker_mtuples_per_s", "Mtuple/s"},
	{"parallel.worker_skew", "ratio"},
	{"parallel.shipped_kb_per_query", "KB"},
	{"parallel.filter_drop_frac", "frac"},
	{"parallel.morsels_per_query", "count"},
	{"netexchange.worker_busy_frac", "frac"},
	{"netexchange.worker_read_wait_frac", "frac"},
	{"netexchange.wire_kb_per_query", "KB"},
	{"netexchange.frames_per_query", "count"},
	{"netexchange.filter_drop_frac", "frac"},
	{"netexchange.worker_skew", "ratio"},
	{"netexchange.pipeline_stalls_per_query", "count"},
	{"server.admission_wait_frac", "frac"},
	{"server.cache_hit_frac", "frac"},
	{"buffer.governor_high_water_kb", "KB"},
	{"division.spill_kb_per_query", "KB"},
	{"division.spilled_partitions_per_query", "count"},
	{"division.repartitions_per_query", "count"},
	{"division.wasted_tuple_frac", "frac"},
	{"division.build_mtuples_per_s", "Mtuple/s"},
	{"division.absorb_mtuples_per_s", "Mtuple/s"},
	{"division.scan_mtuples_per_s", "Mtuple/s"},
	{"storage.spill_write_frac", "frac"},
	{"storage.spill_read_frac", "frac"},
	{"storage.snapshot_frac", "frac"},
	{"disk.data_reads_per_read", "count"},
	{"buffer.hit_frac", "frac"},
	{"buffer.prefetch_hit_frac", "frac"},
	{"buffer.evictions_per_s", "1/s"},
	{"buffer.writebacks_per_s", "1/s"},
	{"wal.sync_frac", "frac"},
	{"wal.rows_per_sync", "count"},
	{"wal.insert_rows_per_s", "rows/s"},
	{"wal.replay_rows_per_s", "rows/s"},
	{"costmodel.measured_over_model", "ratio"},
	{"costmodel.priced_io_over_model", "ratio"},
	{"obs.trace_overhead_frac", "frac"},
}

type metric struct {
	name, unit string
	value      float64
	samples    int
}

// metrics is one workload's measured values, in the order recorded.
type metrics struct{ list []metric }

func (m *metrics) add(name, unit string, v float64, samples int) {
	m.list = append(m.list, metric{name: name, unit: unit, value: v, samples: samples})
}

// layer records a per-layer metric under its perLayer unit.
func (m *metrics) layer(name string, v float64, samples int) {
	for _, d := range perLayer {
		if d.name == name {
			m.add(name, d.unit, v, samples)
			return
		}
	}
	panic("divload: per-layer metric " + name + " is not in perLayer")
}

func (m *metrics) get(name string) (metric, bool) {
	for _, mt := range m.list {
		if mt.name == name {
			return mt, true
		}
	}
	return metric{}, false
}

// quantile is the nearest-rank q-quantile of sorted samples; 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was measured (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errMismatch marks an operation whose result differs from the reference.
var errMismatch = errors.New("quotient differs from division.Reference")
