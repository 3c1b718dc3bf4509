package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	reldiv "repro"
	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/netexchange"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tuple"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/server"
)

// workloads run in this order. README.md gives the reason for each.
var workloads = []workloadDef{
	{name: "morsel-zipf", prepare: prepareMorsel},
	{name: "wire-zipf", prepare: prepareWire},
	{name: "server-spill", prepare: prepareServer},
	{name: "durable-mixed", prepare: prepareDurable},
}

// The load is sized for two cores: one or two load goroutines per
// workload, two exchange workers, two server clients.
const (
	exchangeWorkers = 2
	serverClients   = 2

	serverMemoryBytes = 96 << 10 // fits one 64 KB grant: the second client queues
	serverQueryBytes  = 64 << 10

	durableS     = 100 // Table 4 case: |R| = 40 k, a 640 KB heap over a 256 KB pool
	durableQ     = 400
	eventRows    = 32   // rows per writer InsertRows
	walSyncScale = 0.05 // of the Table 3 costs: a WAL sync sleeps 1.4 ms
)

// zipfCell is the Zipf-1.5 cell of the network_scaling section:
// |S| = |Q| = 400 and about 146 k dividend tuples.
func zipfCell(seed int64) workload.Config {
	return workload.Config{
		DivisorTuples:      400,
		QuotientCandidates: 400,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  5,
		CourseZipfS:        1.5,
		Shuffle:            true,
		Seed:               seed,
	}
}

// digest is an order-independent fingerprint of a quotient of student ids.
type digest struct {
	rows int
	sum  uint64
}

func (d *digest) add(id int64) {
	// splitmix64 finalizer, summed so row order does not matter.
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	d.rows++
	d.sum += x ^ x>>31
}

// check compares a result's digest with the reference.
func (d digest) check(got digest) error {
	if got != d {
		return fmt.Errorf("%w: %d rows (hash %#x), want %d rows (hash %#x)",
			errMismatch, got.rows, got.sum, d.rows, d.sum)
	}
	return nil
}

func tuplesDigest(qs *tuple.Schema, ts []tuple.Tuple) digest {
	var d digest
	for _, t := range ts {
		d.add(qs.Int64(t, 0))
	}
	return d
}

func relationDigest(r *reldiv.Relation) digest {
	var d digest
	for i := 0; i < r.NumRows(); i++ {
		d.add(r.Row(i)[0].(int64))
	}
	return d
}

// spec is the instance as a division of transcript by courses.
func spec(inst *workload.Instance) division.Spec {
	return division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

// generate builds the instance and its reference quotient's digest.
func generate(cfg workload.Config) (*workload.Instance, digest, error) {
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, digest{}, err
	}
	sp := spec(inst)
	ref, err := division.Reference(sp)
	if err != nil {
		return nil, digest{}, err
	}
	return inst, tuplesDigest(sp.QuotientSchema(), ref), nil
}

// rowsOf converts tuples to the library's row values.
func rowsOf(s *tuple.Schema, ts []tuple.Tuple) [][]any {
	rows := make([][]any, len(ts))
	for i, t := range ts {
		rows[i] = s.Row(t)
	}
	return rows
}

// int64Rows converts tuples to the server protocol's rows.
func int64Rows(s *tuple.Schema, ts []tuple.Tuple) [][]int64 {
	rows := make([][]int64, len(ts))
	for i, t := range ts {
		row := make([]int64, s.NumFields())
		for j := range row {
			row[j] = s.Int64(t, j)
		}
		rows[i] = row
	}
	return rows
}

// skew is max ÷ mean dividend tuples over the workers.
func skew(ws []parallel.WorkerStats) float64 {
	var total, most int64
	for _, w := range ws {
		total += w.DividendTuples
		most = max(most, w.DividendTuples)
	}
	return ratio(float64(most)*float64(len(ws)), float64(total))
}

func mtuplesPerSecond(tuples int64, d time.Duration) float64 {
	return ratio(float64(tuples), float64(d)/float64(time.Microsecond))
}

// --- morsel-zipf -----------------------------------------------------------

// morselSys divides in-memory relations with two morsel workers and the
// bit-vector filter: reldiv.Divide untraced, parallel.DivideContext with a
// tracer when traced.
type morselSys struct {
	inst                *workload.Instance
	ref                 digest
	transcript, courses *reldiv.Relation

	// Traced-phase totals; only the loader goroutine writes them.
	queries                                   int
	workerWall                                time.Duration
	workerTuples, shipped, filtered, dividend int64
	skew                                      float64
	morsels0                                  int64
}

func prepareMorsel(seed int64) (startFunc, error) {
	inst, ref, err := generate(zipfCell(seed))
	if err != nil {
		return nil, err
	}
	dividend := rowsOf(workload.TranscriptSchema, inst.Dividend)
	divisor := rowsOf(workload.CourseSchema, inst.Divisor)
	return func(bool, *setupStats) (system, error) {
		s := &morselSys{inst: inst, ref: ref}
		s.transcript = reldiv.NewRelation("transcript", reldiv.Int64Col("student_id"), reldiv.Int64Col("course_no"))
		s.courses = reldiv.NewRelation("courses", reldiv.Int64Col("course_no"))
		for _, r := range dividend {
			if err := s.transcript.Insert(r...); err != nil {
				return nil, err
			}
		}
		for _, r := range divisor {
			if err := s.courses.Insert(r...); err != nil {
				return nil, err
			}
		}
		return s, nil
	}, nil
}

func (s *morselSys) loaders() []loader { return []loader{{kind: "divide", op: s.divide}} }

func (s *morselSys) divide(traced bool) (time.Duration, error) {
	if !traced {
		t0 := time.Now()
		q, err := reldiv.Divide(s.transcript, s.courses, nil,
			&reldiv.Options{Workers: exchangeWorkers, BitVectorFilter: true})
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		return lat, s.ref.check(relationDigest(q))
	}
	sp := spec(s.inst)
	tr := obs.NewTracer()
	t0 := time.Now()
	res, err := parallel.DivideContext(context.Background(), sp, parallel.Config{
		Workers:         exchangeWorkers,
		Strategy:        division.QuotientPartitioning,
		BitVectorFilter: true,
		Trace:           tr,
	})
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if err := s.ref.check(tuplesDigest(sp.QuotientSchema(), res.Quotient)); err != nil {
		return lat, err
	}
	tr.Profile(nil).Walk(func(span *obs.Span, _ int) {
		if span.Kind() == "worker" {
			s.workerWall += span.Wall()
		}
	})
	for _, w := range res.Workers {
		s.workerTuples += w.DividendTuples
	}
	s.queries++
	s.skew += skew(res.Workers)
	s.shipped += res.Network.BytesShipped
	s.filtered += res.Network.TuplesFiltered
	s.dividend += int64(len(s.inst.Dividend))
	return lat, nil
}

func (s *morselSys) beginTrace() { s.morsels0 = obs.Default.Get("parallel.morsels") }

func (s *morselSys) layers(m *metrics, ph *phase) {
	q := float64(s.queries)
	m.add("parallel.worker_ns_per_tuple", "ns", ratio(float64(s.workerWall), float64(s.workerTuples)), s.queries)
	m.layer("parallel.worker_mtuples_per_s", mtuplesPerSecond(s.workerTuples, s.workerWall), s.queries)
	m.layer("parallel.worker_skew", ratio(s.skew, q), s.queries)
	m.layer("parallel.shipped_kb_per_query", ratio(float64(s.shipped)/1024, q), s.queries)
	m.layer("parallel.filter_drop_frac", ratio(float64(s.filtered), float64(s.dividend)), s.queries)
	m.layer("parallel.morsels_per_query",
		ratio(float64(obs.Default.Get("parallel.morsels")-s.morsels0), float64(ph.count("divide"))), ph.count("divide"))
}

func (s *morselSys) close() error { return nil }

// --- wire-zipf -------------------------------------------------------------

// wireSys divides the morsel-zipf inputs with netexchange.Divide over two
// goroutine-hosted workers on loopback TCP. The benchmark hosts the workers
// itself so that, when tracing, it can wrap their ends of the links and
// leave the coordinator's vectored write path untouched.
type wireSys struct {
	inst    *workload.Instance
	ref     digest
	conns   []net.Conn     // coordinator ends
	wconns  []*workerConn  // worker ends, when tracing
	workers sync.WaitGroup // ServeWorker goroutines
	window  atomic.Int64   // start of the traced operation in flight

	// Traced-phase totals; only the loader goroutine writes them.
	queries                           int
	wall                              time.Duration
	bytes, frames, filtered, dividend int64
	skew                              float64
	stalls0                           int64
}

func prepareWire(seed int64) (startFunc, error) {
	inst, ref, err := generate(zipfCell(seed))
	if err != nil {
		return nil, err
	}
	return func(tracing bool, _ *setupStats) (system, error) {
		s := &wireSys{inst: inst, ref: ref}
		if err := s.start(tracing); err != nil {
			s.close() //nolint:errcheck // reporting the start failure
			return nil, err
		}
		return s, nil
	}, nil
}

func (s *wireSys) start(tracing bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	for i := 0; i < exchangeWorkers; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
		w, err := ln.Accept()
		if err != nil {
			return err
		}
		if tracing {
			wc := &workerConn{Conn: w, window: &s.window}
			s.wconns = append(s.wconns, wc)
			w = wc
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			netexchange.ServeWorker(w) //nolint:errcheck // the coordinator reports link failures
		}()
	}
	return nil
}

func (s *wireSys) loaders() []loader { return []loader{{kind: "divide", op: s.divide}} }

func (s *wireSys) divide(traced bool) (time.Duration, error) {
	sp := spec(s.inst)
	t0 := time.Now()
	if traced {
		s.window.Store(t0.UnixNano())
	}
	res, err := netexchange.Divide(context.Background(), sp, netexchange.Config{
		Strategy:        division.QuotientPartitioning,
		BitVectorFilter: true,
	}, s.conns)
	lat := time.Since(t0)
	s.window.Store(0)
	if err != nil {
		return lat, err
	}
	if err := s.ref.check(tuplesDigest(sp.QuotientSchema(), res.Quotient)); err != nil {
		return lat, err
	}
	if traced {
		s.queries++
		s.wall += lat
		s.bytes += res.Network.BytesShipped
		for _, l := range res.Links {
			s.frames += l.FramesOut + l.FramesIn
		}
		s.filtered += res.Network.TuplesFiltered
		s.dividend += int64(len(s.inst.Dividend))
		s.skew += skew(res.Workers)
	}
	return lat, nil
}

func (s *wireSys) beginTrace() { s.stalls0 = obs.Default.Get("net.pipeline.stalls") }

func (s *wireSys) layers(m *metrics, ph *phase) {
	q := float64(s.queries)
	var read, write int64
	for _, c := range s.wconns {
		read += c.readNs.Load()
		write += c.writeNs.Load()
	}
	workerTime := float64(s.wall) * float64(len(s.wconns))
	busy := workerTime - float64(read+write)
	workerQueries := q * float64(len(s.wconns))
	m.add("netexchange.worker_busy_ms", "ms", ratio(busy, workerQueries)/1e6, s.queries)
	m.add("netexchange.worker_read_wait_ms", "ms", ratio(float64(read), workerQueries)/1e6, s.queries)
	m.layer("netexchange.worker_busy_frac", ratio(busy, workerTime), s.queries)
	m.layer("netexchange.worker_read_wait_frac", ratio(float64(read), workerTime), s.queries)
	m.layer("netexchange.wire_kb_per_query", ratio(float64(s.bytes)/1024, q), s.queries)
	m.layer("netexchange.frames_per_query", ratio(float64(s.frames), q), s.queries)
	m.layer("netexchange.filter_drop_frac", ratio(float64(s.filtered), float64(s.dividend)), s.queries)
	m.layer("netexchange.worker_skew", ratio(s.skew, q), s.queries)
	m.layer("netexchange.pipeline_stalls_per_query",
		ratio(float64(obs.Default.Get("net.pipeline.stalls")-s.stalls0), float64(ph.count("divide"))), ph.count("divide"))
}

// close closes the coordinator ends; each worker then reads EOF and exits.
func (s *wireSys) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	s.workers.Wait()
	return nil
}

// --- server-spill ----------------------------------------------------------

// serverSys is the query server on loopback TCP with a budget that admits
// one query at a time, each too small for its tables, so every query spills.
type serverSys struct {
	ref     digest
	rows    int // dividend rows per query
	srv     *server.Server
	served  chan struct{} // closed when Serve returns
	clients []*server.Client
	spill   *devTimes // temp-device timings, when tracing

	mu                sync.Mutex      // guards queued and exec
	queued, exec      []time.Duration // per traced query: admission wait, the rest
	hits0, misses0    int64
	counters0         map[string]int64
	dividend, courses [][]int64
}

func prepareServer(seed int64) (startFunc, error) {
	inst, ref, err := generate(workload.Config{
		DivisorTuples:      16,
		QuotientCandidates: 2000,
		FullFraction:       0.5,
		MatchFraction:      0.5,
		NoisePerCandidate:  2,
		Shuffle:            true,
		Seed:               seed,
	})
	if err != nil {
		return nil, err
	}
	dividend := int64Rows(workload.TranscriptSchema, inst.Dividend)
	courses := int64Rows(workload.CourseSchema, inst.Divisor)
	return func(tracing bool, _ *setupStats) (system, error) {
		s := &serverSys{ref: ref, rows: len(dividend), dividend: dividend, courses: courses}
		if err := s.start(tracing); err != nil {
			s.close() //nolint:errcheck // reporting the start failure
			return nil, err
		}
		return s, nil
	}, nil
}

func (s *serverSys) start(tracing bool) error {
	opts := server.Options{MemoryBytes: serverMemoryBytes, QueryBytes: serverQueryBytes}
	if tracing {
		s.spill = &devTimes{}
		opts.TempDevFactory = func(name string) disk.Dev {
			return &timedDev{Dev: disk.NewDevice(name, disk.PaperRunPageSize), t: s.spill}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.NewServer(opts)
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) //nolint:errcheck // ends with net.ErrClosed at close
	}()
	addr := ln.Addr().String()

	loader, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer loader.Close()
	if err := loader.CreateTable("transcript", "student_id", "course_no"); err != nil {
		return err
	}
	if err := loader.CreateTable("courses", "course_no"); err != nil {
		return err
	}
	if err := loader.Insert("transcript", s.dividend); err != nil {
		return err
	}
	if err := loader.Insert("courses", s.courses); err != nil {
		return err
	}
	for i := 0; i < serverClients; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

func (s *serverSys) loaders() []loader {
	ls := make([]loader, len(s.clients))
	for i, c := range s.clients {
		ls[i] = loader{kind: "divide", op: s.divideOn(c)}
	}
	return ls
}

func (s *serverSys) divideOn(c *server.Client) func(bool) (time.Duration, error) {
	return func(traced bool) (time.Duration, error) {
		t0 := time.Now()
		resp, err := c.Divide("transcript", "courses", nil)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		var got digest
		for _, row := range resp.Rows {
			got.add(row[0])
		}
		if err := s.ref.check(got); err != nil {
			return lat, err
		}
		if traced {
			queued := time.Duration(resp.QueuedMicros) * time.Microsecond
			s.mu.Lock()
			s.queued = append(s.queued, queued)
			s.exec = append(s.exec, lat-queued)
			s.mu.Unlock()
		}
		return lat, nil
	}
}

func (s *serverSys) beginTrace() {
	s.hits0, s.misses0 = s.srv.CacheStats()
	s.counters0 = obs.Default.Snapshot()
	s.spill.on.Store(true)
}

// layers divides the phase-wide counters and spill timings by every query
// of the phase: traced and plain queries run the same server path.
func (s *serverSys) layers(m *metrics, ph *phase) {
	n := ph.count("divide")
	q := float64(n)
	latency := float64(ph.total("divide"))
	delta := func(name string) float64 { return float64(obs.Default.Get(name) - s.counters0[name]) }
	hits, misses := s.srv.CacheStats()
	hits, misses = hits-s.hits0, misses-s.misses0
	traced := len(s.queued)
	waited, ran := sum(s.queued), sum(s.exec)
	slices.Sort(s.queued)
	slices.Sort(s.exec)
	m.add("server.admission_wait_p50_ms", "ms", ms(quantile(s.queued, 0.5)), traced)
	m.add("server.admission_wait_p95_ms", "ms", ms(quantile(s.queued, 0.95)), traced)
	m.add("server.exec_p50_ms", "ms", ms(quantile(s.exec, 0.5)), traced)
	m.layer("server.admission_wait_frac", ratio(float64(waited), float64(waited+ran)), traced)
	m.layer("server.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	m.layer("buffer.governor_high_water_kb", float64(s.srv.Governor().HighWater())/1024, n)
	m.layer("division.spill_kb_per_query", ratio(delta("division.spill.bytes")/1024, q), n)
	m.layer("division.spilled_partitions_per_query", ratio(delta("division.spill.partitions"), q), n)
	m.layer("division.repartitions_per_query", ratio(delta("division.repartitions"), q), n)
	m.layer("division.wasted_tuple_frac", ratio(delta("division.attempts.wasted_tuples"), q*float64(s.rows)), n)
	write, read := float64(s.spill.writeNs.Load()), float64(s.spill.readNs.Load())
	m.add("storage.spill_write_ms", "ms", ratio(write, q)/1e6, n)
	m.add("storage.spill_read_ms", "ms", ratio(read, q)/1e6, n)
	m.layer("storage.spill_write_frac", ratio(write, latency), n)
	m.layer("storage.spill_read_frac", ratio(read, latency), n)
}

// close disconnects the clients, shuts the server down and requires every
// admission grant to have been returned.
func (s *serverSys) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv == nil {
		return nil
	}
	s.srv.Close()
	<-s.served
	if n := s.srv.Governor().InUse(); n != 0 {
		return fmt.Errorf("leak: governor still grants %d bytes", n)
	}
	return nil
}

// --- durable-mixed ---------------------------------------------------------

// durableSys is a DurableStore reopened by replaying its load log. A reader
// loops Snapshot + Divide over transcript ÷ courses while a writer appends
// to a separate events table through the same pool and log.
type durableSys struct {
	ref     digest
	store   *reldiv.DurableStore
	events  *reldiv.DurableTable
	data    *disk.Device
	walDev  *devTimes // WAL device timings, when tracing
	opts    reldiv.Options
	rng     *rand.Rand // writer goroutine only
	seq     int64
	written int64 // rows the writer had acknowledged

	// Reader totals of the traced phase (reader goroutine only).
	reads                           int
	readTime                        time.Duration
	snaps                           []time.Duration
	dataReads                       int
	pricedIOMS                      float64
	build, absorb, scan             time.Duration
	buildRows, absorbRows, scanRows int64
	pool0                           buffer.Stats
	wal0                            wal.Stats
}

func prepareDurable(seed int64) (startFunc, error) {
	inst, ref, err := generate(workload.PaperCase(durableS, durableQ, seed))
	if err != nil {
		return nil, err
	}
	dividend := rowsOf(workload.TranscriptSchema, inst.Dividend)
	divisor := rowsOf(workload.CourseSchema, inst.Divisor)
	return func(tracing bool, st *setupStats) (system, error) {
		var walDev disk.Dev = disk.LatencyFromCost(disk.NewDevice("wal", disk.PaperPageSize), disk.PaperCost(), walSyncScale)
		s := &durableSys{
			ref:  ref,
			data: disk.NewDevice("data", disk.PaperPageSize),
			opts: reldiv.Options{Algorithm: reldiv.HashDivision},
			rng:  rand.New(rand.NewSource(seed)),
		}
		if tracing {
			s.walDev = &devTimes{}
			walDev = &timedDev{Dev: walDev, t: s.walDev}
		}
		if err := loadDurable(walDev, dividend, divisor); err != nil {
			return nil, err
		}
		t0 := time.Now()
		store, err := reldiv.OpenDurableStore(walDev, s.data, nil)
		if err != nil {
			return nil, err
		}
		st.replays = append(st.replays, time.Since(t0))
		st.replayedRows = store.WALStats().Replayed
		s.store = store
		events, ok := store.Table("events")
		if !ok {
			store.Close() //nolint:errcheck // reporting the missing table
			return nil, fmt.Errorf("replay lost the events table")
		}
		s.events = events
		return s, nil
	}, nil
}

// loadDurable writes the tables through a first store on its own data
// device and closes it, leaving the load in the log for the replay.
func loadDurable(walDev disk.Dev, dividend, divisor [][]any) error {
	st, err := reldiv.OpenDurableStore(walDev, disk.NewDevice("load", disk.PaperPageSize), nil)
	if err != nil {
		return err
	}
	transcript, err := st.CreateTable("transcript", reldiv.Int64Col("student_id"), reldiv.Int64Col("course_no"))
	if err == nil {
		err = transcript.InsertRows(dividend)
	}
	var courses *reldiv.DurableTable
	if err == nil {
		courses, err = st.CreateTable("courses", reldiv.Int64Col("course_no"))
	}
	if err == nil {
		err = courses.InsertRows(divisor)
	}
	if err == nil {
		_, err = st.CreateTable("events", reldiv.Int64Col("seq"), reldiv.Int64Col("value"))
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *durableSys) loaders() []loader {
	return []loader{
		{kind: "divide", op: s.read},
		{kind: "insert", op: s.write},
	}
}

// read is one query over the store: a consistent snapshot of both tables,
// then the division.
func (s *durableSys) read(traced bool) (time.Duration, error) {
	t0 := time.Now()
	io0 := s.data.Stats()
	rels, err := s.store.Snapshot("transcript", "courses")
	if err != nil {
		return time.Since(t0), err
	}
	snap := time.Since(t0)
	io := s.data.Stats().Sub(io0)
	var q *reldiv.Relation
	var prof *obs.Profile
	if traced {
		q, prof, err = reldiv.ExplainAnalyze(rels["transcript"], rels["courses"], nil, &s.opts)
	} else {
		q, err = reldiv.Divide(rels["transcript"], rels["courses"], nil, &s.opts)
	}
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if err := s.ref.check(relationDigest(q)); err != nil {
		return lat, err
	}
	if !traced {
		return lat, nil
	}
	s.reads++
	s.readTime += lat
	s.snaps = append(s.snaps, snap)
	s.dataReads += io.Reads
	s.pricedIOMS += io.IOCostMS(disk.PaperCost())
	prof.Walk(func(span *obs.Span, _ int) {
		switch span.Name() {
		case "build-divisor-table":
			s.build += span.Wall()
			s.buildRows += span.Rows()
		case "absorb-dividend":
			s.absorb += span.Wall()
			s.absorbRows += span.Rows()
		case "scan-quotient-table":
			s.scan += span.Wall()
			s.scanRows += span.Rows()
		}
	})
	return lat, nil
}

// write appends one batch of events durably; tracing changes nothing here.
func (s *durableSys) write(bool) (time.Duration, error) {
	rows := make([][]any, eventRows)
	for i := range rows {
		s.seq++
		rows[i] = []any{s.seq, s.rng.Int63()}
	}
	t0 := time.Now()
	err := s.events.InsertRows(rows)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	s.written += eventRows
	return lat, nil
}

func (s *durableSys) beginTrace() {
	s.pool0 = s.store.Pool().Stats()
	s.wal0 = s.store.WALStats()
	s.walDev.on.Store(true)
}

func (s *durableSys) layers(m *metrics, ph *phase) {
	r := float64(s.reads)
	secs := ph.elapsed.Seconds()
	inserts := ph.count("insert")
	rows := float64(inserts * eventRows)
	p := s.store.Pool().Stats()
	fixes, hits := p.Fixes-s.pool0.Fixes, p.Hits-s.pool0.Hits
	pfIssued, pfHits := p.PrefetchIssued-s.pool0.PrefetchIssued, p.PrefetchHits-s.pool0.PrefetchHits
	syncs := s.store.WALStats().Syncs - s.wal0.Syncs
	model := costmodel.PaperParams(durableS, durableQ).HashDivisionCost()
	snapTime := sum(s.snaps)
	slices.Sort(s.snaps)
	syncTimes := s.walDev.syncTimes()

	m.add("division.build_us", "us", ratio(float64(s.build)/1e3, r), s.reads)
	m.add("division.absorb_ns_per_tuple", "ns", ratio(float64(s.absorb), float64(s.absorbRows)), s.reads)
	m.add("division.scan_us", "us", ratio(float64(s.scan)/1e3, r), s.reads)
	m.layer("division.build_mtuples_per_s", mtuplesPerSecond(s.buildRows, s.build), s.reads)
	m.layer("division.absorb_mtuples_per_s", mtuplesPerSecond(s.absorbRows, s.absorb), s.reads)
	m.layer("division.scan_mtuples_per_s", mtuplesPerSecond(s.scanRows, s.scan), s.reads)
	m.add("storage.snapshot_p50_ms", "ms", ms(quantile(s.snaps, 0.5)), s.reads)
	m.layer("storage.snapshot_frac", ratio(float64(snapTime), float64(s.readTime)), s.reads)
	m.layer("disk.data_reads_per_read", ratio(float64(s.dataReads), r), s.reads)
	m.layer("buffer.hit_frac", ratio(float64(hits), float64(fixes)), fixes)
	m.layer("buffer.prefetch_hit_frac", ratio(float64(pfHits), float64(pfIssued)), pfIssued)
	m.layer("buffer.evictions_per_s", float64(p.Evictions-s.pool0.Evictions)/secs, s.reads)
	m.layer("buffer.writebacks_per_s", float64(p.WriteBacks-s.pool0.WriteBacks)/secs, s.reads)
	m.add("wal.sync_p50_ms", "ms", ms(quantile(syncTimes, 0.5)), len(syncTimes))
	m.layer("wal.sync_frac", ratio(float64(sum(syncTimes)), float64(ph.total("insert"))), syncs)
	m.layer("wal.rows_per_sync", ratio(rows, float64(syncs)), syncs)
	m.layer("wal.insert_rows_per_s", rows/secs, inserts)
	m.add("costmodel.hashdiv_model_ms", "ms", model, 1)
	m.add("costmodel.priced_io_ms", "ms", ratio(s.pricedIOMS, r), s.reads)
	m.layer("costmodel.measured_over_model", ratio(ms(quantile(ph.lat["divide"], 0.5)), model), len(ph.lat["divide"]))
	m.layer("costmodel.priced_io_over_model", ratio(s.pricedIOMS/r, model), s.reads)
}

// close checks that every acknowledged event row is in the table, then
// closes the store.
func (s *durableSys) close() error {
	n := s.events.NumRows()
	err := s.store.Close()
	if int64(n) != s.written {
		return fmt.Errorf("events table holds %d rows, the writer had %d acknowledged", n, s.written)
	}
	return err
}
