package reldiv

// Crash-recovery property suite for the durable write path. Randomized
// insert workloads run against a WAL device that dies at a random byte
// offset (power-cut or direct-tear semantics); reopening the store over the
// surviving image must restore, per appender goroutine, exactly a prefix of
// its attempted rows that covers every acknowledged one — no torn tail
// visible, no phantom rows — and all four division algorithms must agree on
// the quotient over the recovered tables.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// recoveryAlgorithms are the paper's four division algorithms, all of which
// must produce identical quotients over recovered tables.
var recoveryAlgorithms = []Algorithm{Naive, SortAggregationJoin, HashAggregationJoin, HashDivision}

// sortedRows renders a relation's rows as sorted strings for set comparison.
func sortedRows(t *testing.T, r *Relation) []string {
	t.Helper()
	out := make([]string, 0, r.NumRows())
	for _, row := range r.Rows() {
		out = append(out, fmt.Sprint(row...))
	}
	sort.Strings(out)
	return out
}

// crashWorkload is one randomized plan: how many appender goroutines insert
// how many rows, where the WAL device dies, and with which semantics.
type crashWorkload struct {
	seed      int64
	appenders int
	rowsPer   int
	courses   int
	powerCut  bool
	crashAt   int64 // -1: the device never dies
}

// dividendRow is the deterministic row appender g stages as its i-th insert:
// student ids repeat every courses inserts so each student accumulates the
// full divisor over one cycle, making the quotient non-trivial.
func (w crashWorkload) dividendRow(g, i int) (student, course int64) {
	student = int64(g*1000 + (i/w.courses)%5)
	course = int64(i % w.courses)
	return student, course
}

// runCrashPlan drives one plan end to end and returns the per-goroutine
// acknowledged insert counts plus the crash device (whose inner image is the
// bytes that survived).
func runCrashPlan(t *testing.T, w crashWorkload) (crash *faultinject.CrashDevice, divisorAcked int, acked []int) {
	t.Helper()
	inner := disk.NewDevice("wal", 256)
	crash = faultinject.WrapCrash(inner, faultinject.CrashPlan{CrashAtByte: w.crashAt, PowerCut: w.powerCut})
	dataDev := disk.NewDevice("data", 512)
	store, err := OpenDurableStore(crash, dataDev, &DurableOptions{SegPages: 2})
	if err != nil {
		t.Fatalf("plan %+v: open: %v", w, err)
	}

	acked = make([]int, w.appenders)
	dividend, err := store.CreateTable("dividend", Int64Col("student"), Int64Col("course"))
	if err == nil {
		var divisor *DurableTable
		divisor, err = store.CreateTable("divisor", Int64Col("course"))
		if err == nil {
			for c := 0; c < w.courses; c++ {
				if err = divisor.Insert(int64(c)); err != nil {
					break
				}
				divisorAcked++
			}
		}
	}
	if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("plan %+v: setup failed with %v, want ErrCrashed", w, err)
	}
	if err == nil {
		var wg sync.WaitGroup
		errs := make([]error, w.appenders)
		for g := 0; g < w.appenders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < w.rowsPer; i++ {
					student, course := w.dividendRow(g, i)
					if err := dividend.Insert(student, course); err != nil {
						errs[g] = err
						return
					}
					acked[g]++
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil && !errors.Is(err, faultinject.ErrCrashed) {
				t.Fatalf("plan %+v: appender %d failed with %v, want ErrCrashed", w, g, err)
			}
		}
	}

	if err := store.Close(); err != nil && !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("plan %+v: close failed with %v, want ErrCrashed", w, err)
	}
	if n := store.Pool().FixedFrames(); n != 0 {
		t.Fatalf("plan %+v: %d buffer frames still fixed after close", w, n)
	}
	return crash, divisorAcked, acked
}

// checkPrefix asserts that the recovered rows attributable to one appender
// goroutine are exactly a prefix of its attempted sequence (compared as
// multisets — prefixes of the deterministic sequence are uniquely identified
// by their multiset) at least as long as its acknowledged count.
func checkPrefix(t *testing.T, w crashWorkload, g int, recovered []string, acked int) {
	t.Helper()
	k := len(recovered)
	if k < acked {
		t.Fatalf("plan %+v: appender %d: %d rows recovered, %d were acknowledged", w, g, k, acked)
	}
	if k > w.rowsPer {
		t.Fatalf("plan %+v: appender %d: %d rows recovered, only %d attempted", w, g, k, w.rowsPer)
	}
	want := make([]string, 0, k)
	for i := 0; i < k; i++ {
		student, course := w.dividendRow(g, i)
		want = append(want, fmt.Sprint(student, course))
	}
	sort.Strings(want)
	sort.Strings(recovered)
	for i := range want {
		if recovered[i] != want[i] {
			t.Fatalf("plan %+v: appender %d: recovered rows are not the attempted prefix of length %d (first mismatch %q vs %q)",
				w, g, k, recovered[i], want[i])
		}
	}
}

// referenceQuotient computes the quotient of the recovered tables directly:
// students whose recovered course set covers every recovered divisor course.
func referenceQuotient(dividend, divisor *Relation) []string {
	courses := make(map[int64]bool)
	for _, row := range divisor.Rows() {
		courses[row[0].(int64)] = true
	}
	if len(courses) == 0 {
		return nil // package contract: empty divisor yields an empty quotient
	}
	taken := make(map[int64]map[int64]bool)
	for _, row := range dividend.Rows() {
		s, c := row[0].(int64), row[1].(int64)
		if taken[s] == nil {
			taken[s] = make(map[int64]bool)
		}
		taken[s][c] = true
	}
	var out []string
	for s, set := range taken {
		covers := true
		for c := range courses {
			if !set[c] {
				covers = false
				break
			}
		}
		if covers {
			out = append(out, fmt.Sprint(s))
		}
	}
	sort.Strings(out)
	return out
}

// TestRecoveryProperty is the acceptance property: across 100+ randomized
// (workload, crash-offset, crash-semantics, concurrency) plans, replay after
// the crash restores exactly the committed prefix and the four division
// algorithms agree on the quotient over the recovered tables.
func TestRecoveryProperty(t *testing.T) {
	const plans = 112
	crashed := 0
	for p := 0; p < plans; p++ {
		w := crashWorkload{seed: int64(0xD1E<<16 | p)}
		rng := rand.New(rand.NewSource(w.seed))
		w.appenders = 1 + rng.Intn(4)
		w.rowsPer = 4 + rng.Intn(21)
		w.courses = 1 + rng.Intn(3)
		w.powerCut = rng.Intn(2) == 1
		// The workload stages roughly 40 bytes per row; drawing the crash
		// offset past the end (or -1) covers the crash-free path too.
		if p%5 == 0 {
			w.crashAt = -1
		} else {
			approx := int64(40*(w.appenders*w.rowsPer+w.courses) + 300)
			w.crashAt = rng.Int63n(approx)
		}

		crash, divisorAcked, acked := runCrashPlan(t, w)
		if crash.Crashed() {
			crashed++
		}

		// Reopen over the surviving WAL image with a fresh data device: the
		// log alone must rebuild the tables.
		recovered, err := OpenDurableStore(crash.Inner(), disk.NewDevice("data", 512), &DurableOptions{SegPages: 2})
		if err != nil {
			t.Fatalf("plan %+v: recovery: %v", w, err)
		}

		divRel := &Relation{name: "divisor", schema: nil}
		if tbl, ok := recovered.Table("divisor"); ok {
			if divRel, err = tbl.Relation(); err != nil {
				t.Fatalf("plan %+v: read recovered divisor: %v", w, err)
			}
			if n := divRel.NumRows(); n < divisorAcked || n > w.courses {
				t.Fatalf("plan %+v: %d divisor rows recovered, acked %d of %d", w, n, divisorAcked, w.courses)
			}
			for i, row := range divRel.Rows() {
				if row[0].(int64) != int64(i) {
					t.Fatalf("plan %+v: recovered divisor is not the insertion prefix: row %d = %v", w, i, row)
				}
			}
		} else if divisorAcked > 0 {
			t.Fatalf("plan %+v: divisor table lost after %d acknowledged inserts", w, divisorAcked)
		}

		tbl, ok := recovered.Table("dividend")
		if !ok {
			// The crash predates the acknowledged creation of the dividend
			// table only if nothing after it was acknowledged either.
			if divisorAcked > 0 || ackedTotal(acked) > 0 {
				t.Fatalf("plan %+v: dividend table lost with later work acknowledged", w)
			}
			continue
		}
		divdRel, err := tbl.Relation()
		if err != nil {
			t.Fatalf("plan %+v: read recovered dividend: %v", w, err)
		}
		perG := make([][]string, w.appenders)
		for _, row := range divdRel.Rows() {
			g := int(row[0].(int64)) / 1000
			if g < 0 || g >= w.appenders {
				t.Fatalf("plan %+v: recovered phantom row %v", w, row)
			}
			perG[g] = append(perG[g], fmt.Sprint(row[0], row[1]))
		}
		for g := range perG {
			checkPrefix(t, w, g, perG[g], acked[g])
		}

		// Quotient parity: every algorithm over the recovered tables must
		// match the straightforward reference computation.
		if divRel.schema != nil {
			want := referenceQuotient(divdRel, divRel)
			for _, alg := range recoveryAlgorithms {
				q, err := Divide(divdRel, divRel, []string{"course"}, &Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("plan %+v: %s over recovered tables: %v", w, alg, err)
				}
				if got := sortedRows(t, q); !equalStrings(got, want) {
					t.Fatalf("plan %+v: %s quotient %v over recovered tables, reference %v", w, alg, got, want)
				}
			}
		}
		if err := recovered.Close(); err != nil {
			t.Fatalf("plan %+v: close recovered store: %v", w, err)
		}
	}
	// The offset heuristic must keep most plans dying mid-stream, or the
	// suite degenerates into testing the crash-free path only.
	if crashed < plans/3 {
		t.Fatalf("only %d of %d plans crashed; the crash-offset heuristic drifted", crashed, plans)
	}
}

func ackedTotal(acked []int) int {
	total := 0
	for _, n := range acked {
		total += n
	}
	return total
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walGatedDev wraps the data device and asserts the WAL-before-data
// invariant on every write: a heap page image reaching the device may hold
// only rows whose log records are already durable. The row count lives in
// the page header (u32 LE) and pages are allocated sequentially, so page p
// with n rows implies rows up to index p·perPage+n exist — each backed by
// one insert record, with the table-create record occupying LSN 1.
type walGatedDev struct {
	disk.Dev
	mu         sync.Mutex
	perPage    int
	durableLSN func() uint64
	violations []string
}

func (d *walGatedDev) Write(p disk.PageID, buf []byte) error {
	rows := int(binary.LittleEndian.Uint32(buf[:4]))
	durableInserts := int(d.durableLSN()) - 1
	if need := int(p)*d.perPage + rows; need > durableInserts {
		d.mu.Lock()
		d.violations = append(d.violations,
			fmt.Sprintf("page %d with %d rows written with only %d inserts durable", p, rows, durableInserts))
		d.mu.Unlock()
	}
	return d.Dev.Write(p, buf)
}

// TestWALBeforeDataInvariant forces dirty-page evictions mid-batch with a
// tiny buffer pool and checks, at the device boundary, that no data page
// ever lands before the log records covering its rows are durable.
func TestWALBeforeDataInvariant(t *testing.T) {
	walDev := disk.NewDevice("wal", 4096)
	gated := &walGatedDev{Dev: disk.NewDevice("data", 512)}
	store, err := OpenDurableStore(walDev, gated, &DurableOptions{
		PoolBytes: 32 * 512, // 32 frames: far fewer than the pages dirtied
		SegPages:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	gated.durableLSN = store.DurableLSN

	tbl, err := store.CreateTable("t", Int64Col("a"), Int64Col("b"))
	if err != nil {
		t.Fatal(err)
	}
	gated.perPage = (512 - 4) / 16
	const rows = 2000 // ~65 pages of 31 rows: evictions throughout the batch
	batch := make([][]any, rows)
	for i := range batch {
		batch[i] = []any{int64(i), int64(i * 2)}
	}
	// One commit for the whole batch: every eviction before it must block on
	// the barrier and force the log ahead of the data.
	if err := tbl.InsertRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	gated.mu.Lock()
	defer gated.mu.Unlock()
	for _, v := range gated.violations {
		t.Errorf("WAL-before-data violated: %s", v)
	}
	if gated.Dev.(*disk.Device).Stats().Writes == 0 {
		t.Fatal("no data pages reached the device; the invariant was never exercised")
	}
	if store.WALStats().Syncs < 2 {
		t.Fatalf("only %d WAL syncs: evictions never forced the log ahead", store.WALStats().Syncs)
	}
}

// TestDurableStoreReopen covers the crash-free lifecycle: create, insert,
// close, reopen over the same devices, and keep appending — rows, schemas,
// and the division bridge must all survive.
func TestDurableStoreReopen(t *testing.T) {
	before := runtime.NumGoroutine()
	walDev := disk.NewDevice("wal", 1024)
	store, err := OpenDurableStore(walDev, disk.NewDevice("data", 512), nil)
	if err != nil {
		t.Fatal(err)
	}
	dividend, err := store.CreateTable("dividend", Int64Col("student"), Int64Col("course"))
	if err != nil {
		t.Fatal(err)
	}
	divisor, err := store.CreateTable("divisor", Int64Col("course"))
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 2; c++ {
		if err := divisor.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	// Student 1 takes both courses, student 2 only one.
	rows := [][]any{{int64(1), int64(0)}, {int64(1), int64(1)}, {int64(2), int64(0)}}
	if err := dividend.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDurableStore(walDev, disk.NewDevice("data", 512), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := reopened.Table("dividend")
	if !ok {
		t.Fatal("dividend table lost across reopen")
	}
	if got := tbl.NumRows(); got != len(rows) {
		t.Fatalf("%d rows after reopen, want %d", got, len(rows))
	}
	if cols := tbl.Columns(); len(cols) != 2 || cols[0] != "student" || cols[1] != "course" {
		t.Fatalf("schema lost across reopen: %v", cols)
	}
	// Appending continues after recovery.
	if err := tbl.Insert(int64(3), int64(1)); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}

	dtbl, _ := reopened.Table("divisor")
	divdRel, err := tbl.Relation()
	if err != nil {
		t.Fatal(err)
	}
	divRel, err := dtbl.Relation()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Divide(divdRel, divRel, []string{"course"}, &Options{Algorithm: HashDivision})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(t, q); len(got) != 1 || got[0] != "1" {
		t.Fatalf("quotient over reopened tables = %v, want [1]", got)
	}

	// The streaming bridge sees the same rows.
	in := tbl.StreamInput()
	r, err := in.Open()
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed++
	}
	if streamed != 4 {
		t.Fatalf("stream saw %d rows, want 4", streamed)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Goroutines(t, before)
}
