package netexchange

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/bitmap"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// RemoteError is a failure reported by the peer through a frameError frame:
// the remote side's own description of why it abandoned the job. Code
// carries the peer's classification byte, so budget and recursion-depth
// failures inside a remote worker stay matchable with errors.Is against the
// division sentinels on this side of the wire.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string { return "netexchange: remote failure: " + e.Msg }

// Unwrap maps the wire classification back onto the local sentinel, if any.
func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case errCodeBudget:
		return division.ErrMemoryBudget
	case errCodeDepth:
		return division.ErrPartitionDepth
	}
	return nil
}

// frameBatcher packs tuples into exec.Batch arenas and flushes each full
// arena as one frame — the write-combining stage of the coordinator's
// divisor and collect rounds and of the worker's result emission.
type frameBatcher struct {
	t      transport
	b      *exec.Batch
	typ    byte
	phase  uint16
	size   int
	tuples int64
}

func newFrameBatcher(t transport, schema *tuple.Schema, typ byte, phase uint16, size int) *frameBatcher {
	return &frameBatcher{t: t, b: exec.NewBatch(schema, size), typ: typ, phase: phase, size: size}
}

func (fb *frameBatcher) add(t tuple.Tuple) error {
	fb.b.Append(t)
	if fb.b.Len() >= fb.size {
		return fb.flush()
	}
	return nil
}

func (fb *frameBatcher) flush() error {
	if fb.b.Len() == 0 {
		return nil
	}
	if _, err := fb.t.send(FrameHeader{Type: fb.typ, Phase: fb.phase, Count: uint32(fb.b.Len())}, fb.b.Raw()); err != nil {
		return err
	}
	fb.tuples += int64(fb.b.Len())
	fb.b.Reset()
	return nil
}

func (fb *frameBatcher) release() { fb.b.Release() }

// ServeWorker runs the worker half of the exchange protocol on conn: a loop
// of jobs, each a strictly phased conversation (open, divisor, filter,
// dividend, candidates/collect, quotient). It returns nil on a clean peer
// close between jobs and the terminal error otherwise; conn is closed either
// way, so a coordinator dying mid-job unwinds the worker promptly — the
// blocked read fails — with no goroutine left behind. Internal failures are
// reported to the peer with a best-effort frameError before returning.
func ServeWorker(conn net.Conn) error {
	defer conn.Close()
	return serve(&connTransport{c: conn, fr: frameReader{r: conn}})
}

// serve is the worker loop over any transport: ServeWorker's on a
// connection, DividePipes' on the worker end of a pipe.
func serve(t transport) error {
	for {
		h, payload, _, err := t.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if h.Type != frameOpen {
			return fmt.Errorf("%w: expected open, got frame type %d", ErrCorruptFrame, h.Type)
		}
		j, err := decodeJobHeader(payload)
		if err != nil {
			return err
		}
		if err := runJob(t, j); err != nil {
			t.fail(err)
			return err
		}
	}
}

// aliasBatch validates a batch frame's payload against the schema width and
// points b at it without copying.
func aliasBatch(b *exec.Batch, schema *tuple.Schema, h FrameHeader, payload []byte) error {
	if int64(h.Count)*int64(schema.Width()) != int64(len(payload)) {
		return fmt.Errorf("%w: %d tuples of width %d cannot fill %d payload bytes",
			ErrCorruptFrame, h.Count, schema.Width(), len(payload))
	}
	b.SetAlias(payload, int(h.Count))
	return nil
}

// runJob executes one division job: the worker's side of DESIGN.md §14's
// phase sequence. The local division is a division.Core fed straight off the
// transport; a positive job budget routes it through the recursive
// out-of-core operator instead of unbounded in-memory tables.
func runJob(t transport, j jobHeader) (err error) {
	defer exec.RecoverPanic(&err)
	ds := j.Dividend
	ss := j.Divisor
	qCols := ds.Complement(j.DivisorCols)
	if len(qCols) == 0 {
		return fmt.Errorf("%w: divisor columns cover the whole dividend", ErrCorruptFrame)
	}
	qs := ds.Project(qCols)
	// Only an elected filter sender builds the Babb filter: nothing
	// filters at the workers.
	var bv *bitmap.Bitmap
	if j.SendFilter {
		if !j.BitVector || j.FilterBits <= 0 {
			return fmt.Errorf("%w: filter requested with %d bits", ErrCorruptFrame, j.FilterBits)
		}
		bv = bitmap.New(j.FilterBits)
	}
	if j.Budget > 0 {
		return runBudgetJob(t, j, qs, bv)
	}

	// Phase: buffer the divisor share — already distinct, so its row count
	// is the divisor table's exact size — hash it into the Babb filter and
	// send the filter first, so the coordinator starts the dividend while
	// the table is built.
	divisor := exec.NewBatch(ss, j.BatchSize)
	defer divisor.Release()
	_, err = absorbFrames(t, ss, frameDivisorBatch, frameDivisorEnd, func(_ FrameHeader, b *exec.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			divisor.Append(b.Tuple(i))
		}
		return nil
	})
	if err == nil && bv != nil {
		for i, n := 0, divisor.Len(); i < n; i++ {
			division.SetFilterBit(bv, divisor.Tuple(i))
		}
		err = sendFilter(t, j, bv)
	}
	if err != nil {
		return err
	}
	core := division.NewCore(division.CompileKeyPlan(ds, j.DivisorCols), ss, division.CoreOptions{
		DivisorCapacity:  divisor.Len(),
		ExpectedQuotient: 256,
		HBS:              j.HBS,
	})
	defer core.Release()
	for i, n := 0, divisor.Len(); i < n; i++ {
		if err := core.AddDivisor(divisor.Tuple(i)); err != nil {
			return err
		}
	}

	// Phase: absorb the dividend stream without a copy — each frame's
	// payload is aliased into a batch and folded into the core before the
	// next read reuses it.
	_, err = absorbFrames(t, ds, frameDividendBatch, frameDividendEnd, func(_ FrameHeader, b *exec.Batch) error {
		return core.AbsorbBatch(b)
	})
	if err != nil {
		return err
	}
	return finishJob(t, qs, j, core.Stats().DividendTuples, core.DivisorCount(), core.Scan)
}

// sendFilter ships the divisor's bit vector back from an elected filter
// sender, so the coordinator can drop dividend tuples before they are ever
// shipped — the semi-join reduction.
func sendFilter(t transport, j jobHeader, bv *bitmap.Bitmap) error {
	if bv == nil {
		return nil
	}
	_, err := t.send(FrameHeader{Type: frameFilter}, appendFilter(nil, j.FilterBits, bv.Words()))
	return err
}

// absorbFrames feeds one batch phase to absorb, frame by frame, until the
// matching end frame arrives, and returns that frame's payload, valid until
// the transport's next read. Each batch frame's payload is aliased into the
// batch without copying, so absorb must not retain the tuples.
func absorbFrames(t transport, schema *tuple.Schema, batchType, endType byte,
	absorb func(FrameHeader, *exec.Batch) error) ([]byte, error) {
	recv := exec.NewBatch(schema, 1)
	defer recv.Release()
	for {
		h, payload, _, err := t.next()
		if err != nil {
			return nil, err
		}
		switch h.Type {
		case batchType:
			if err := aliasBatch(recv, schema, h, payload); err != nil {
				return nil, err
			}
			if err := absorb(h, recv); err != nil {
				return nil, err
			}
		case endType:
			return payload, nil
		default:
			return nil, fmt.Errorf("%w: frame type %d while absorbing type-%d frames",
				ErrCorruptFrame, h.Type, batchType)
		}
	}
}

// finishJob ships the worker's local result, produced by scan, and ends the
// job. Under quotient partitioning the result is final and a stats-bearing
// quotientEnd closes the job. Under divisor partitioning it is this worker's
// candidate set — tuples complete against its divisor cluster — shipped
// tagged with its phase index; the coordinator repartitions all candidates
// on the quotient attributes, and this worker then acts as a collection site
// for its share (collectAndEmit).
func finishJob(t transport, qs *tuple.Schema, j jobHeader, dividendTuples, divisorCount int64,
	scan func(emit func(tuple.Tuple) error) error) error {
	typ, phase := byte(frameQuotientBatch), uint16(0)
	if j.Strategy != strategyQuotient {
		typ = frameCandidate
		if j.Phase >= 0 {
			phase = uint16(j.Phase)
		}
	}
	fb := newFrameBatcher(t, qs, typ, phase, j.BatchSize)
	defer fb.release()
	if err := scan(fb.add); err != nil {
		return err
	}
	if err := fb.flush(); err != nil {
		return err
	}
	if j.Strategy == strategyQuotient {
		_, err := t.send(FrameHeader{Type: frameQuotientEnd},
			appendWorkerStats(nil, dividendTuples, divisorCount, fb.tuples))
		return err
	}
	if _, err := t.send(FrameHeader{Type: frameCandidateEnd}, nil); err != nil {
		return err
	}
	return collectAndEmit(t, qs, divisorCount, dividendTuples, j)
}

// collectAndEmit is the collection-site half of divisor partitioning's
// second round: absorb the coordinator's repartitioned, phase-tagged
// candidates and emit those reported by every active phase — "divide the
// set of all incoming tuples over the set of processor network addresses"
// (§3.4), with the address set carried as per-frame phase tags. Collection
// tables are deliberately outside any job budget — candidate sets are
// bounded by the quotient, not the dividend the budget exists to govern.
func collectAndEmit(t transport, qs *tuple.Schema, divisorCount, dividendTuples int64, j jobHeader) error {
	if j.NumPhases <= 0 {
		return fmt.Errorf("%w: divisor partitioning with %d phases", ErrCorruptFrame, j.NumPhases)
	}
	collection := division.NewPhaseCollector(qs, j.NumPhases, 256, j.HBS)
	_, err := absorbFrames(t, qs, frameCollectBatch, frameCollectEnd, func(h FrameHeader, b *exec.Batch) error {
		if int(h.Phase) >= j.NumPhases {
			return fmt.Errorf("%w: collect phase %d of %d", ErrCorruptFrame, h.Phase, j.NumPhases)
		}
		for i, n := 0, b.Len(); i < n; i++ {
			collection.Add(b.Tuple(i), int(h.Phase))
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := newFrameBatcher(t, qs, frameQuotientBatch, 0, j.BatchSize)
	defer out.release()
	if err := collection.Scan(out.add); err != nil {
		return err
	}
	if err := out.flush(); err != nil {
		return err
	}
	_, err = t.send(FrameHeader{Type: frameQuotientEnd},
		appendWorkerStats(nil, dividendTuples, divisorCount, out.tuples))
	return err
}

// spoolFrames absorbs one batch phase into a spill file a page at a time,
// calling perTuple on every tuple, until the matching end frame arrives. The
// appender is closed on every exit so no buffered page outlives a failed
// phase.
func spoolFrames(t transport, file *storage.File, schema *tuple.Schema,
	batchType, endType byte, perTuple func(tuple.Tuple)) (int64, error) {
	ap := file.NewAppender()
	var count int64
	_, err := absorbFrames(t, schema, batchType, endType, func(_ FrameHeader, b *exec.Batch) error {
		for i := 0; perTuple != nil && i < b.Len(); i++ {
			perTuple(b.Tuple(i))
		}
		count += int64(b.Len())
		return ap.AppendRows(b.Raw())
	})
	if cerr := ap.Close(); err == nil {
		err = cerr
	}
	return count, err
}

// runBudgetJob is runJob under a memory grant (jobHeader.Budget): both input
// streams are spooled to spill files on a per-job temp device as they arrive,
// and the local division runs through division.DivideRecursive with the
// grant split by division.SplitGrant, as the server splits a session grant —
// a quarter buffers spill I/O, the rest bounds the hash tables. A partition
// larger than the grant re-partitions recursively instead of growing the
// tables without bound; only past the recursion depth cap does the job fail,
// with the typed sentinel classified onto the wire for the coordinator.
func runBudgetJob(t transport, j jobHeader, qs *tuple.Schema, bv *bitmap.Bitmap) (err error) {
	obs.Default.Counter("net.worker.budget_jobs").Inc()
	ds := j.Dividend
	ss := j.Divisor

	// A grant below the pool floor leaves a 1-byte table budget: every
	// in-memory attempt overflows immediately and the recursion's depth cap
	// converts the impossible budget into the typed ErrPartitionDepth.
	poolBytes, tableBytes := division.SplitGrant(j.Budget)
	dev := disk.NewDevice(fmt.Sprintf("netexchange-w%d-temp", j.WorkerID), disk.PaperRunPageSize)
	pool := buffer.New(poolBytes)

	divisorFile := storage.NewSpillFile(pool, dev, ss, "divisor-in")
	dividendFile := storage.NewSpillFile(pool, dev, ds, "dividend-in")
	dropInputs := func() error { return errors.Join(dividendFile.Drop(), divisorFile.Drop()) }
	defer func() {
		if derr := dropInputs(); err == nil {
			err = derr
		}
	}()

	// The coordinator ships the divisor already distinct
	// (division.DistinctDivisor), so the spooled count is the distinct count
	// the stats report.
	divisorCount, err := spoolFrames(t, divisorFile, ss, frameDivisorBatch, frameDivisorEnd,
		func(d tuple.Tuple) {
			if bv != nil {
				division.SetFilterBit(bv, d)
			}
		})
	if err == nil {
		err = sendFilter(t, j, bv)
	}
	if err != nil {
		return err
	}
	dividendTuples, err := spoolFrames(t, dividendFile, ds, frameDividendBatch, frameDividendEnd, nil)
	if err != nil {
		return err
	}

	sp := division.Spec{
		Dividend:    exec.NewTableScan(dividendFile, false),
		Divisor:     exec.NewTableScan(divisorFile, false),
		DivisorCols: j.DivisorCols,
	}
	env := division.Env{
		Pool:            pool,
		TempDev:         dev,
		MemoryBudget:    tableBytes,
		HBS:             j.HBS,
		BatchSize:       j.BatchSize,
		ExpectedDivisor: int(divisorCount),
	}
	local, st, err := division.DivideRecursive(sp, env, division.QuotientPartitioning, division.RecursiveOptions{})
	if err != nil {
		return err
	}
	obs.Default.Counter("net.worker.budget_spilled_partitions").Add(int64(st.SpilledPartitions))
	obs.Default.Counter("net.worker.budget_spill_bytes").Add(st.SpillBytes)
	// The local result is in memory: drop the spooled inputs before it
	// ships, so no spill file outlives the job's last frame.
	if err := dropInputs(); err != nil {
		return err
	}
	return finishJob(t, qs, j, dividendTuples, divisorCount, func(emit func(tuple.Tuple) error) error {
		for _, q := range local {
			if err := emit(q); err != nil {
				return err
			}
		}
		return nil
	})
}
