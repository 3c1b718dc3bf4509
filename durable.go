package reldiv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// ErrStoreClosed is returned for operations on a closed DurableStore.
var ErrStoreClosed = errors.New("reldiv: durable store closed")

// DurableOptions tune OpenDurableStore. The zero value is valid.
type DurableOptions struct {
	// PoolBytes bounds the store's buffer pool (buffer.PaperPoolBytes if
	// zero).
	PoolBytes int
	// SegPages is the WAL segment size in pages (wal.DefaultSegPages if
	// zero). Must match across reopenings of the same log device.
	SegPages int
	// CommitWindow is the optional group-commit window: a commit leader
	// waits this long before cutting the batch so concurrent inserts can
	// join. Zero commits immediately; batches then form only from inserts
	// arriving while an earlier device sync is in flight.
	CommitWindow time.Duration
}

// DurableStore is the crash-safe face of the library: tables whose appends
// are write-ahead logged and survive a crash. Every insert stages a log
// record, applies the row to a heap file through the buffer pool, and
// group-commits; the pool's write barrier holds any dirty data page back
// until the log records covering it are durable (WAL-before-data), so the
// log alone reconstructs every acknowledged row. Reopening a store over the
// same WAL device replays the log — tables, schemas, and rows reappear
// exactly as last acknowledged, with any torn tail truncated.
//
// The store is safe for concurrent use; inserts on different tables contend
// only on the log, where group commit amortizes the sync across them. See
// DESIGN.md §11 for the durability contract.
type DurableStore struct {
	pool    *buffer.Pool
	dataDev disk.Dev
	log     *wal.Log

	mu     sync.Mutex
	tables map[string]*DurableTable
	closed bool

	// lsnMu is a leaf lock (never held while taking another) guarding the
	// page → latest-record-LSN map the write barrier consults. It must not
	// be mu: the barrier runs under a buffer-pool shard lock, which an
	// insert holding mu may be waiting on.
	lsnMu   sync.Mutex
	pageLSN map[disk.PageID]uint64
}

// DurableTable is one WAL-backed table of a DurableStore.
type DurableTable struct {
	store  *DurableStore
	name   string
	mu     sync.Mutex // serializes inserts and reads on this table
	file   *storage.File
	ap     *storage.Appender
	schema *tuple.Schema
}

// OpenDurableStore opens (or creates) a durable store over two devices: the
// write-ahead log lives alone on walDev, table pages on dataDev. A walDev
// holding a previous life's log — e.g. the durable image surviving a
// simulated crash — is replayed before the store accepts new work: every
// acknowledged insert is restored, torn tails are discarded, and the
// obs.Default counter "wal.replayed" records how many rows came back.
func OpenDurableStore(walDev, dataDev disk.Dev, opts *DurableOptions) (*DurableStore, error) {
	var o DurableOptions
	if opts != nil {
		o = *opts
	}
	if o.PoolBytes <= 0 {
		o.PoolBytes = buffer.PaperPoolBytes
	}
	s := &DurableStore{
		pool:    buffer.New(o.PoolBytes),
		dataDev: dataDev,
		log:     wal.New(walDev, wal.Options{SegPages: o.SegPages, Window: o.CommitWindow}),
		tables:  make(map[string]*DurableTable),
		pageLSN: make(map[disk.PageID]uint64),
	}
	obs.InstrumentWAL(obs.Default, s.log)
	if _, err := s.log.Recover(s.applyRecord); err != nil {
		return nil, fmt.Errorf("reldiv: durable recovery: %w", err)
	}
	// Rows restored by replay are durable by definition (they came from the
	// log), so their pages need no barrier; the barrier starts gating only
	// the pages new inserts dirty.
	s.pool.SetWriteBarrier(s.writeBarrier)
	return s, nil
}

// writeBarrier is installed in the buffer pool: before a dirty page of the
// data device reaches the device, block until the log record of the page's
// latest row is durable. Pages of other devices (the WAL itself, temp
// devices) pass through.
func (s *DurableStore) writeBarrier(dev disk.Dev, page disk.PageID) error {
	if dev != s.dataDev {
		return nil
	}
	s.lsnMu.Lock()
	lsn := s.pageLSN[page]
	s.lsnMu.Unlock()
	if lsn == 0 {
		return nil
	}
	return s.log.Commit(lsn)
}

// Pool returns the store's buffer pool (for statistics).
func (s *DurableStore) Pool() *buffer.Pool { return s.pool }

// WALStats returns the log's counters.
func (s *DurableStore) WALStats() wal.Stats { return s.log.Stats() }

// DurableLSN returns the highest log sequence number known durable.
func (s *DurableStore) DurableLSN() uint64 { return s.log.DurableLSN() }

// SyncWAL forces every staged log record durable.
func (s *DurableStore) SyncWAL() error { return s.log.Sync() }

// CreateTable creates a WAL-backed table. The creation itself is logged and
// committed, so the table (and its schema) survives a crash even before its
// first row.
func (s *DurableStore) CreateTable(name string, cols ...Column) (*DurableTable, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("reldiv: durable table %q needs at least one column", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("reldiv: durable table %q already exists", name)
	}
	fields := make([]tuple.Field, len(cols))
	for i, c := range cols {
		fields[i] = tuple.Field{Name: c.Name, Kind: c.kind, Width: c.width}
	}
	if _, err := s.log.AppendCommit(encodeCreateRecord(name, fields)); err != nil {
		return nil, err
	}
	return s.addTableLocked(name, fields), nil
}

// addTableLocked registers a table; caller holds s.mu.
func (s *DurableStore) addTableLocked(name string, fields []tuple.Field) *DurableTable {
	schema := tuple.NewSchema(fields...)
	file := storage.NewFile(s.pool, s.dataDev, schema, name)
	t := &DurableTable{
		store:  s,
		name:   name,
		file:   file,
		ap:     file.NewAppender(),
		schema: schema,
	}
	s.tables[name] = t
	return t
}

// Table returns the named table, if it exists.
func (s *DurableStore) Table(name string) (*DurableTable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the table names (unordered).
func (s *DurableStore) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	return out
}

// Close flushes everything: staged log records are committed, dirty data
// pages written back (the barrier lets them through once the log is
// durable), and both devices synced. The store accepts no work afterwards.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, t := range s.tables {
		t.mu.Lock()
		if err := t.ap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		t.mu.Unlock()
	}
	if err := s.log.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.pool.FlushAll(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.dataDev.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Name returns the table name.
func (t *DurableTable) Name() string { return t.name }

// Columns returns the column names in order.
func (t *DurableTable) Columns() []string { return t.schema.Columns() }

// NumRows returns the row count.
func (t *DurableTable) NumRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.file.NumRecords()
}

// Insert appends one row durably: when Insert returns nil, the row's log
// record is on stable storage and the row survives any crash. Values must
// match the schema (int/int64 for integer columns, string for string
// columns). Concurrent inserts group-commit: they share device syncs
// instead of paying one each.
func (t *DurableTable) Insert(values ...any) error {
	tup, err := t.schema.Make(values...)
	if err != nil {
		return err
	}
	lsn, err := t.stage(tup)
	if err != nil {
		return err
	}
	return t.store.log.Commit(lsn)
}

// InsertRows appends a batch of rows with a single commit covering all of
// them — the bulk-load path: one device sync however large the batch.
func (t *DurableTable) InsertRows(rows [][]any) error {
	var last uint64
	for _, row := range rows {
		tup, err := t.schema.Make(row...)
		if err != nil {
			return err
		}
		lsn, err := t.stage(tup)
		if err != nil {
			return err
		}
		last = lsn
	}
	if last == 0 {
		return nil
	}
	return t.store.log.Commit(last)
}

// stage logs one row and applies it to the heap file, tagging the dirtied
// page with the record's LSN for the write barrier. The row is not yet
// acknowledged — callers must Commit the returned LSN. The WAL-before-data
// ordering needs no sync here: the heap page cannot reach the device while
// the appender holds it fixed, and once it is unfixed the barrier holds it
// back until this LSN is durable.
func (t *DurableTable) stage(tup tuple.Tuple) (uint64, error) {
	s := t.store
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, ErrStoreClosed
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn, err := s.log.Append(encodeInsertRecord(t.name, tup))
	if err != nil {
		return 0, err
	}
	rid, err := t.ap.Append(tup)
	if err != nil {
		return 0, fmt.Errorf("reldiv: durable apply of %s lsn %d: %w", t.name, lsn, err)
	}
	s.lsnMu.Lock()
	s.pageLSN[rid.Page] = lsn // LSNs only grow, so the latest always wins
	s.lsnMu.Unlock()
	return lsn, nil
}

// Relation materializes the table as an in-memory Relation, the bridge to
// Divide and friends.
//
// The fence is per-table only: t.mu excludes inserts on THIS table for the
// duration of the read, but group commit keeps acknowledging rows on other
// tables the whole time. Two Relation() calls therefore do not observe one
// point in the store's history — a writer that inserts into A and then into
// B can land its B row between the two materializations, handing a division
// a B that is newer than its A. Callers reading several tables for one query
// must use DurableStore.Snapshot.
func (t *DurableTable) Relation() (*Relation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.relationLocked()
}

// relationLocked materializes the table; caller holds t.mu. The relation's
// arena is one bulk copy of the heap file's record areas, one append per
// page, so later inserts never show through.
func (t *DurableTable) relationLocked() (*Relation, error) {
	rows, err := t.file.ReadArena()
	if err != nil {
		return nil, err
	}
	return &Relation{name: t.name, schema: t.schema, rows: rows}, nil
}

// Snapshot materializes the named tables at one consistent cut: every
// table's insert lock is held simultaneously while all of them are read, so
// the returned relations reflect a single point in the store's history — no
// insert acknowledged after the cut appears in any of them, none before it
// is missing from any. (Holding s.mu would not fence this: stage() takes
// s.mu only momentarily for the closed check, then inserts under t.mu
// alone.) Locks are taken in sorted name order so concurrent snapshots over
// overlapping table sets cannot deadlock; duplicate names collapse to one
// entry.
func (s *DurableStore) Snapshot(names ...string) (map[string]*Relation, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreClosed
	}
	seen := make(map[string]*DurableTable, len(names))
	order := make([]string, 0, len(names))
	for _, name := range names {
		if _, dup := seen[name]; dup {
			continue
		}
		t, ok := s.tables[name]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("reldiv: snapshot: no table %q", name)
		}
		seen[name] = t
		order = append(order, name)
	}
	s.mu.Unlock()

	sort.Strings(order)
	for _, name := range order {
		seen[name].mu.Lock()
	}
	defer func() {
		for _, name := range order {
			seen[name].mu.Unlock()
		}
	}()

	out := make(map[string]*Relation, len(order))
	for _, name := range order {
		rel, err := seen[name].relationLocked()
		if err != nil {
			return nil, err
		}
		out[name] = rel
	}
	return out, nil
}

// applyRecord is the recovery callback: it rebuilds tables and rows from
// the log in append order. Payloads passed log checksum verification, so
// decode failures here mean a logic bug, not disk corruption — they abort
// recovery rather than being skipped.
func (s *DurableStore) applyRecord(lsn uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty payload at lsn %d", lsn)
	}
	switch payload[0] {
	case durableRecCreate:
		name, fields, err := decodeCreateRecord(payload)
		if err != nil {
			return err
		}
		if _, ok := s.tables[name]; ok {
			return fmt.Errorf("duplicate create of table %q at lsn %d", name, lsn)
		}
		s.addTableLocked(name, fields)
		return nil
	case durableRecInsert:
		name, raw, err := decodeInsertRecord(payload)
		if err != nil {
			return err
		}
		t, ok := s.tables[name]
		if !ok {
			return fmt.Errorf("insert into unknown table %q at lsn %d", name, lsn)
		}
		if len(raw) != t.schema.Width() {
			return fmt.Errorf("row of %d bytes for table %q of width %d at lsn %d",
				len(raw), name, t.schema.Width(), lsn)
		}
		if _, err := t.ap.Append(tuple.Tuple(raw)); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("unknown record type %d at lsn %d", payload[0], lsn)
	}
}

// Log record payloads. Type byte, then length-prefixed fields; all lengths
// little-endian u16.
const (
	durableRecCreate = 1 // [1][name][ncols]{[kind u8][width u32][colname]}…
	durableRecInsert = 2 // [2][name][row bytes]
)

func appendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("reldiv: durable record truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errors.New("reldiv: durable record truncated")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func encodeCreateRecord(name string, fields []tuple.Field) []byte {
	p := []byte{durableRecCreate}
	p = appendString16(p, name)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(fields)))
	for _, f := range fields {
		p = append(p, byte(f.Kind))
		p = binary.LittleEndian.AppendUint32(p, uint32(f.Width))
		p = appendString16(p, f.Name)
	}
	return p
}

func decodeCreateRecord(p []byte) (name string, fields []tuple.Field, err error) {
	b := p[1:]
	name, b, err = readString16(b)
	if err != nil {
		return "", nil, err
	}
	if len(b) < 2 {
		return "", nil, errors.New("reldiv: durable create record truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	fields = make([]tuple.Field, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 5 {
			return "", nil, errors.New("reldiv: durable create record truncated")
		}
		kind := tuple.Kind(b[0])
		width := int(binary.LittleEndian.Uint32(b[1:5]))
		var colName string
		colName, b, err = readString16(b[5:])
		if err != nil {
			return "", nil, err
		}
		fields = append(fields, tuple.Field{Name: colName, Kind: kind, Width: width})
	}
	return name, fields, nil
}

func encodeInsertRecord(name string, t tuple.Tuple) []byte {
	p := make([]byte, 0, 1+2+len(name)+len(t))
	p = append(p, durableRecInsert)
	p = appendString16(p, name)
	return append(p, t...)
}

func decodeInsertRecord(p []byte) (name string, row []byte, err error) {
	name, row, err = readString16(p[1:])
	return name, row, err
}
