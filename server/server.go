package server

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// Options tune NewServer. The zero value is valid.
type Options struct {
	// MemoryBytes is the global memory budget the governor splits across
	// in-flight queries; DefaultMemoryBytes if zero.
	MemoryBytes int64
	// QueryBytes is the default per-query admission grant (a request may ask
	// for more); DefaultQueryBytes if zero, clamped up to MinQueryBytes.
	QueryBytes int
	// TempDevFactory supplies the temp device a query spills to; fault
	// injection wraps here. Nil uses a fresh plain disk.Device per query.
	TempDevFactory func(name string) disk.Dev
	// PlanCacheEntries caps the prepared-plan cache; past the cap the least
	// recently used entry is evicted ("server.cache.evictions").
	// DefaultPlanCacheEntries if zero.
	PlanCacheEntries int
	// SessionSpillBytes ceilings each session's live temp-device footprint.
	// A query whose spill would cross it fails with CodeSpillQuota instead
	// of growing temp space without bound. Zero means no ceiling.
	SessionSpillBytes int64
}

// Memory defaults. The floor keeps a grant large enough for the minimal
// split: a few buffer-pool frames plus one hash table cell.
const (
	DefaultMemoryBytes = 16 << 20
	DefaultQueryBytes  = 1 << 20
	MinQueryBytes      = 64 << 10
)

// table is one shared catalog table: an append-only row arena under the
// catalog lock, row i at [i*w, (i+1)*w) for the schema width w (the layout
// of exec.Batch, which exec.ArenaScan scans without copying). gen
// distinguishes lives of the same name — a table dropped and re-created is a
// different table, and prepared plans keyed on the old life must not survive
// into the new one.
type table struct {
	schema *tuple.Schema
	rows   []byte
	gen    uint64
}

// Server is the concurrent query service. Zero or more listeners feed it
// sessions via Serve; ServeConn adapts any single connection (net.Pipe for
// in-process tests). Close stops everything and waits for sessions to drain.
type Server struct {
	opts Options
	gov  *buffer.Governor

	mu       sync.RWMutex
	tables   map[string]*table
	nextGen  uint64
	querySeq uint64

	cache *planCache

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer builds a server with an empty catalog.
func NewServer(opts Options) *Server {
	if opts.MemoryBytes <= 0 {
		opts.MemoryBytes = DefaultMemoryBytes
	}
	if opts.QueryBytes <= 0 {
		opts.QueryBytes = DefaultQueryBytes
	}
	if opts.QueryBytes < MinQueryBytes {
		opts.QueryBytes = MinQueryBytes
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		gov:    buffer.NewGovernor(opts.MemoryBytes),
		tables: make(map[string]*table),
		cache:  newPlanCache(opts.PlanCacheEntries),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	obs.InstrumentGovernor(obs.Default, s.gov)
	return s
}

// Governor exposes the admission controller (for telemetry and tests).
func (s *Server) Governor() *buffer.Governor { return s.gov }

// CacheStats reports plan-cache hits and misses so far.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.stats() }

// Serve accepts sessions from ln until the listener or server closes. It
// blocks; run it in a goroutine. The error is the terminal Accept error
// (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	// Close the listener when the server shuts down so Accept unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-s.ctx.Done():
			ln.Close()
		case <-done:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if !s.track(conn) {
			conn.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.session(conn)
		}()
	}
}

// ServeConn runs one session over an established connection, returning when
// the session ends. The caller owns nothing afterwards; the connection is
// closed.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	s.session(conn)
}

func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close shuts the server down: new sessions are refused, queued and running
// queries are cancelled, open connections are closed, and Close returns once
// every session goroutine has exited.
func (s *Server) Close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()

	s.cancel()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// session is one connection's lifetime: a reader goroutine keeps pulling
// frames (so a peer vanishing mid-query is noticed immediately and cancels
// the session context), the session loop executes them in order.
func (s *Server) session(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	obs.Default.Counter("server.sessions").Inc()

	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	quota := newSpillQuota(s.opts.SessionSpillBytes)

	// The channel is buffered so the reader re-enters conn.Read while a
	// query executes: a killed connection then fails the pending Read at
	// once, and cancel() aborts the in-flight query instead of letting it
	// run to completion for nobody.
	reqs := make(chan Request, 16)
	go func() {
		defer close(reqs)
		for {
			var req Request
			if err := readFrame(conn, &req); err != nil {
				cancel()
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()

	for req := range reqs {
		resp := s.execute(ctx, req, quota)
		if err := writeFrame(conn, resp); err != nil {
			cancel()
			return
		}
	}
}

// execute dispatches one request.
func (s *Server) execute(ctx context.Context, req Request, quota *spillQuota) *Response {
	switch req.Op {
	case "ping":
		return &Response{OK: true}
	case "tables":
		return s.listTables()
	case "create":
		return s.createTable(req)
	case "drop":
		return s.dropTable(req)
	case "insert":
		return s.insert(req)
	case "divide":
		obs.Default.Counter("server.queries").Inc()
		resp := s.divide(ctx, req, quota)
		if !resp.OK {
			obs.Default.Counter("server.query_errors").Inc()
		}
		return resp
	default:
		return badRequest("unknown op %q", req.Op)
	}
}

func badRequest(format string, args ...any) *Response {
	return &Response{Error: fmt.Sprintf(format, args...), Code: CodeBadRequest}
}

func (s *Server) listTables() *Response {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return &Response{OK: true, Tables: names}
}

func (s *Server) createTable(req Request) *Response {
	if req.Table == "" || len(req.Cols) == 0 {
		return badRequest("create needs a table name and at least one column")
	}
	fields := make([]tuple.Field, len(req.Cols))
	for i, c := range req.Cols {
		if c == "" {
			return badRequest("create %s: empty column name", req.Table)
		}
		fields[i] = tuple.Field{Name: c, Kind: tuple.KindInt64, Width: 8}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[req.Table]; exists {
		return badRequest("table %q already exists", req.Table)
	}
	s.nextGen++
	s.tables[req.Table] = &table{schema: tuple.NewSchema(fields...), gen: s.nextGen}
	return &Response{OK: true}
}

// dropTable removes a table. Prepared plans referencing it become invalid by
// generation: a later table of the same name gets a fresh gen, so the cache
// lookup misses and the query re-prepares against the new schema — the
// DDL-invalidation contract.
func (s *Server) dropTable(req Request) *Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[req.Table]; !exists {
		return badRequest("no table %q", req.Table)
	}
	delete(s.tables, req.Table)
	s.cache.invalidateTable(req.Table)
	return &Response{OK: true}
}

// insert appends every row of the request or none: a rejected row truncates
// the arena back to its length at the start of the request.
func (s *Server) insert(req Request) *Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[req.Table]
	if !ok {
		return badRequest("no table %q", req.Table)
	}
	n, w, start := t.schema.NumFields(), t.schema.Width(), len(t.rows)
	vals := make([]any, n)
	for _, row := range req.Rows {
		if len(row) != n {
			t.rows = t.rows[:start]
			return badRequest("insert %s: row has %d values, schema has %d columns",
				req.Table, len(row), n)
		}
		for i, v := range row {
			vals[i] = v
		}
		off := len(t.rows)
		t.rows = append(t.rows, make([]byte, w)...)
		if err := t.schema.MakeInto(t.rows[off:], vals...); err != nil {
			t.rows = t.rows[:start]
			return badRequest("insert %s: %v", req.Table, err)
		}
	}
	return &Response{OK: true}
}

// tempDev supplies one query's spill device.
func (s *Server) tempDev(name string) disk.Dev {
	if s.opts.TempDevFactory != nil {
		return s.opts.TempDevFactory(name)
	}
	return disk.NewDevice(name, disk.PaperRunPageSize)
}
