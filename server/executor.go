package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/rewrite"
	"repro/internal/tuple"
)

// divide is the query path: resolve the inputs under the catalog lock,
// acquire an admission grant from the global governor (queueing when the
// budget is oversubscribed, typed rejection when the request can never fit),
// consult the prepared-plan cache, and execute a budget-governed recursive
// hash-division whose pool, hash-table, and sort budgets all come out of the
// one grant.
func (s *Server) divide(ctx context.Context, req Request, quota *spillQuota) *Response {
	if req.Dividend == "" || req.Divisor == "" {
		return badRequest("divide needs dividend and divisor tables")
	}

	// Snapshot the inputs. Arenas are append-only under the catalog lock, so
	// full slices (capacity clamped to length) stay stable after the lock is
	// released: an insert appends past them, a rejected one truncates back to
	// at least their length.
	s.mu.RLock()
	dv, dok := s.tables[req.Dividend]
	sv, sok := s.tables[req.Divisor]
	if !dok || !sok {
		missing := req.Dividend
		if dok {
			missing = req.Divisor
		}
		s.mu.RUnlock()
		return badRequest("no table %q", missing)
	}
	ds, ss := dv.schema, sv.schema
	dvRows := dv.rows[:len(dv.rows):len(dv.rows)]
	svRows := sv.rows[:len(sv.rows):len(sv.rows)]
	gens := map[string]uint64{req.Dividend: dv.gen, req.Divisor: sv.gen}
	s.mu.RUnlock()

	on := req.On
	if len(on) == 0 {
		on = ss.Columns()
	}
	if len(on) != ss.NumFields() {
		return badRequest("%d match columns for a %d-column divisor", len(on), ss.NumFields())
	}
	cols := make([]int, len(on))
	for i, name := range on {
		j := ds.IndexOf(name)
		if j < 0 {
			return badRequest("dividend %q has no column %q", req.Dividend, name)
		}
		cols[i] = j
	}

	// Admission: one grant covers the query's whole footprint.
	need := int64(req.MemoryBudget)
	if need <= 0 {
		need = int64(s.opts.QueryBytes)
	}
	if need < MinQueryBytes {
		need = MinQueryBytes
	}
	start := time.Now()
	grant, err := s.gov.Acquire(ctx, need)
	if err != nil {
		var adm *buffer.AdmissionError
		if errors.As(err, &adm) {
			return &Response{Error: err.Error(), Code: CodeNeverFits}
		}
		return &Response{Error: err.Error(), Code: CodeCancelled}
	}
	defer grant.Release()
	queued := time.Since(start)

	// Prepared-plan cache, keyed on the normalized shape of the rewritten
	// plan. Hits skip rewrite.Compile (held to by the "rewrite.compiles"
	// counter); misses pay one compile to validate the lowering, then every
	// execution — first or repeat — binds fresh operators below.
	key, node := planShape(req.Dividend, ds, dvRows, req.Divisor, ss, svRows, cols)
	seed, hit, err := s.cache.prepare(ctx, key, gens, func() error {
		_, err := rewrite.Compile(node, division.Env{})
		return err
	})
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return &Response{Error: err.Error(), Code: CodeCancelled}
		}
		return badRequest("plan does not lower: %v", err)
	}

	// Split the grant: a quarter buffers spill I/O, the rest is the hash
	// table budget — which also caps the sort space of any sort the plan
	// runs (division.Env.MemoryBudget).
	poolBytes, tableBytes := division.SplitGrant(need)

	// The session spill quota wraps the query's temp device: the first
	// write to each page charges the session ceiling, Free credits it, and
	// whatever the query leaves behind is credited back when it ends.
	seq := atomic.AddUint64(&s.querySeq, 1)
	tempDev := s.tempDev(fmt.Sprintf("q%d-temp", seq))
	if quota != nil {
		qd := newQuotaDev(tempDev, quota)
		defer qd.releaseAll()
		tempDev = qd
	}
	env := division.Env{
		Pool:            buffer.New(poolBytes),
		TempDev:         tempDev,
		MemoryBudget:    tableBytes,
		ExpectedDivisor: len(svRows) / ss.Width(),
	}
	sp := division.Spec{
		Dividend:    exec.NewContextScan(ctx, exec.NewArenaScan(ds, dvRows)),
		Divisor:     exec.NewContextScan(ctx, exec.NewArenaScan(ss, svRows)),
		DivisorCols: cols,
	}
	if err := sp.Validate(); err != nil {
		return badRequest("%v", err)
	}

	qts, st, err := division.DivideRecursive(sp, env, division.QuotientPartitioning,
		division.RecursiveOptions{SeedCandidates: seed})
	if err != nil {
		code := CodeInternal
		var sqe *SpillQuotaError
		switch {
		case errors.As(err, &sqe):
			code = CodeSpillQuota
		case ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			code = CodeCancelled
		}
		return &Response{Error: err.Error(), Code: code}
	}
	s.cache.updateSeed(key, st.Candidates)

	qs := sp.QuotientSchema()
	rows := make([][]int64, len(qts))
	for i, t := range qts {
		vals := qs.Row(t)
		row := make([]int64, len(vals))
		for j, v := range vals {
			row[j] = v.(int64)
		}
		rows[i] = row
	}
	return &Response{
		OK:           true,
		Columns:      qs.Columns(),
		Rows:         rows,
		CacheHit:     hit,
		QueuedMicros: queued.Microseconds(),
	}
}

// planShape builds the canonical §2.2 aggregation plan for the division,
// rewrites it with the for-all rule, and returns the normalized shape key
// plus the rewritten node. The shape depends on table names, schemas, and
// matched columns — never on row contents — so repeat traffic over growing
// tables keeps hitting the same entry.
func planShape(dividendName string, ds *tuple.Schema, dvRows []byte,
	divisorName string, ss *tuple.Schema, svRows []byte, cols []int) (string, rewrite.Node) {
	dividendRel := rewrite.NewRel(dividendName, ds, func() exec.Operator {
		return exec.NewArenaScan(ds, dvRows)
	})
	// The same *Rel must be the semi-join's right input and the scalar
	// count's relation: the rewrite rule matches the subplans by pointer.
	divisorRel := rewrite.NewRel(divisorName, ss, func() exec.Operator {
		return exec.NewArenaScan(ss, svRows)
	})
	plan := &rewrite.CountEqCard{
		Input: &rewrite.GroupCount{
			Input: &rewrite.SemiJoin{
				Left: dividendRel, Right: divisorRel,
				LeftCols: cols, RightCols: ss.AllColumns(),
			},
			GroupCols: ds.Complement(cols),
		},
		Of: divisorRel,
	}
	node, _ := rewrite.Rewrite(plan)
	return rewrite.Shape(node), node
}
