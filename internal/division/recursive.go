package division

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// ErrPartitionDepth is returned when recursive partitioning hits its depth
// cap without shrinking a cell under the memory budget — pathological skew
// (every tuple sharing one quotient value, a budget smaller than a single
// table entry) would otherwise loop forever. It always wraps a description
// of the offending cell; test with errors.Is.
var ErrPartitionDepth = errors.New("division: partition recursion depth cap exceeded")

// maxRecursionDepth bounds how many times one cell may be re-partitioned.
// Each level divides cell sizes by at least the fan-out, so 8 levels cover
// any input ~64^8 times the budget — a cap only skew can hit.
const maxRecursionDepth = 8

// maxFanOut bounds the children one re-partitioning step creates; the
// actual fan-out of each step derives from the overflowing cell's estimated
// table footprint versus the budget.
const maxFanOut = 64

// defaultUnknownFanOut is the fan-out used when a cell's size is unknown
// (the root operator, before anything has been counted).
const defaultUnknownFanOut = 8

// hashElemOverhead approximates the per-element hash table footprint beyond
// the tuple bytes (element struct, chain pointer, bucket share) for sizing
// estimates.
const hashElemOverhead = 48

// prefetchStagePages is how many head pages of the NEXT spilled partition
// are staged through the read-ahead prefetcher while the current partition
// divides — enough to hide the first fix's device latency without competing
// with the current scan's own read-ahead.
const prefetchStagePages = 4

// RecursiveOptions carry a plan cache's statistics from a previous
// execution of the same plan; the zero value runs unseeded.
type RecursiveOptions struct {
	// SeedCandidates seeds the root partitioning decision with the candidate
	// count a previous execution of the same plan observed (a plan cache's
	// historical statistics). When the seed projects a table footprint over
	// the memory budget, the doomed root in-memory attempt is skipped and the
	// dividend is partitioned immediately with a fan-out derived from the
	// seed — so repeat queries don't re-pay a wasted first attempt whose only
	// outcome is re-learning the density the cache already knows. The
	// fan-out heuristic otherwise derives only from the abandoned attempt's
	// partial observation, which the root (unknown cell size) can't even
	// scale. Zero disables seeding; a stale seed costs at most one extra
	// recursion level, never correctness.
	SeedCandidates int64
}

// RecursiveStats describe one recursive division run.
type RecursiveStats struct {
	Attempts          int   // in-memory division attempts, including abandoned ones
	Overflowed        int   // attempts abandoned because the tables exceeded the budget
	WastedTuples      int64 // dividend tuples absorbed by abandoned attempts
	SkippedAttempts   int   // doomed attempts skipped thanks to seeded statistics
	Candidates        int64 // quotient candidates across completed cells (feed back as RecursiveOptions.SeedCandidates)
	DividendTuples    int64 // dividend tuples across completed cells
	Repartitions      int   // cells that had to be re-partitioned
	MaxDepth          int   // deepest recursion level reached (0 = nothing re-partitioned)
	Cells             int   // leaf cells divided in memory
	MemResidentCells  int   // leaf cells that never touched disk (hybrid residency)
	SpilledPartitions int   // child partitions staged through spill files
	SpillBytes        int64 // bytes written to spill files (whole pages)
	DivisorLeaves     int   // leaves of the divisor-side recursion (1 = divisor fit)
	MaxQuotientCells  int   // largest quotient-side leaf count within any divisor leaf
}

// RecursiveHashDivision resolves hash table overflow with grace-style
// recursive partitioning: when a cell's tables exceed the per-query memory
// budget (Env.MemoryBudget), only that cell is re-partitioned
// — with a fresh hash salt per depth so correlated skew cannot survive a
// level — and child partitions that no longer fit the partitioning buffer
// are spilled to temp-device files through the buffer pool, where the
// read-ahead prefetcher stages them back in as the recursion descends.
// Cells that fit stay memory-resident and never touch disk (the hybrid
// policy). Depth is capped (maxRecursionDepth) and exceeding the cap returns
// ErrPartitionDepth instead of looping on pathological skew.
//
// Under QuotientPartitioning the recursion runs on the quotient attributes
// and cell quotients concatenate. Under DivisorPartitioning the divisor is
// recursively clustered first; each divisor leaf runs the quotient-side
// recursion against its cluster and a collection table counts, per
// candidate, how many divisor leaves it completed — the quotient keeps the
// candidates completing all of them. (Within one divisor leaf a candidate is
// emitted at most once, because quotient cells partition the candidate
// space, so a counter replaces the §3.4 phase bit map.) A divisor that fits
// degenerates to the pure quotient-side recursion with no collection pass.
type RecursiveHashDivision struct {
	sp       Spec
	env      Env
	strategy PartitionStrategy
	ropts    RecursiveOptions
	qs       *tuple.Schema
	plan     *KeyPlan // compiled once per Open, for every pass and cell
	stats    RecursiveStats
	spillSeq int
	spilled  []*storage.File // spill files not yet dropped

	// Open computes the whole quotient into results; Next hands it out.
	results []tuple.Tuple
	pos     int
	opened  bool
}

// NewRecursiveHashDivision builds the operator. env.MemoryBudget drives
// everything: 0 (or negative) disables partitioning entirely and the
// operator degenerates to plain hash-division.
func NewRecursiveHashDivision(sp Spec, env Env, strategy PartitionStrategy, ropts RecursiveOptions) *RecursiveHashDivision {
	return &RecursiveHashDivision{
		sp: sp, env: env, strategy: strategy, ropts: ropts,
		qs: sp.QuotientSchema(),
	}
}

// Schema implements Operator.
func (r *RecursiveHashDivision) Schema() *tuple.Schema { return r.qs }

// Stats returns the run statistics (complete once Open has returned).
func (r *RecursiveHashDivision) Stats() RecursiveStats { return r.stats }

func (r *RecursiveHashDivision) budget() int { return max(r.env.MemoryBudget, 0) }

// mix64 is the splitmix64 finalizer: applied to baseHash^salt it yields an
// independent partitioning function per recursion depth, so skew that
// defeats one level's split cannot defeat the next.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// depthSalt is the fresh hash salt for the given recursion depth.
func depthSalt(depth int) uint64 { return uint64(depth+1) * 0x9e3779b97f4a7c15 }

// dropCell releases a consumed cell's spill file (if any) and retires it
// from the live list.
func (r *RecursiveHashDivision) dropCell(c part) {
	if c.file == nil {
		return
	}
	c.file.Drop()
	for i, f := range r.spilled {
		if f == c.file {
			r.spilled = append(r.spilled[:i], r.spilled[i+1:]...)
			break
		}
	}
}

// repartition re-partitions THIS cell only, routing each row on its key's
// hash (route salts it for this depth), with hybrid residency: children stay
// resident until the resident rows exceed the budget, at which point the
// largest resident child is staged out to a spill file and grows on disk
// from then on; children that fit never touch disk. It then drops the spent
// cell and hands every child that keep accepts to divide (dropping the
// rest), staging the next spilled sibling while each one divides. The span
// named name covers the pass and every child, so no span's self counters go
// negative.
func (r *RecursiveHashDivision) repartition(c part, depth, fanOut int, parent *obs.Span, name string,
	key *planKey, route func(h uint64) int,
	keep func(i int, child part) bool, divide func(i int, child part, span *obs.Span) error) error {
	var span *obs.Span
	if parent != nil {
		span = parent.Child(fmt.Sprintf("%s depth=%d fan=%d", name, depth+1, fanOut), "recursive-partition")
	}
	defer span.Start(r.env.Counters).End(0)
	ds := r.sp.Dividend.Schema()
	pass := partitionPass{env: r.env, schema: ds, fanOut: fanOut, key: key, route: route, budget: r.budget(),
		newSpill: func() (*storage.File, error) {
			if r.env.Pool == nil || r.env.TempDev == nil {
				return nil, fmt.Errorf("division: recursive partitioning must spill but has no Pool/TempDev: %w", ErrMemoryBudget)
			}
			f := storage.NewSpillFile(r.env.Pool, r.env.TempDev, ds, fmt.Sprintf("divspill-%d", r.spillSeq))
			r.spillSeq++
			r.spilled = append(r.spilled, f)
			return f, nil
		}}
	children, err := pass.run(c.scan(ds))
	if err != nil {
		return err
	}
	r.dropCell(c)
	var routed, spilled, spillBytes int64
	for _, child := range children {
		routed += int64(child.n) // one Hash per routed row
		if child.file != nil {
			spilled++
			spillBytes += child.file.BytesOnDevice()
		}
	}
	if r.env.Counters != nil {
		r.env.Counters.Hash += routed
	}
	r.stats.Repartitions++
	r.stats.MaxDepth = max(r.stats.MaxDepth, depth+1)
	r.stats.SpilledPartitions += int(spilled)
	r.stats.SpillBytes += spillBytes
	obs.Default.Counter("division.repartitions").Inc()
	obs.Default.Counter("division.spill.depth.max").SetMax(int64(depth + 1))
	if spilled > 0 {
		obs.Default.Counter("division.spill.partitions").Add(spilled)
		obs.Default.Counter("division.spill.bytes").Add(spillBytes)
	}

	for i, child := range children {
		if !keep(i, child) {
			r.dropCell(child)
			continue
		}
		// Stage the next spilled sibling's head pages while this one divides.
		for _, next := range children[i+1:] {
			if next.file != nil {
				next.file.PrefetchPages(0, prefetchStagePages)
				break
			}
		}
		if err := divide(i, child, span); err != nil {
			return err
		}
	}
	return nil
}

// quotientFanOut derives the fan-out for re-partitioning an overflowing cell
// from the candidate density the abandoned attempt observed: the projected
// table footprint over the budget, clamped to [2, maxFanOut].
func (r *RecursiveHashDivision) quotientFanOut(c part, divisorCount int, st HashDivisionStats) int {
	budget := r.budget()
	if c.n < 0 || budget <= 0 || st.DividendTuples == 0 {
		return defaultUnknownFanOut
	}
	projected := st.Candidates
	if st.DividendTuples < int64(c.n) {
		projected = st.Candidates * int64(c.n) / st.DividendTuples
	}
	perCand := int64(r.qs.Width() + hashElemOverhead + (divisorCount+63)/64*8)
	divBytes := int64(divisorCount) * int64(r.sp.Divisor.Schema().Width()+hashElemOverhead)
	est := projected*perCand + divBytes
	return min(max(int(est/int64(budget))+1, 2), maxFanOut)
}

// seedProjection estimates the root cell's table footprint from the
// historical seed; a second value of false means no usable seed. Unlike the
// density heuristic (which only sizes a fan-out after an attempt has already
// been paid for), this projection decides whether to attempt at all, so it
// counts the bucket arrays too — 8 bytes per element is their upper bound
// under growth doubling — erring toward "won't fit".
func (r *RecursiveHashDivision) seedProjection(divisorCount int) (int64, bool) {
	if r.ropts.SeedCandidates <= 0 || r.budget() <= 0 {
		return 0, false
	}
	perCand := int64(r.qs.Width() + hashElemOverhead + 8 + (divisorCount+63)/64*8)
	divBytes := int64(divisorCount) * int64(r.sp.Divisor.Schema().Width()+hashElemOverhead+8)
	return r.ropts.SeedCandidates*perCand + divBytes, true
}

// divideQuotientCell divides one dividend cell by the (entire, in-memory)
// divisor, re-partitioning on the quotient attributes whenever the tables
// overflow the budget. Completed quotient tuples go to emit; the return
// value is the number of leaf cells the subtree divided in memory.
func (r *RecursiveHashDivision) divideQuotientCell(c part, divisor []tuple.Tuple, depth int, parent *obs.Span, emit func(tuple.Tuple) error) (leaves int, err error) {
	// The root cell with a historical seed predicting overflow skips the
	// in-memory attempt: it would only re-learn the candidate density the
	// seed already records, at the cost of a full scan plus a budget's worth
	// of abandoned table build.
	if c.op != nil {
		if est, ok := r.seedProjection(len(divisor)); ok && est > int64(r.budget()) {
			// Target half the budget per child, not the whole of it: a split
			// whose cells land at the budget's edge would overflow on any
			// model error or skew and re-pay exactly the attempt the seed
			// exists to avoid.
			fanOut := min(max(int(2*est/int64(r.budget()))+1, 2), maxFanOut)
			r.stats.SkippedAttempts++
			obs.Default.Counter("division.attempts.seed_skipped").Inc()
			return r.repartitionQuotientCell(c, divisor, depth, parent, fanOut, emit)
		}
	}

	// Attempt the cell in memory first. The attempt aborts as soon as the
	// tables cross the budget, so an abandoned attempt burns at most one
	// scan of the cell plus one budget's worth of table build — bounded,
	// unlike a restart of the whole division.
	env := r.env
	// Size the attempt's hash tables to the cell, not the whole query: the
	// divisor count is exact, and no fitting quotient table can hold more
	// candidates than the budget allows, so the default expectations (and
	// their bucket arrays) would charge small cells for tables they never
	// build. The quotient expectation is only ever lowered: raised above
	// what plain hash-division uses, the attempt's bucket array alone could
	// overflow a budget the plain tables fit.
	env.ExpectedDivisor = len(divisor)
	if budget := r.budget(); budget > 0 {
		perCand := r.qs.Width() + hashElemOverhead + (len(divisor)+63)/64*8
		maxCand := budget/perCand + 1
		if c.n >= 0 && c.n+1 < maxCand {
			maxCand = c.n + 1
		}
		if maxCand < env.expectedQuotient() {
			env.ExpectedQuotient = maxCand
		}
	}
	op, hd := divideOp(env, parent, fmt.Sprintf("cell depth=%d", depth), Spec{
		Dividend:    c.scan(r.sp.Dividend.Schema()),
		Divisor:     exec.NewMemScan(r.sp.Divisor.Schema(), divisor),
		DivisorCols: r.sp.DivisorCols,
	}, r.plan)
	r.stats.Attempts++
	qts, err := exec.Collect(op)
	if err == nil {
		st := hd.Stats()
		r.stats.Cells++
		r.stats.Candidates += st.Candidates
		r.stats.DividendTuples += st.DividendTuples
		if c.op == nil && c.file == nil {
			r.stats.MemResidentCells++
		}
		r.dropCell(c)
		for _, q := range qts {
			if err := emit(q); err != nil {
				return 0, err
			}
		}
		return 1, nil
	}
	if !errors.Is(err, ErrMemoryBudget) {
		return 0, err
	}
	st := hd.Stats()
	r.stats.Overflowed++
	r.stats.WastedTuples += st.DividendTuples
	obs.Default.Counter("division.attempts.overflowed").Inc()
	obs.Default.Counter("division.attempts.wasted_tuples").Add(st.DividendTuples)

	fanOut := r.quotientFanOut(c, len(divisor), st)
	return r.repartitionQuotientCell(c, divisor, depth, parent, fanOut, emit)
}

// repartitionQuotientCell re-partitions the cell on its quotient attributes
// and divides the non-empty children recursively.
func (r *RecursiveHashDivision) repartitionQuotientCell(c part, divisor []tuple.Tuple, depth int, parent *obs.Span, fanOut int, emit func(tuple.Tuple) error) (leaves int, err error) {
	if depth >= maxRecursionDepth {
		return 0, fmt.Errorf("division: cell of %d tuples still exceeds budget %d at depth %d (quotient skew): %w",
			c.n, r.budget(), depth, ErrPartitionDepth)
	}
	salt := depthSalt(depth)
	route := func(h uint64) int { return int(mix64(h^salt) % uint64(fanOut)) }
	err = r.repartition(c, depth, fanOut, parent, "repartition", &r.plan.quot, route,
		func(_ int, child part) bool { return child.n > 0 },
		func(_ int, child part, span *obs.Span) error {
			n, err := r.divideQuotientCell(child, divisor, depth+1, span, emit)
			leaves += n
			return err
		})
	return leaves, err
}

// divisorFanOut sizes one divisor-side re-partitioning step.
func (r *RecursiveHashDivision) divisorFanOut(divBytes int) int {
	budget := r.budget() / 2
	if budget < 1 {
		budget = 1
	}
	return min(max(divBytes/budget+1, 2), maxFanOut)
}

// divisorFits reports whether a divisor cluster's table fits its half of the
// budget (the other half is left for the quotient side).
func (r *RecursiveHashDivision) divisorFits(n int) bool {
	budget := r.budget()
	if budget <= 0 {
		return true
	}
	return n*(r.sp.Divisor.Schema().Width()+hashElemOverhead) <= budget/2
}

// divideDivisorNode recursively clusters the divisor (and the matching
// dividend cell) on the divisor attributes until each cluster's table fits,
// then hands the (cluster, cell) leaf to leaf. Dividend tuples whose divisor
// attributes hash to a cluster without divisor tuples are discarded during
// partitioning, exactly as in single-level divisor partitioning.
func (r *RecursiveHashDivision) divideDivisorNode(divisor []tuple.Tuple, c part, depth int, parent *obs.Span, leaf func([]tuple.Tuple, part, int, *obs.Span) error) error {
	if r.divisorFits(len(divisor)) {
		return leaf(divisor, c, depth, parent)
	}
	if depth >= maxRecursionDepth {
		return fmt.Errorf("division: divisor cluster of %d tuples still exceeds budget %d at depth %d (divisor skew): %w",
			len(divisor), r.budget(), depth, ErrPartitionDepth)
	}
	fanOut := r.divisorFanOut(len(divisor) * (r.sp.Divisor.Schema().Width() + hashElemOverhead))
	salt := depthSalt(depth)
	clusters := make([][]tuple.Tuple, fanOut)
	for _, d := range divisor {
		if r.env.Counters != nil {
			r.env.Counters.Hash++
		}
		i := int(mix64(tuple.HashBytes(d)^salt) % uint64(fanOut))
		clusters[i] = append(clusters[i], d)
	}
	route := func(h uint64) int {
		i := int(mix64(h^salt) % uint64(fanOut))
		if len(clusters[i]) == 0 {
			return -1 // no divisor tuples there: the tuple can match nothing
		}
		return i
	}
	return r.repartition(c, depth, fanOut, parent, "divisor-repartition", &r.plan.div, route,
		func(i int, _ part) bool { return len(clusters[i]) > 0 },
		func(i int, child part, span *obs.Span) error {
			return r.divideDivisorNode(clusters[i], child, depth+1, span, leaf)
		})
}

// Open implements Operator: the whole recursion runs here (the operator is
// stop-and-go, like plain hash-division without early emit). A failed Open
// drops the spill files the run still holds.
func (r *RecursiveHashDivision) Open() error {
	if err := r.sp.Validate(); err != nil {
		return err
	}
	r.results, r.pos, r.stats = nil, 0, RecursiveStats{}
	r.plan = CompileKeyPlan(r.sp.Dividend.Schema(), r.sp.DivisorCols)
	err := r.run()
	if n := len(r.spilled); err == nil && n != 0 {
		// Every consumed cell drops its file eagerly; anything left is a bug.
		err = fmt.Errorf("division: recursive division leaked %d spill files", n)
	}
	if err != nil {
		r.dropSpilled()
		return err
	}
	r.opened = true
	return nil
}

// Next implements Operator.
func (r *RecursiveHashDivision) Next() (tuple.Tuple, error) {
	if !r.opened {
		return nil, errNotOpen("RecursiveHashDivision")
	}
	if r.pos >= len(r.results) {
		return nil, io.EOF
	}
	r.pos++
	return r.results[r.pos-1], nil
}

// Close implements Operator.
func (r *RecursiveHashDivision) Close() error {
	r.opened, r.results = false, nil
	r.dropSpilled()
	return nil
}

func (r *RecursiveHashDivision) dropSpilled() {
	for _, f := range r.spilled {
		f.Drop()
	}
	r.spilled = nil
}

func (r *RecursiveHashDivision) run() error {
	budget := r.budget()
	parent := r.env.ProfileParent()
	root := part{op: r.sp.Dividend, n: -1}

	if budget <= 0 {
		// No budget: plain hash-division, no partitioning machinery at all.
		op, hd := divideOp(r.env, parent, "hash-division", r.sp, r.plan)
		qts, err := exec.Collect(op)
		if err != nil {
			return err
		}
		r.results = qts
		st := hd.Stats()
		r.stats = RecursiveStats{
			Attempts: 1, Cells: 1, MemResidentCells: 1, DivisorLeaves: 1, MaxQuotientCells: 1,
			Candidates: st.Candidates, DividendTuples: st.DividendTuples,
		}
		return nil
	}

	divisor, err := DistinctDivisor(r.sp.Divisor, r.env)
	if err != nil {
		return err
	}
	if len(divisor) == 0 {
		r.stats.DivisorLeaves = 1
		return nil // empty divisor: empty quotient
	}

	emitResult := func(q tuple.Tuple) error {
		r.results = append(r.results, q)
		return nil
	}

	quotientOnly := func() error {
		if !r.divisorFits(len(divisor)) && len(divisor)*r.sp.Divisor.Schema().Width() > budget {
			// The raw divisor tuples alone exceed the whole budget: no amount
			// of quotient-side partitioning can make a cell fit.
			return fmt.Errorf("division: divisor of %d tuples cannot fit budget %d under quotient partitioning: %w",
				len(divisor), budget, ErrMemoryBudget)
		}
		leaves, err := r.divideQuotientCell(root, divisor, 0, parent, emitResult)
		if err != nil {
			return err
		}
		r.stats.DivisorLeaves = 1
		r.stats.MaxQuotientCells = leaves
		return nil
	}

	if r.strategy == QuotientPartitioning || r.divisorFits(len(divisor)) {
		// A divisor that fits makes divisor partitioning degenerate to a
		// single leaf; skip the collection pass entirely.
		if r.strategy == DivisorPartitioning {
			r.stats.MaxQuotientCells = 0
		}
		return quotientOnly()
	}

	// Divisor-side recursion with a counting collection phase.
	collection := hashtab.NewForExpected(r.qs, r.env.expectedQuotient(), r.env.hbs())
	defer collection.Release()
	totalLeaves := 0
	leaf := func(cluster []tuple.Tuple, c part, depth int, span *obs.Span) error {
		totalLeaves++
		r.stats.DivisorLeaves++
		if c.n == 0 {
			// A divisor cluster with no dividend tuples still counts as a
			// leaf: no candidate can complete it, so the quotient is empty —
			// which the Num == totalLeaves scan below yields automatically.
			r.dropCell(c)
			return nil
		}
		leaves, err := r.divideQuotientCell(c, cluster, depth, span, func(q tuple.Tuple) error {
			e, _ := collection.GetOrInsert(q)
			e.Num++
			if r.env.Counters != nil {
				r.env.Counters.Comp++
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.stats.MaxQuotientCells = max(r.stats.MaxQuotientCells, leaves)
		return nil
	}
	if err := r.divideDivisorNode(divisor, root, 0, parent, leaf); err != nil {
		return err
	}
	err = collection.Iterate(func(e *hashtab.Element) error {
		if r.env.Counters != nil {
			r.env.Counters.Comp++
		}
		if e.Num == int64(totalLeaves) {
			r.results = append(r.results, e.Tuple)
		}
		return nil
	})
	if r.env.Counters != nil {
		st := collection.Stats()
		r.env.Counters.Hash += st.Hashes
		r.env.Counters.Comp += st.Comparisons
	}
	return err
}

// DivideRecursive runs recursive out-of-core hash-division under the given
// strategy and returns the quotient plus run statistics.
func DivideRecursive(sp Spec, env Env, strategy PartitionStrategy, ropts RecursiveOptions) ([]tuple.Tuple, RecursiveStats, error) {
	op := NewRecursiveHashDivision(sp, env, strategy, ropts)
	qts, err := exec.Collect(op)
	return qts, op.Stats(), err
}

// DistinctDivisor reads the divisor once, eliminating duplicates, and
// returns the distinct tuples in first-seen order — the divisor recursive
// and parallel division place or cluster. The probe work is charged to
// env.Counters.
func DistinctDivisor(divisor exec.Operator, env Env) ([]tuple.Tuple, error) {
	tab := hashtab.NewForExpected(divisor.Schema(), env.expectedDivisor(), env.hbs())
	defer tab.Release()
	var out []tuple.Tuple
	err := eachTuple(divisor, env.batchSize(), func(t tuple.Tuple) {
		if e, created := tab.GetOrInsert(t); created {
			out = append(out, e.Tuple)
		}
	})
	if env.Counters != nil {
		st := tab.Stats()
		env.Counters.Hash += st.Hashes
		env.Counters.Comp += st.Comparisons
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
