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
	// SeedDividend is the dividend cardinality the same previous execution
	// saw; it refines per-cell projections after the seeded root split.
	// Zero leaves child projections to the observed-density heuristic.
	SeedDividend int64
}

// RecursiveStats describe one recursive division run.
type RecursiveStats struct {
	Attempts          int   // in-memory division attempts, including abandoned ones
	Overflowed        int   // attempts abandoned because the tables exceeded the budget
	WastedTuples      int64 // dividend tuples absorbed by abandoned attempts
	SkippedAttempts   int   // doomed attempts skipped thanks to seeded statistics
	Candidates        int64 // quotient candidates across completed cells (feed back as RecursiveOptions.SeedCandidates)
	DividendTuples    int64 // dividend tuples across completed cells (feed back as RecursiveOptions.SeedDividend)
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

	qs      *tuple.Schema
	qCols   []int
	results []tuple.Tuple
	pos     int
	opened  bool
	stats   RecursiveStats

	live     []*storage.File // spill files not yet dropped
	spillSeq int
}

// NewRecursiveHashDivision builds the operator. env.MemoryBudget drives
// everything: 0 (or negative) disables partitioning entirely and the
// operator degenerates to plain hash-division.
func NewRecursiveHashDivision(sp Spec, env Env, strategy PartitionStrategy, ropts RecursiveOptions) *RecursiveHashDivision {
	return &RecursiveHashDivision{
		sp: sp, env: env, strategy: strategy, ropts: ropts,
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
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

// rcell is one partition cell of the dividend: memory-resident tuples, a
// spill file, or (at the root only) the caller's re-openable operator.
type rcell struct {
	mem  []tuple.Tuple
	file *storage.File
	op   exec.Operator
	n    int // tuple count; -1 when unknown (root operator)
}

func (c rcell) operator(ds *tuple.Schema) exec.Operator {
	switch {
	case c.op != nil:
		return c.op
	case c.file != nil:
		return exec.NewTableScan(c.file, false)
	default:
		return exec.NewMemScan(ds, c.mem)
	}
}

// dropCell releases a consumed cell's spill file (if any) and retires it
// from the live list.
func (r *RecursiveHashDivision) dropCell(c rcell) {
	if c.file == nil {
		return
	}
	c.file.Drop()
	for i, f := range r.live {
		if f == c.file {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
}

// dropLive releases every spill file still live — the error/Close path.
func (r *RecursiveHashDivision) dropLive() {
	for _, f := range r.live {
		f.Drop()
	}
	r.live = nil
}

// partitionCell streams src through route (which returns a child index, or
// -1 to discard) into fanOut child cells with hybrid residency: children
// accumulate in memory until the partition buffer exceeds the budget, at
// which point the largest memory-resident child is staged out to a spill
// file and grows on disk from then on. Cells that fit never touch disk.
func (r *RecursiveHashDivision) partitionCell(src exec.Operator, ds *tuple.Schema, route func(tuple.Tuple) int, fanOut int) ([]rcell, error) {
	width := ds.Width()
	budget := r.budget()
	mem := make([][]tuple.Tuple, fanOut)
	files := make([]*storage.File, fanOut)
	appenders := make([]*storage.Appender, fanOut)
	counts := make([]int, fanOut)
	memBytes := 0

	fail := func(err error) ([]rcell, error) {
		for _, a := range appenders {
			if a != nil {
				a.Close()
			}
		}
		for _, f := range files {
			if f != nil {
				r.dropCell(rcell{file: f})
			}
		}
		return nil, err
	}

	// spillLargest stages the biggest memory-resident child out to disk and
	// reports whether it made progress.
	spillLargest := func() (bool, error) {
		best, bestBytes := -1, -1
		for i := range mem {
			if files[i] != nil {
				continue
			}
			if b := len(mem[i]) * width; b > bestBytes {
				best, bestBytes = i, b
			}
		}
		if best < 0 || bestBytes <= 0 {
			return false, nil
		}
		if r.env.Pool == nil || r.env.TempDev == nil {
			return false, fmt.Errorf("division: recursive partitioning must spill but has no Pool/TempDev: %w", ErrMemoryBudget)
		}
		f := storage.NewSpillFile(r.env.Pool, r.env.TempDev, ds, fmt.Sprintf("divspill-%d", r.spillSeq))
		r.spillSeq++
		r.live = append(r.live, f)
		ap := f.NewAppender()
		for _, t := range mem[best] {
			if _, err := ap.Append(t); err != nil {
				ap.Close()
				return false, err
			}
		}
		files[best], appenders[best] = f, ap
		memBytes -= bestBytes
		mem[best] = nil
		return true, nil
	}

	err := exec.ForEach(src, func(t tuple.Tuple) error {
		c := route(t)
		if c < 0 {
			return nil
		}
		if r.env.Counters != nil {
			r.env.Counters.Hash++
		}
		counts[c]++
		if appenders[c] != nil {
			_, err := appenders[c].Append(t)
			return err
		}
		mem[c] = append(mem[c], t.Clone())
		memBytes += width
		for budget > 0 && memBytes > budget {
			progress, err := spillLargest()
			if err != nil {
				return err
			}
			if !progress {
				break
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	for i, a := range appenders {
		if a == nil {
			continue
		}
		if err := a.Close(); err != nil {
			appenders[i] = nil
			return fail(err)
		}
		appenders[i] = nil
	}

	cells := make([]rcell, fanOut)
	var spilled int64
	for i := range cells {
		cells[i] = rcell{mem: mem[i], file: files[i], n: counts[i]}
		if files[i] != nil {
			r.stats.SpilledPartitions++
			b := files[i].BytesOnDevice()
			r.stats.SpillBytes += b
			spilled += b
		}
	}
	if spilled > 0 {
		obs.Default.Counter("division.spill.partitions").Add(int64(countSpilled(files)))
		obs.Default.Counter("division.spill.bytes").Add(spilled)
	}
	return cells, nil
}

func countSpilled(files []*storage.File) int {
	n := 0
	for _, f := range files {
		if f != nil {
			n++
		}
	}
	return n
}

// stageNextSpilled asks the prefetcher to load the head pages of the next
// spilled sibling after index i, overlapping its device reads with the
// division of the current cell.
func stageNextSpilled(cells []rcell, i int) {
	for j := i + 1; j < len(cells); j++ {
		if cells[j].file != nil {
			cells[j].file.PrefetchPages(0, prefetchStagePages)
			return
		}
	}
}

// quotientFanOut derives the fan-out for re-partitioning an overflowing cell
// from the candidate density the abandoned attempt observed: the projected
// table footprint over the budget, clamped to [2, maxFanOut].
func (r *RecursiveHashDivision) quotientFanOut(c rcell, divisorCount int, st HashDivisionStats) int {
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
func (r *RecursiveHashDivision) divideQuotientCell(c rcell, divisor []tuple.Tuple, depth int, parent *obs.Span, emit func(tuple.Tuple) error) (leaves int, err error) {
	ds := r.sp.Dividend.Schema()
	ss := r.sp.Divisor.Schema()

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
			r.env.progressf("recursive: seed (%d candidates) projects %d bytes over budget %d; skipping root attempt, partitioning into %d",
				r.ropts.SeedCandidates, est, r.budget(), fanOut)
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
	var span *obs.Span
	if parent != nil {
		span = parent.Child(fmt.Sprintf("cell depth=%d", depth), "hash-division")
		env.ProfileSpan = span
	}
	hd := NewHashDivision(Spec{
		Dividend:    c.operator(ds),
		Divisor:     exec.NewMemScan(ss, divisor),
		DivisorCols: r.sp.DivisorCols,
	}, env, HashDivisionOptions{})
	r.stats.Attempts++
	qts, err := exec.Collect(obs.Instrument(hd, span, r.env.Counters))
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
	r.env.progressf("recursive: cell of %d tuples overflowed budget %d at depth %d (%d candidates after %d tuples); re-partitioning into %d",
		c.n, r.budget(), depth, st.Candidates, st.DividendTuples, fanOut)
	return r.repartitionQuotientCell(c, divisor, depth, parent, fanOut, emit)
}

// repartitionQuotientCell re-partitions THIS cell only, with a fresh salt for
// this depth, and divides the children recursively.
func (r *RecursiveHashDivision) repartitionQuotientCell(c rcell, divisor []tuple.Tuple, depth int, parent *obs.Span, fanOut int, emit func(tuple.Tuple) error) (leaves int, err error) {
	ds := r.sp.Dividend.Schema()
	if depth >= maxRecursionDepth {
		return 0, fmt.Errorf("division: cell of %d tuples still exceeds budget %d at depth %d (quotient skew): %w",
			c.n, r.budget(), depth, ErrPartitionDepth)
	}
	salt := depthSalt(depth)
	qCols := r.qCols
	route := func(t tuple.Tuple) int {
		return int(mix64(ds.Hash(t, qCols)^salt) % uint64(fanOut))
	}
	var pspan *obs.Span
	if parent != nil {
		pspan = parent.Child(fmt.Sprintf("repartition depth=%d fan=%d", depth+1, fanOut), "recursive-partition")
	}
	// The window makes the span inclusive of the partitioning pass and of
	// every child cell, so no span's self counters go negative.
	defer pspan.Start(r.env.Counters).End(0)
	children, err := r.partitionCell(c.operator(ds), ds, route, fanOut)
	if err != nil {
		return 0, err
	}
	r.dropCell(c) // the source cell is fully re-distributed
	r.stats.Repartitions++
	if depth+1 > r.stats.MaxDepth {
		r.stats.MaxDepth = depth + 1
	}
	obs.Default.Counter("division.repartitions").Inc()
	obs.Default.Counter("division.spill.depth.max").SetMax(int64(depth + 1))

	for i := range children {
		if children[i].n == 0 {
			r.dropCell(children[i])
			continue
		}
		// Stage the next spilled sibling while this one divides.
		stageNextSpilled(children, i)
		n, err := r.divideQuotientCell(children[i], divisor, depth+1, pspan, emit)
		if err != nil {
			return 0, err
		}
		leaves += n
	}
	return leaves, nil
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
func (r *RecursiveHashDivision) divideDivisorNode(divisor []tuple.Tuple, c rcell, depth int, parent *obs.Span, leaf func([]tuple.Tuple, rcell, int, *obs.Span) error) error {
	if r.divisorFits(len(divisor)) {
		return leaf(divisor, c, depth, parent)
	}
	if depth >= maxRecursionDepth {
		return fmt.Errorf("division: divisor cluster of %d tuples still exceeds budget %d at depth %d (divisor skew): %w",
			len(divisor), r.budget(), depth, ErrPartitionDepth)
	}
	ds := r.sp.Dividend.Schema()
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
	dCols := r.sp.DivisorCols
	route := func(t tuple.Tuple) int {
		i := int(mix64(ds.Hash(t, dCols)^salt) % uint64(fanOut))
		if len(clusters[i]) == 0 {
			return -1 // no divisor tuples there: the tuple can match nothing
		}
		return i
	}
	var span *obs.Span
	if parent != nil {
		span = parent.Child(fmt.Sprintf("divisor-repartition depth=%d fan=%d", depth+1, fanOut), "recursive-partition")
	}
	defer span.Start(r.env.Counters).End(0)
	r.env.progressf("recursive: divisor cluster of %d tuples exceeds budget %d at depth %d; re-clustering into %d",
		len(divisor), r.budget(), depth, fanOut)
	children, err := r.partitionCell(c.operator(ds), ds, route, fanOut)
	if err != nil {
		return err
	}
	r.dropCell(c)
	r.stats.Repartitions++
	if depth+1 > r.stats.MaxDepth {
		r.stats.MaxDepth = depth + 1
	}
	obs.Default.Counter("division.repartitions").Inc()
	obs.Default.Counter("division.spill.depth.max").SetMax(int64(depth + 1))

	for i := range children {
		if len(clusters[i]) == 0 {
			r.dropCell(children[i])
			continue
		}
		stageNextSpilled(children, i)
		if err := r.divideDivisorNode(clusters[i], children[i], depth+1, span, leaf); err != nil {
			return err
		}
	}
	return nil
}

// Open implements Operator: the whole recursion runs here (the operator is
// stop-and-go, like plain hash-division without early emit).
func (r *RecursiveHashDivision) Open() error {
	if err := r.sp.Validate(); err != nil {
		return err
	}
	r.results = nil
	r.pos = 0
	r.stats = RecursiveStats{}
	err := r.run()
	if err != nil {
		r.dropLive()
		return err
	}
	if n := len(r.live); n != 0 {
		// Every consumed cell drops its file eagerly; anything left is a bug.
		r.dropLive()
		return fmt.Errorf("division: recursive division leaked %d spill files", n)
	}
	r.opened = true
	return nil
}

func (r *RecursiveHashDivision) run() error {
	budget := r.budget()
	parent := r.env.ProfileParent()
	root := rcell{op: r.sp.Dividend, n: -1}

	if budget <= 0 {
		// No budget: plain hash-division, no partitioning machinery at all.
		env := r.env
		var span *obs.Span
		if parent != nil {
			span = parent.Child("hash-division", "hash-division")
			env.ProfileSpan = span
		}
		hd := NewHashDivision(r.sp, env, HashDivisionOptions{})
		qts, err := exec.Collect(obs.Instrument(hd, span, r.env.Counters))
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
	totalLeaves := 0
	leaf := func(cluster []tuple.Tuple, c rcell, depth int, span *obs.Span) error {
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
		if leaves > r.stats.MaxQuotientCells {
			r.stats.MaxQuotientCells = leaves
		}
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

// Next implements Operator.
func (r *RecursiveHashDivision) Next() (tuple.Tuple, error) {
	if !r.opened {
		return nil, errNotOpen("RecursiveHashDivision")
	}
	if r.pos >= len(r.results) {
		return nil, io.EOF
	}
	t := r.results[r.pos]
	r.pos++
	return t, nil
}

// Close implements Operator.
func (r *RecursiveHashDivision) Close() error {
	r.opened = false
	r.results = nil
	r.dropLive()
	return nil
}

// DivideRecursive runs recursive out-of-core hash-division under the given
// strategy and returns the quotient plus run statistics.
func DivideRecursive(sp Spec, env Env, strategy PartitionStrategy, ropts RecursiveOptions) ([]tuple.Tuple, RecursiveStats, error) {
	op := NewRecursiveHashDivision(sp, env, strategy, ropts)
	qts, err := exec.Collect(op)
	return qts, op.Stats(), err
}

// DistinctDivisor reads the divisor once, eliminating duplicates, and
// returns the distinct tuples in first-seen order — the divisor every
// partitioned, recursive and parallel division places or clusters. The probe
// work is charged to env.Counters.
func DistinctDivisor(divisor exec.Operator, env Env) ([]tuple.Tuple, error) {
	tab := hashtab.NewForExpected(divisor.Schema(), env.expectedDivisor(), env.hbs())
	var out []tuple.Tuple
	err := exec.ForEach(divisor, func(t tuple.Tuple) error {
		if e, created := tab.GetOrInsert(t); created {
			out = append(out, e.Tuple)
		}
		return nil
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
