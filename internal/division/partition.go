package division

import (
	"fmt"
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// PartitionStrategy selects one of the two §3.4 partitioning strategies used
// for hash table overflow (and, in §6, for multi-processor execution).
type PartitionStrategy int

const (
	// QuotientPartitioning partitions the dividend on the quotient
	// attributes; each cluster is divided by the ENTIRE divisor and the
	// final quotient is the concatenation of the cluster quotients.
	QuotientPartitioning PartitionStrategy = iota
	// DivisorPartitioning partitions divisor and dividend with the same
	// function on the divisor attributes; a collection phase — itself a
	// division over phase numbers — intersects the cluster quotients.
	DivisorPartitioning
)

func (s PartitionStrategy) String() string {
	switch s {
	case QuotientPartitioning:
		return "quotient-partitioning"
	case DivisorPartitioning:
		return "divisor-partitioning"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// PartitionedHashDivision runs hash-division in k phases over disjoint
// clusters, resolving hash table overflow per §3.4. Cluster 0 of the
// dividend is kept in main memory during the partitioning pass (the hybrid
// policy: "the first cluster is kept in main memory while the other clusters
// are spooled to temporary files"); clusters 1..k-1 are spooled to the
// environment's temp device.
type PartitionedHashDivision struct {
	sp       Spec
	env      Env
	strategy PartitionStrategy
	k        int

	qs      *tuple.Schema
	qCols   []int
	results []tuple.Tuple
	pos     int
	spilled []*storage.File
	opened  bool
}

// NewPartitionedHashDivision divides in k phases using the given strategy.
// k must be at least 1; k == 1 degenerates to plain hash-division. Spilling
// needs env.Pool and env.TempDev when k > 1.
func NewPartitionedHashDivision(sp Spec, env Env, strategy PartitionStrategy, k int) *PartitionedHashDivision {
	if k < 1 {
		k = 1
	}
	return &PartitionedHashDivision{
		sp: sp, env: env, strategy: strategy, k: k,
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
	}
}

// Schema implements Operator.
func (p *PartitionedHashDivision) Schema() *tuple.Schema { return p.qs }

// partitionDividend splits the dividend on cols into k clusters: cluster 0
// in memory, the rest as temp files. Tuples may be pre-filtered by keep.
func (p *PartitionedHashDivision) partitionDividend(cols []int, keep func(tuple.Tuple) bool) ([]tuple.Tuple, []*storage.File, error) {
	ds := p.sp.Dividend.Schema()
	var mem []tuple.Tuple
	files := make([]*storage.File, p.k)
	appenders := make([]*storage.Appender, p.k)
	for i := 1; i < p.k; i++ {
		if p.env.Pool == nil || p.env.TempDev == nil {
			return nil, nil, fmt.Errorf("division: partitioned division with k=%d needs Pool and TempDev", p.k)
		}
		files[i] = storage.NewSpillFile(p.env.Pool, p.env.TempDev, ds, fmt.Sprintf("divcluster-%d", i))
		appenders[i] = files[i].NewAppender()
	}
	abort := func() {
		for _, a := range appenders {
			if a != nil {
				a.Close()
			}
		}
		for _, f := range files {
			if f != nil {
				f.Drop()
			}
		}
	}

	if err := p.sp.Dividend.Open(); err != nil {
		abort()
		return nil, nil, err
	}
	for {
		t, err := p.sp.Dividend.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.sp.Dividend.Close()
			abort()
			return nil, nil, err
		}
		if keep != nil && !keep(t) {
			continue
		}
		if p.env.Counters != nil {
			p.env.Counters.Hash++
		}
		c := int(ds.Hash(t, cols) % uint64(p.k))
		if c == 0 {
			mem = append(mem, t.Clone())
			continue
		}
		if _, err := appenders[c].Append(t); err != nil {
			p.sp.Dividend.Close()
			abort()
			return nil, nil, err
		}
	}
	for _, a := range appenders {
		if a != nil {
			if err := a.Close(); err != nil {
				abort()
				return nil, nil, err
			}
		}
	}
	if err := p.sp.Dividend.Close(); err != nil {
		abort()
		return nil, nil, err
	}
	return mem, files, nil
}

// phaseEnv derives the Env for partition phase i of n: with tracing on, the
// phase gets its own span (returned so the phase operator can be probed
// against it — the probe makes the span's inclusive counters cover its
// children, keeping every self non-negative) and child spans attach under it.
func (p *PartitionedHashDivision) phaseEnv(parent *obs.Span, i, n int) (Env, *obs.Span) {
	env := p.env
	if parent == nil {
		return env, nil
	}
	span := parent.Child(fmt.Sprintf("phase %d/%d", i+1, n), "hash-division")
	env.ProfileSpan = span
	return env, span
}

// clusterOperand returns the Operator for cluster i of the dividend.
func clusterOperand(i int, mem []tuple.Tuple, files []*storage.File, schema *tuple.Schema) exec.Operator {
	if i == 0 {
		return exec.NewMemScan(schema, mem)
	}
	return exec.NewTableScan(files[i], false)
}

// Open implements Operator: it runs every phase.
func (p *PartitionedHashDivision) Open() error {
	if err := p.sp.Validate(); err != nil {
		return err
	}
	p.results = nil
	p.pos = 0
	var err error
	switch p.strategy {
	case QuotientPartitioning:
		err = p.runQuotientPartitioned()
	case DivisorPartitioning:
		err = p.runDivisorPartitioned()
	default:
		err = fmt.Errorf("division: unknown partition strategy %d", int(p.strategy))
	}
	if err != nil {
		p.dropSpilled()
		return err
	}
	p.opened = true
	return nil
}

func (p *PartitionedHashDivision) runQuotientPartitioned() error {
	ds := p.sp.Dividend.Schema()
	divisor, err := DistinctDivisor(p.sp.Divisor, p.env)
	if err != nil {
		return err
	}
	if len(divisor) == 0 {
		return nil // empty divisor: empty quotient
	}
	mem, files, err := p.partitionDividend(p.qCols, nil)
	if err != nil {
		return err
	}
	p.spilled = files

	ss := p.sp.Divisor.Schema()
	parent := p.env.ProfileParent()
	// "all dividend clusters are divided with the entire divisor"; the
	// quotient of the division is the concatenation of the cluster
	// quotients.
	for i := 0; i < p.k; i++ {
		env, span := p.phaseEnv(parent, i, p.k)
		phase := NewHashDivision(Spec{
			Dividend:    clusterOperand(i, mem, files, ds),
			Divisor:     exec.NewMemScan(ss, divisor),
			DivisorCols: p.sp.DivisorCols,
		}, env, HashDivisionOptions{})
		qts, err := exec.Collect(obs.Instrument(phase, span, p.env.Counters))
		if err != nil {
			return err
		}
		p.results = append(p.results, qts...)
		p.env.progressf("quotient-partitioned phase %d/%d: %d quotient tuples (%d total)",
			i+1, p.k, len(qts), len(p.results))
	}
	return nil
}

func (p *PartitionedHashDivision) runDivisorPartitioned() error {
	ds := p.sp.Dividend.Schema()
	ss := p.sp.Divisor.Schema()
	divisor, err := DistinctDivisor(p.sp.Divisor, p.env)
	if err != nil {
		return err
	}
	if len(divisor) == 0 {
		return nil
	}

	// Partition the divisor on all its attributes with the same function
	// used for the dividend's divisor attributes. Phases exist only for
	// clusters with divisor tuples: a dividend tuple hashing to an empty
	// divisor cluster can match nothing and is discarded during
	// partitioning.
	if p.env.Counters != nil {
		p.env.Counters.Hash += int64(len(divisor))
	}
	place := PlaceDivisor(divisor, DivisorPartitioning, p.k)
	phaseOf := place.Phase

	mem, files, err := p.partitionDividend(p.sp.DivisorCols, func(t tuple.Tuple) bool {
		c := int(ds.Hash(t, p.sp.DivisorCols) % uint64(p.k))
		return phaseOf[c] >= 0
	})
	if err != nil {
		return err
	}
	p.spilled = files

	// The collection phase divides the union of the quotient clusters,
	// tagged with phase numbers, over the set of phase numbers.
	collection := NewPhaseCollector(p.qs, place.Phases, p.env.expectedQuotient(), p.env.hbs())
	parent := p.env.ProfileParent()
	for c := 0; c < p.k; c++ {
		if phaseOf[c] < 0 {
			continue
		}
		env, span := p.phaseEnv(parent, phaseOf[c], place.Phases)
		phase := NewHashDivision(Spec{
			Dividend:    clusterOperand(c, mem, files, ds),
			Divisor:     exec.NewMemScan(ss, place.Clusters[c]),
			DivisorCols: p.sp.DivisorCols,
		}, env, HashDivisionOptions{})
		err := exec.ForEach(obs.Instrument(phase, span, p.env.Counters), func(q tuple.Tuple) error {
			if p.env.Counters != nil {
				p.env.Counters.Bit++
			}
			collection.Add(q, phaseOf[c])
			return nil
		})
		if err != nil {
			return err
		}
		if p.env.Progress != nil {
			// A candidate still on track for the quotient has a bit from
			// every phase processed so far.
			done := phaseOf[c] + 1
			p.env.progressf("divisor-partitioned phase %d/%d: %d candidates, %d on track for the quotient",
				done, place.Phases, collection.Len(), collection.Reported(done))
		}
	}
	err = collection.Scan(func(q tuple.Tuple) error {
		p.results = append(p.results, q)
		return nil
	})
	if p.env.Counters != nil {
		st := collection.Stats()
		p.env.Counters.Hash += st.Hashes
		p.env.Counters.Comp += st.Comparisons
	}
	return err
}

// Next implements Operator.
func (p *PartitionedHashDivision) Next() (tuple.Tuple, error) {
	if !p.opened {
		return nil, errNotOpen("PartitionedHashDivision")
	}
	if p.pos >= len(p.results) {
		return nil, io.EOF
	}
	t := p.results[p.pos]
	p.pos++
	return t, nil
}

func (p *PartitionedHashDivision) dropSpilled() {
	for _, f := range p.spilled {
		if f != nil {
			f.Drop()
		}
	}
	p.spilled = nil
}

// Close implements Operator.
func (p *PartitionedHashDivision) Close() error {
	p.opened = false
	p.results = nil
	p.dropSpilled()
	return nil
}
