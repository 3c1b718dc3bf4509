package exec

import (
	"io"

	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// MergeJoin is a merge semi-join of two inputs sorted on their join keys: it
// emits each outer (left) tuple at most once when a matching inner (right)
// tuple exists, as the paper's semi-join implementation does ("for semi-joins
// in which the outer relation produces the result, no linked lists are
// used").
type MergeJoin struct {
	left, right         Operator
	leftKeys, rightKeys []int
	counters            *Counters

	opened   bool
	leftCur  tuple.Tuple
	rightCur tuple.Tuple
	leftEOF  bool
	rightEOF bool
}

// NewMergeSemiJoin builds a semi join: left tuples with at least one match
// in right, each emitted once. Both inputs must arrive sorted on the keys.
// Left must not contain duplicates on the keys if exact multiset semantics
// matter to the caller.
func NewMergeSemiJoin(left, right Operator, leftKeys, rightKeys []int, counters *Counters) *MergeJoin {
	return &MergeJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		counters: counters,
	}
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *tuple.Schema { return j.left.Schema() }

// Open implements Operator.
func (j *MergeJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		j.left.Close()
		return err
	}
	j.opened = true
	j.leftEOF, j.rightEOF = false, false
	j.leftCur, j.rightCur = nil, nil
	return nil
}

func (j *MergeJoin) advanceLeft() error {
	t, err := j.left.Next()
	if err == io.EOF {
		j.leftEOF = true
		j.leftCur = nil
		return nil
	}
	if err != nil {
		return err
	}
	j.leftCur = t.Clone()
	return nil
}

func (j *MergeJoin) advanceRight() error {
	t, err := j.right.Next()
	if err == io.EOF {
		j.rightEOF = true
		j.rightCur = nil
		return nil
	}
	if err != nil {
		return err
	}
	j.rightCur = t.Clone()
	return nil
}

func (j *MergeJoin) compareKeys() int {
	if j.counters != nil {
		j.counters.Comp++
	}
	return tuple.CompareCross(j.left.Schema(), j.leftCur, j.leftKeys,
		j.right.Schema(), j.rightCur, j.rightKeys)
}

// Next implements Operator.
func (j *MergeJoin) Next() (tuple.Tuple, error) {
	if !j.opened {
		return nil, errNotOpen("MergeJoin")
	}
	if j.leftCur == nil && !j.leftEOF {
		if err := j.advanceLeft(); err != nil {
			return nil, err
		}
	}
	if j.rightCur == nil && !j.rightEOF {
		if err := j.advanceRight(); err != nil {
			return nil, err
		}
	}

	for {
		if j.leftEOF || j.rightEOF {
			return nil, io.EOF
		}
		switch j.compareKeys() {
		case -1:
			if err := j.advanceLeft(); err != nil {
				return nil, err
			}
		case 1:
			if err := j.advanceRight(); err != nil {
				return nil, err
			}
		default:
			out := j.leftCur
			j.leftCur = nil
			if err := j.advanceLeft(); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
}

// Close implements Operator.
func (j *MergeJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// HashSemiJoin emits each probe-side tuple that has a match in the build
// side. The build side is consumed into a bucket-chained hash table at Open —
// the structure of the paper's hash semi-join that precedes hash aggregation
// in the second example query.
type HashSemiJoin struct {
	probe     Operator
	build     Operator
	probeKeys []int
	buildKeys []int
	counters  *Counters
	table     *hashtab.Table
	opened    bool
}

// NewHashSemiJoin builds the semi join; build is hashed on buildKeys, probe
// tuples match via probeKeys.
func NewHashSemiJoin(probe, build Operator, probeKeys, buildKeys []int, counters *Counters) *HashSemiJoin {
	return &HashSemiJoin{
		probe: probe, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys,
		counters: counters,
	}
}

// Schema implements Operator.
func (j *HashSemiJoin) Schema() *tuple.Schema { return j.probe.Schema() }

// Open implements Operator: it drains the build side into the hash table.
func (j *HashSemiJoin) Open() error {
	keySchema := j.build.Schema().Project(j.buildKeys)
	j.table = hashtab.NewForExpected(keySchema, 64, 2)
	if err := j.build.Open(); err != nil {
		return err
	}
	bs := j.build.Schema()
	for {
		t, err := j.build.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			j.build.Close()
			return err
		}
		// GetOrInsert eliminates build-side duplicates on the fly.
		j.table.GetOrInsertProjected(t, bs, j.buildKeys)
	}
	if err := j.build.Close(); err != nil {
		return err
	}
	j.opened = true
	return j.probe.Open()
}

// Next implements Operator.
func (j *HashSemiJoin) Next() (tuple.Tuple, error) {
	if !j.opened {
		return nil, errNotOpen("HashSemiJoin")
	}
	ps := j.probe.Schema()
	for {
		t, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if j.table.LookupProjected(t, ps, j.probeKeys) != nil {
			return t, nil
		}
	}
}

// Close implements Operator.
func (j *HashSemiJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.fold()
	j.table.Release()
	j.table = nil
	return j.probe.Close()
}

func (j *HashSemiJoin) fold() {
	if j.counters != nil && j.table != nil {
		st := j.table.Stats()
		j.counters.Hash += st.Hashes
		j.counters.Comp += st.Comparisons
	}
}
