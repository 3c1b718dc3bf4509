package hashtab

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// chainModel is the paper's bucket-chained table reduced to what Stats,
// NumBuckets, MemBytes and Iterate observe: one newest-first key list per
// bucket, walked element by element, and rebuilt on growth in the chained
// table's rehash order (old buckets in turn, each head to tail, every move
// prepended to its new chain).
type chainModel struct {
	buckets [][]string
	maxLoad float64
	n, mem  int
	stats   Stats
}

func newChainModel(nb int, maxLoad float64) *chainModel {
	return &chainModel{buckets: make([][]string, nb), maxLoad: maxLoad}
}

func (m *chainModel) bucket(key string) int {
	hi, _ := bits.Mul64(tuple.HashBytes([]byte(key)), uint64(len(m.buckets)))
	return int(hi)
}

// probe walks key's chain and returns whether key is stored and the
// comparisons the walk made.
func (m *chainModel) probe(key string) (found bool, comps int64) {
	for _, k := range m.buckets[m.bucket(key)] {
		comps++
		if k == key {
			return true, comps
		}
	}
	return false, comps
}

// getOrInsert is one table probe, which inserts key when absent if insert
// is set, charging it as the chained table does; it reports whether key was
// already stored.
func (m *chainModel) getOrInsert(key string, insert bool) (found bool) {
	found, comps := m.probe(key)
	m.stats.Hashes++
	m.stats.Comparisons += comps
	if found || !insert {
		return found
	}
	if m.maxLoad > 0 && float64(m.n+1) > m.maxLoad*float64(len(m.buckets)) {
		old := m.buckets
		m.buckets = make([][]string, 2*len(old))
		for _, chain := range old {
			for _, k := range chain {
				m.push(k)
				m.stats.Hashes++
				m.stats.Rehashed++
			}
		}
	}
	m.push(key)
	m.n++
	m.mem += len(key) + elementOverheadBytes
	return false
}

func (m *chainModel) push(key string) {
	b := m.bucket(key)
	m.buckets[b] = append([]string{key}, m.buckets[b]...)
}

func (m *chainModel) order() []string {
	var out []string
	for _, chain := range m.buckets {
		out = append(out, chain...)
	}
	return out
}

// keyKind is one key layout of the property test: the stored key schema,
// a wider source schema the projected probes read it from, and the key
// columns within it.
type keyKind struct {
	name  string
	key   *tuple.Schema
	src   *tuple.Schema
	cols  []int
	vals  func(v int) []any // key column values for v
	words bool              // single 8-byte column: the U64 probes apply
}

func keyKinds() []keyKind {
	pad := tuple.Int64Field("pad")
	word := tuple.NewSchema(tuple.Int64Field("k"))
	composite := tuple.NewSchema(tuple.Int64Field("a"), tuple.Int64Field("b"))
	char5 := tuple.NewSchema(tuple.CharField("c", 5))
	char12 := tuple.NewSchema(tuple.CharField("c", 12))
	return []keyKind{
		{"word", word, tuple.NewSchema(pad, tuple.Int64Field("k")), []int{1},
			func(v int) []any { return []any{int64(v*7919 - 300)} }, true},
		{"composite", composite, tuple.NewSchema(tuple.Int64Field("b"), pad, tuple.Int64Field("a")), []int{2, 0},
			func(v int) []any { return []any{int64(v % 5), int64(v / 5)} }, false},
		{"char5", char5, tuple.NewSchema(pad, tuple.CharField("c", 5)), []int{1},
			func(v int) []any { return []any{fmt.Sprint(v)} }, false},
		{"char12", char12, tuple.NewSchema(tuple.CharField("c", 12), pad), []int{0},
			func(v int) []any { return []any{fmt.Sprintf("key-%d", v)} }, false},
	}
}

// srcRow lays key values out in a source tuple around the pad column.
func (k keyKind) srcRow(vals []any) tuple.Tuple {
	row := make([]any, k.src.NumFields())
	for i := range row {
		row[i] = int64(-1)
	}
	for i, c := range k.cols {
		row[c] = vals[i]
	}
	return k.src.MustMake(row...)
}

// TestTableMatchesChainedModel drives random operation sequences against a
// Table and the chained model, over word, composite and CHAR keys, growing
// and fixed geometries and every probe form, and demands identical Stats,
// NumBuckets, Len, MemBytes and Iterate order after every operation.
func TestTableMatchesChainedModel(t *testing.T) {
	kinds := keyKinds()
	for seq := 0; seq < 300; seq++ {
		kind := kinds[seq%len(kinds)]
		rng := rand.New(rand.NewSource(int64(seq)))
		t.Run(fmt.Sprintf("%s/%d", kind.name, seq), func(t *testing.T) {
			modelTableSequence(t, kind, rng)
		})
	}
}

func modelTableSequence(t *testing.T, kind keyKind, rng *rand.Rand) {
	var tab *Table
	var desc string
	switch rng.Intn(5) {
	case 0:
		nb := 1 + rng.Intn(8)
		tab, desc = New(kind.key, nb), fmt.Sprintf("New(%d)", nb)
	case 1:
		exp, hbs := rng.Intn(200), []float64{0, 1, 2, 4}[rng.Intn(4)]
		tab, desc = NewForExpected(kind.key, exp, hbs), fmt.Sprintf("NewForExpected(%d, %v)", exp, hbs)
	case 2:
		c := rng.Intn(100)
		tab, desc = NewWithCapacity(kind.key, c), fmt.Sprintf("NewWithCapacity(%d)", c)
	case 3:
		nb := 1 + rng.Intn(6)
		tab, desc = New(kind.key, nb), fmt.Sprintf("New(%d) fixed", nb)
		tab.SetMaxLoad(0)
	default:
		nb := 1 + rng.Intn(4)
		tab, desc = New(kind.key, nb), fmt.Sprintf("New(%d) maxLoad 2", nb)
		tab.SetMaxLoad(2)
	}
	m := newChainModel(tab.NumBuckets(), tab.maxLoad)
	domain := 8 + rng.Intn(300)
	hash := kind.src.HashFunc(kind.cols)
	eq := kind.src.EqualProjectedFunc(kind.cols)
	project := func(src tuple.Tuple) tuple.Tuple { return kind.src.ProjectTuple(src, kind.cols) }
	nops := 8
	if kind.words {
		nops = 10
	}
	for step := 0; step < 150; step++ {
		vals := kind.vals(rng.Intn(domain))
		key := kind.key.MustMake(vals...)
		src := kind.srcRow(vals)
		op := rng.Intn(nops)
		var e *Element
		var created bool
		switch op {
		case 0:
			e, created = tab.GetOrInsert(key)
		case 1:
			e = tab.Lookup(key)
		case 2:
			e, created = tab.GetOrInsertProjected(src, kind.src, kind.cols)
		case 3:
			e = tab.LookupProjected(src, kind.src, kind.cols)
		case 4:
			e, created = tab.GetOrInsertPre(hash(src), src, eq, project)
		case 5:
			e = tab.LookupPre(hash(src), src, eq)
		case 6:
			n := 1 + rng.Intn(64)
			tab.AddMemBytes(n)
			m.mem += n
			continue
		case 7:
			if rng.Intn(10) == 0 {
				tab.Reset()
				m.buckets = make([][]string, len(m.buckets))
				m.n, m.mem = 0, 0
			}
			continue
		case 8:
			w := binary.LittleEndian.Uint64(key)
			e, created = tab.GetOrInsertU64(tuple.HashUint64LE(w), w)
		case 9:
			w := binary.LittleEndian.Uint64(key)
			e = tab.LookupU64(tuple.HashUint64LE(w), w)
		}
		insert := op%2 == 0
		found := m.getOrInsert(string(key), insert)
		where := fmt.Sprintf("%s, step %d, op %d, key %v", desc, step, op, vals)
		switch {
		case created && found, !created && insert && !found:
			t.Fatalf("%s: created %v, model found %v", where, created, found)
		case e == nil && (found || created):
			t.Fatalf("%s: no element, model found %v", where, found)
		case e != nil && !bytes.Equal(e.Tuple, key):
			t.Fatalf("%s: element key %v", where, e.Tuple)
		case e != nil && !insert && !found:
			t.Fatalf("%s: lookup found an element the model lacks", where)
		}
		checkAgainstModel(t, where, tab, m)
	}
}

func checkAgainstModel(t *testing.T, where string, tab *Table, m *chainModel) {
	t.Helper()
	if tab.Stats() != m.stats {
		t.Fatalf("%s: stats %+v, model %+v", where, tab.Stats(), m.stats)
	}
	if tab.NumBuckets() != len(m.buckets) || tab.Len() != m.n {
		t.Fatalf("%s: %d elements in %d buckets, model %d in %d", where, tab.Len(), tab.NumBuckets(), m.n, len(m.buckets))
	}
	if want := m.mem + 8*len(m.buckets); tab.MemBytes() != want {
		t.Fatalf("%s: MemBytes %d, model %d", where, tab.MemBytes(), want)
	}
	var got []string
	tab.Iterate(func(e *Element) error {
		got = append(got, string(e.Tuple))
		return nil
	})
	if want := m.order(); !slices.Equal(got, want) {
		t.Fatalf("%s: Iterate order %q, model %q", where, got, want)
	}
}

// TestReleaseClearsHeads: Release hands the sub-chain head array back all
// nil.
func TestReleaseClearsHeads(t *testing.T) {
	s := keySchema()
	tab := NewForExpected(s, 500, 2)
	for v := 0; v < 500; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	heads := *tab.box
	if !slices.ContainsFunc(heads, func(e *Element) bool { return e != nil }) {
		t.Fatal("a filled table has no sub-chain heads")
	}
	st := tab.Stats()
	tab.Release()
	if i := slices.IndexFunc(heads, func(e *Element) bool { return e != nil }); i >= 0 {
		t.Errorf("released head array keeps element %d", i)
	}
	if tab.box != nil || tab.heads != nil {
		t.Error("a released table still holds its head array")
	}
	if tab.Stats() != st {
		t.Errorf("Release changed Stats: %+v, before %+v", tab.Stats(), st)
	}

}

// TestProbesAndIterateDoNotAllocate: neither a probe that finds its key nor
// a full Iterate allocates.
func TestProbesAndIterateDoNotAllocate(t *testing.T) {
	s := keySchema()
	tab := NewForExpected(s, 300, 2)
	for v := 0; v < 300; v++ {
		tab.GetOrInsert(s.MustMake(v))
	}
	key := s.MustMake(42)
	src := tuple.NewSchema(tuple.Int64Field("pad"), tuple.Int64Field("k"))
	wide := src.MustMake(0, 42)
	cols := []int{1}
	hash, eq := src.HashFunc(cols), src.EqualProjectedFunc(cols)
	var visited int
	visit := func(*Element) error { visited++; return nil }
	for name, fn := range map[string]func(){
		"Lookup":          func() { tab.Lookup(key) },
		"GetOrInsert":     func() { tab.GetOrInsert(key) },
		"LookupProjected": func() { tab.LookupProjected(wide, src, cols) },
		"LookupPre":       func() { tab.LookupPre(hash(wide), wide, eq) },
		"LookupU64":       func() { tab.LookupU64(tuple.HashUint64LE(42), 42) },
		"Iterate":         func() { tab.Iterate(visit) },
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
