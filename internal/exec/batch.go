// Batch-at-a-time execution. The tuple-at-a-time Operator protocol charges
// every tuple an interface dispatch, a bounds-checked slice header, and — in
// parallel plans — a channel synchronization. The batch protocol amortizes
// all three: producers hand over flat arenas of DefaultBatchSize fixed-width
// tuples, and hot loops (hash-division's dividend pass, the parallel
// shuffle) iterate plain byte offsets.
//
// The two protocols compose: any Operator can be lifted to batches with
// Lift (copying tuples into an arena) and any BatchOperator lowered back
// with Lower, so every existing algorithm keeps working unchanged. Operators
// with a natural batch form (TableScan, ArenaScan, MemScan, Filter, Project,
// ContextScan, hash-division) additionally implement NextBatch natively;
// NativeBatch discovers that capability and Opaque hides it (the ablation
// lever).
package exec

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/tuple"
)

// DefaultBatchSize is the number of tuples per batch when the caller does
// not choose one. 1024 keeps a 16-byte-record batch (the paper's dividend
// width) at 16 KB — two buffer-pool pages, comfortably L1/L2-resident —
// while amortizing per-batch overhead to noise. See DESIGN.md §7 for the
// 64/256/1024 ablation.
const DefaultBatchSize = 1024

// arenaPool recycles batch arenas across batches, operators, and queries so
// steady-state batch execution allocates nothing per batch. It stores
// *[]byte, so a put boxes nothing.
var arenaPool sync.Pool

// HashWords is the number of key hash words a batch's hash vector holds per
// row (see HashVector).
const HashWords = 2

// hashPool recycles batches' hash vectors. It stores *[]uint64, so a put
// boxes nothing.
var hashPool sync.Pool

// Batch is a flat byte arena of up to Cap fixed-width tuples sharing one
// schema. Tuple i lives at bytes [i*width, (i+1)*width). A batch is either
// *owned* (tuples appended into its recyclable arena) or *aliased* (the view
// points into foreign memory such as a pinned buffer-pool page; see
// SetAlias). In both cases tuples returned by Tuple alias batch storage and
// are only valid until the producer's next NextBatch/Close; callers that
// retain tuples must Clone them — the same contract as Operator.Next.
type Batch struct {
	schema   *tuple.Schema
	width    int
	arena    *[]byte   // the pooled box owned is returned in
	owned    []byte    // recyclable arena backing appended tuples
	data     []byte    // current view: owned, or foreign memory when aliased
	hashes   *[]uint64 // HashVector's pooled storage; nil until first asked
	n        int
	aliased  bool
	released bool
	// size is the capacity in tuples NewBatch was asked for, which Reset
	// takes again for a released batch. An int32 beside the flags keeps
	// the struct in the 96-byte size class.
	size int32
}

// NewBatch returns an empty batch for schema tuples with room for capTuples
// (DefaultBatchSize when <= 0), reusing a pooled arena when one fits.
func NewBatch(schema *tuple.Schema, capTuples int) *Batch {
	if capTuples <= 0 {
		capTuples = DefaultBatchSize
	}
	w := schema.Width()
	arena := takeArena(capTuples * w)
	owned := (*arena)[:0]
	return &Batch{schema: schema, width: w, size: int32(capTuples), arena: arena, owned: owned, data: owned}
}

// takeArena returns a pooled arena with room for need bytes.
func takeArena(need int) *[]byte {
	arena, _ := arenaPool.Get().(*[]byte)
	if arena == nil {
		arena = new([]byte)
	}
	if cap(*arena) < need {
		*arena = make([]byte, 0, need)
	}
	return arena
}

// Schema returns the layout shared by every tuple in the batch.
func (b *Batch) Schema() *tuple.Schema { return b.schema }

// Len returns the number of tuples currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the arena capacity in tuples. Append past Cap grows the arena,
// so Cap is the producer's target size, not a hard limit.
func (b *Batch) Cap() int { return cap(b.owned) / b.width }

// Full reports whether the owned arena has reached its capacity.
func (b *Batch) Full() bool { return b.n >= b.Cap() }

// Tuple returns tuple i. The slice aliases batch storage (capped so appends
// cannot clobber neighbors) and is valid until the next NextBatch or Close
// of the producing operator.
func (b *Batch) Tuple(i int) tuple.Tuple {
	off := i * b.width
	return tuple.Tuple(b.data[off : off+b.width : off+b.width])
}

// Reset empties the batch for refilling, dropping any alias. Resetting a
// released batch revives it with a pooled arena of the capacity NewBatch
// was asked for, so producers that fill a batch up to Cap fill it again.
func (b *Batch) Reset() {
	if b.released {
		b.arena = takeArena(int(b.size) * b.width)
		b.owned = *b.arena
	}
	b.owned = b.owned[:0]
	b.data = b.owned
	b.n = 0
	b.aliased = false
	b.released = false
}

// Append copies t into the arena. t must have the batch's schema width.
func (b *Batch) Append(t tuple.Tuple) {
	if b.aliased {
		panic("exec: Append on aliased Batch without Reset")
	}
	if len(t) != b.width {
		panic(fmt.Sprintf("exec: Batch.Append tuple width %d, schema wants %d", len(t), b.width))
	}
	b.owned = append(b.owned, t...)
	b.data = b.owned
	b.n++
}

// HashVector returns HashWords words per row for the caller to fill with
// the rows' key hashes before its probe loop reads them, so a consumer
// hashes a whole batch in one loop. The words are the caller's and valid
// until the batch's rows change. Their storage comes from a pool, stays with
// the batch across Reset, SetAlias and Truncate, and returns to the pool on
// Release.
func (b *Batch) HashVector() []uint64 {
	if b.hashes == nil {
		if b.hashes, _ = hashPool.Get().(*[]uint64); b.hashes == nil {
			b.hashes = new([]uint64)
		}
	}
	n := HashWords * b.n
	*b.hashes = slices.Grow((*b.hashes)[:0], n)[:n]
	return *b.hashes
}

// AppendSlot reserves the next tuple slot and returns it zeroed for the
// caller to fill in place (Project writes its projection directly into the
// arena this way).
func (b *Batch) AppendSlot() tuple.Tuple {
	if b.aliased {
		panic("exec: AppendSlot on aliased Batch without Reset")
	}
	off := len(b.owned)
	if off+b.width <= cap(b.owned) {
		b.owned = b.owned[:off+b.width]
	} else {
		b.owned = append(b.owned, make([]byte, b.width)...)
	}
	slot := b.owned[off : off+b.width : off+b.width]
	clear(slot) // recycled arenas carry stale bytes
	b.data = b.owned
	b.n++
	return slot
}

// SetAlias points the batch at n tuples stored contiguously in data —
// typically a pinned buffer-pool page — without copying a byte. The caller
// owns data's lifetime: it must outlive every Tuple reference, i.e. until
// its own next page fix. The batch's arena is kept for later Reset+Append
// use.
func (b *Batch) SetAlias(data []byte, n int) {
	b.data = data[: n*b.width : n*b.width]
	b.n = n
	b.aliased = true
	b.owned = b.owned[:0]
}

// Raw returns the batch's tuples as one contiguous byte slice of exactly
// Len()*width bytes — the zero-copy wire form of the batch. The slice aliases
// batch storage under the same lifetime rules as Tuple: valid until the
// producer's next NextBatch, Reset, or Close. The network exchange writes
// this slice straight to the socket (no per-tuple encoding) and the receive
// side aliases its read buffer back into a batch with SetAlias.
func (b *Batch) Raw() []byte { return b.data[:b.n*b.width] }

// Truncate shortens the batch to its first n tuples (no-op when n >= Len).
// The fault injector uses this to cut a stream at an exact tuple count.
func (b *Batch) Truncate(n int) {
	if n < 0 || n >= b.n {
		return
	}
	b.n = n
	b.data = b.data[: n*b.width : n*b.width]
	if !b.aliased {
		b.owned = b.owned[:n*b.width]
	}
}

// Release returns the arena and the hash vector to their pools, allocating
// nothing. The batch (and every tuple and hash word obtained from it) must
// not be used afterwards. Release is idempotent: a second call is a no-op,
// never a second put — a double put would hand the same arena to two live
// batches, silently sharing memory between queries. Releasing an aliased
// batch returns only the owned arena; the foreign memory it viewed never
// enters the pool.
func (b *Batch) Release() {
	if b.released {
		return
	}
	b.released = true
	if b.owned != nil {
		*b.arena = b.owned[:0]
		arenaPool.Put(b.arena)
	}
	if b.hashes != nil {
		hashPool.Put(b.hashes)
	}
	b.arena, b.owned, b.data, b.hashes, b.n = nil, nil, nil, nil, 0
	b.aliased = false
}

// BatchOperator is the batch-at-a-time face of the open-next-close protocol.
// NextBatch fills the caller-provided batch (the callee may Reset+Append
// into its arena or SetAlias it at internal storage) and returns io.EOF
// once the input is exhausted. On a non-EOF error the batch contents are
// undefined. Like Operator.Next, batch contents are valid only until the
// next NextBatch or Close.
type BatchOperator interface {
	Schema() *tuple.Schema
	Open() error
	NextBatch(b *Batch) error
	Close() error
}

// NativeBatch reports whether op implements the batch protocol natively
// (without a lifting copy). Operators discovered here share Open/Close state
// with their tuple protocol: use one protocol per open, not both.
func NativeBatch(op Operator) (BatchOperator, bool) {
	bop, ok := op.(BatchOperator)
	return bop, ok
}

// ToBatch returns op's native batch form when it has one, or a lifted
// adapter otherwise. The result always honors the BatchOperator contract.
func ToBatch(op Operator) BatchOperator {
	if bop, ok := NativeBatch(op); ok {
		return bop
	}
	return Lift(op)
}

// FillBatch fills b from op.Next, copying tuples into the arena until the
// batch is full or the input ends. It returns io.EOF only when no tuple was
// gathered; a mid-batch error discards the partial batch and is returned
// as-is.
func FillBatch(op Operator, b *Batch) error {
	b.Reset()
	for !b.Full() {
		t, err := op.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		b.Append(t)
	}
	if b.Len() == 0 {
		return io.EOF
	}
	return nil
}

// lifted adapts any tuple Operator to the batch protocol by copying.
type lifted struct {
	op Operator
}

// Lift adapts op to the batch protocol. Each NextBatch copies up to the
// batch's capacity of tuples out of op.Next — correct for any operator, at
// one tuple copy of overhead; prefer native NextBatch implementations where
// the profile matters.
func Lift(op Operator) BatchOperator { return &lifted{op: op} }

func (l *lifted) Schema() *tuple.Schema    { return l.op.Schema() }
func (l *lifted) Open() error              { return l.op.Open() }
func (l *lifted) Close() error             { return l.op.Close() }
func (l *lifted) NextBatch(b *Batch) error { return FillBatch(l.op, b) }

// lowered adapts a BatchOperator back to tuple-at-a-time.
type lowered struct {
	bop  BatchOperator
	size int
	b    *Batch
	pos  int
}

// Lower adapts bop back to the tuple protocol, fetching batches of size
// tuples (DefaultBatchSize when <= 0) and serving them one Next at a time.
// Returned tuples alias the current batch and stay valid until Next crosses
// a batch boundary — a superset of the Operator contract.
func Lower(bop BatchOperator, size int) Operator {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &lowered{bop: bop, size: size}
}

func (l *lowered) Schema() *tuple.Schema { return l.bop.Schema() }

func (l *lowered) Open() error {
	if l.b != nil {
		l.b.Release()
		l.b = nil
	}
	l.pos = 0
	return l.bop.Open()
}

func (l *lowered) Next() (tuple.Tuple, error) {
	for {
		if l.b != nil && l.pos < l.b.Len() {
			t := l.b.Tuple(l.pos)
			l.pos++
			return t, nil
		}
		if l.b == nil {
			l.b = NewBatch(l.bop.Schema(), l.size)
		}
		if err := l.bop.NextBatch(l.b); err != nil {
			return nil, err
		}
		l.pos = 0
	}
}

func (l *lowered) Close() error {
	if l.b != nil {
		l.b.Release()
		l.b = nil
	}
	return l.bop.Close()
}

// opaque hides any native batch capability of the wrapped operator, forcing
// consumers onto the tuple-at-a-time protocol. This is the ablation and
// testing lever: batch-vs-tuple comparisons wrap one side in Opaque.
type opaque struct {
	Operator
}

// Opaque returns op stripped of its batch capability.
func Opaque(op Operator) Operator { return opaque{op} }

// NextBatch implements BatchOperator natively for MemScan: tuples are copied
// into the arena in slices of the batch capacity, eliminating the per-tuple
// interface dispatch of Next. One loop copies the slice's rows, checking each
// row's width as Append does.
func (m *MemScan) NextBatch(b *Batch) error {
	if !m.open {
		return errNotOpen("MemScan")
	}
	if m.pos >= len(m.tuples) {
		return io.EOF
	}
	b.Reset()
	ts := m.tuples[m.pos:min(len(m.tuples), m.pos+b.Cap())]
	w := b.width
	b.owned = b.owned[:len(ts)*w]
	for i, t := range ts {
		if len(t) != w {
			panic(fmt.Sprintf("exec: Batch.Append tuple width %d, schema wants %d", len(t), w))
		}
		copy(b.owned[i*w:], t)
	}
	b.data, b.n = b.owned, len(ts)
	m.pos += len(ts)
	return nil
}

// NextBatch implements BatchOperator for Filter: it consumes whole input
// batches and compacts the qualifying tuples into the output batch. An
// all-filtered input batch does not surface as an empty output; the loop
// pulls again until at least one tuple passes or the input ends.
func (f *Filter) NextBatch(b *Batch) error {
	in, native := NativeBatch(f.input)
	for {
		if native {
			if f.scratch == nil {
				f.scratch = NewBatch(f.input.Schema(), b.Cap())
			}
			if err := in.NextBatch(f.scratch); err != nil {
				return err
			}
			b.Reset()
			for i, n := 0, f.scratch.Len(); i < n; i++ {
				if t := f.scratch.Tuple(i); f.pred(t) {
					b.Append(t)
				}
			}
		} else {
			b.Reset()
			for !b.Full() {
				t, err := f.input.Next()
				if err == io.EOF {
					if b.Len() == 0 {
						return io.EOF
					}
					return nil
				}
				if err != nil {
					return err
				}
				if f.pred(t) {
					b.Append(t)
				}
			}
		}
		if b.Len() > 0 {
			return nil
		}
	}
}

// NextBatch implements BatchOperator for Project: each input tuple's
// projection is written straight into the output arena, one AppendSlot per
// tuple, with column offsets resolved once per batch instead of once per
// tuple.
func (p *Project) NextBatch(b *Batch) error {
	in, native := NativeBatch(p.input)
	if !native {
		if err := FillBatchProjected(p.input, b, p.cols); err != nil {
			return err
		}
		return nil
	}
	if p.scratch == nil {
		p.scratch = NewBatch(p.input.Schema(), b.Cap())
	}
	if err := in.NextBatch(p.scratch); err != nil {
		return err
	}
	is := p.input.Schema()
	b.Reset()
	for i, n := 0, p.scratch.Len(); i < n; i++ {
		is.ProjectInto(b.AppendSlot(), p.scratch.Tuple(i), p.cols)
	}
	return nil
}

// FillBatchProjected fills b with the cols projection of op's tuples,
// the per-tuple fallback of Project.NextBatch.
func FillBatchProjected(op Operator, b *Batch, cols []int) error {
	s := op.Schema()
	b.Reset()
	for !b.Full() {
		t, err := op.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.ProjectInto(b.AppendSlot(), t, cols)
	}
	if b.Len() == 0 {
		return io.EOF
	}
	return nil
}
