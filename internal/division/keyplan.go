package division

import (
	"encoding/binary"

	"repro/internal/exec"
	"repro/internal/tuple"
)

// KeyPlan is a division's two dividend keys — the divisor attributes and the
// quotient attributes — compiled once per query and node: "all functions on
// data records, e.g., comparison and hashing, are compiled prior to
// execution" (§5.1). It is the one place keys are compiled: the Router
// routes with it, the Core probes with it, and recursive division's
// partitioning passes split with it.
//
// HashRows hashes a batch's keys, a tight loop per key, into the batch's
// vector of exec.HashWords words per row: the divisor-key hash, then the
// quotient-key hash. Both are FNV-1a over the key's bytes
// (tuple.Schema.Hash), so a row's words are the values every probe, filter
// slot and route has always used. A plan is immutable, so concurrent
// producers may share one.
type KeyPlan struct {
	width     int
	div, quot planKey
	// fastU64 selects the concrete word-key probes: both keys are a single
	// 8-byte column, the Table 4 shape.
	fastU64 bool
	ds      *tuple.Schema
	qCols   []int
	qs      *tuple.Schema // the quotient key's layout: ds projected on qCols
}

// planKey is one key of a plan: a projection of the dividend.
type planKey struct {
	// word: the key is one 8-byte column at off, hashed as a word by
	// tuple.HashUint64LE (tuple.HashWordColumn for a batch) and compared as
	// a word.
	word bool
	off  int
	hash func(tuple.Tuple) uint64
	eq   func(src, stored tuple.Tuple) bool
}

// CompileKeyPlan compiles the keys of a division of dividends laid out by
// ds, matching on divisorCols.
func CompileKeyPlan(ds *tuple.Schema, divisorCols []int) *KeyPlan {
	qCols := ds.Complement(divisorCols)
	p := &KeyPlan{
		width: ds.Width(),
		div:   compileKey(ds, divisorCols),
		quot:  compileKey(ds, qCols),
		ds:    ds,
		qCols: qCols,
		qs:    ds.Project(qCols),
	}
	p.fastU64 = p.div.word && p.quot.word
	return p
}

func compileKey(ds *tuple.Schema, cols []int) planKey {
	k := planKey{hash: ds.HashFunc(cols), eq: ds.EqualProjectedFunc(cols)}
	if len(cols) == 1 && ds.Field(cols[0]).Width == 8 {
		k.word, k.off = true, ds.Offset(cols[0])
	}
	return k
}

// project materializes src's quotient key, for a fresh candidate.
func (p *KeyPlan) project(src tuple.Tuple) tuple.Tuple { return p.ds.ProjectTuple(src, p.qCols) }

// hashInto writes the key hash of every row of raw (rows of width w) to
// dst[0], dst[stride], dst[2*stride], ...
func (k *planKey) hashInto(dst []uint64, stride int, raw []byte, w int) {
	if k.word {
		tuple.HashWordColumn(dst, stride, raw, w, k.off)
		return
	}
	n := len(raw) / w
	if n == 0 {
		return
	}
	_ = dst[(n-1)*stride]
	for i := 0; i < n; i++ {
		dst[i*stride] = k.hash(raw[i*w : (i+1)*w : (i+1)*w])
	}
}

// HashRows hashes the keys of b's rows into b's hash vector and returns it:
// exec.HashWords words per row, the divisor-key hash then the quotient-key
// hash, each key in a loop of its own over the rows.
func (p *KeyPlan) HashRows(b *exec.Batch) []uint64 {
	hs, raw := b.HashVector(), b.Raw()
	if len(hs) > 0 {
		p.div.hashInto(hs, exec.HashWords, raw, p.width)
		p.quot.hashInto(hs[1:], exec.HashWords, raw, p.width)
	}
	return hs
}

// hashRow hashes one row's key, bit-identical to its HashRows word.
func (k *planKey) hashRow(t tuple.Tuple) uint64 {
	if k.word {
		return tuple.HashUint64LE(binary.LittleEndian.Uint64(t[k.off:]))
	}
	return k.hash(t)
}
