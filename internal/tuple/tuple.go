package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// Tuple is a flat, fixed-width record whose layout is given by a Schema.
// Tuples are plain byte slices so operators can pass around addresses into
// the buffer pool without copying, mirroring the paper's substrate where
// "scans give memory addresses to records fixed in the buffer pool".
type Tuple []byte

// New allocates a zeroed tuple for the schema.
func (s *Schema) New() Tuple { return make(Tuple, s.width) }

// Int64 reads column i of t as an int64.
func (s *Schema) Int64(t Tuple, i int) int64 {
	off := s.offsets[i]
	return int64(binary.LittleEndian.Uint64(t[off : off+8]))
}

// SetInt64 writes v into column i of t.
func (s *Schema) SetInt64(t Tuple, i int, v int64) {
	off := s.offsets[i]
	binary.LittleEndian.PutUint64(t[off:off+8], uint64(v))
}

// Char reads column i of t as a string, with zero padding stripped.
func (s *Schema) Char(t Tuple, i int) string {
	off := s.offsets[i]
	raw := t[off : off+s.fields[i].Width]
	if n := bytes.IndexByte(raw, 0); n >= 0 {
		raw = raw[:n]
	}
	return string(raw)
}

// SetChar writes v into column i of t, truncating to the field width and
// zero-padding the remainder.
func (s *Schema) SetChar(t Tuple, i int, v string) {
	off := s.offsets[i]
	w := s.fields[i].Width
	dst := t[off : off+w]
	n := copy(dst, v)
	for j := n; j < w; j++ {
		dst[j] = 0
	}
}

// Make builds a tuple from one Go value per column: int/int64 for KindInt64,
// string for KindChar.
func (s *Schema) Make(values ...any) (Tuple, error) {
	t := s.New()
	if err := s.MakeInto(t, values...); err != nil {
		return nil, err
	}
	return t, nil
}

// MakeInto is Make encoding into caller-provided storage of exactly the
// schema width, such as the next row of a flat arena. Every byte of dst is
// written on success; on error dst holds a partial row.
func (s *Schema) MakeInto(dst Tuple, values ...any) error {
	if len(values) != len(s.fields) {
		return fmt.Errorf("tuple: schema %s has %d fields, got %d values", s, len(s.fields), len(values))
	}
	for i, v := range values {
		switch s.fields[i].Kind {
		case KindInt64:
			switch x := v.(type) {
			case int:
				s.SetInt64(dst, i, int64(x))
			case int64:
				s.SetInt64(dst, i, x)
			case uint64:
				s.SetInt64(dst, i, int64(x))
			default:
				return fmt.Errorf("tuple: field %q wants an integer, got %T", s.fields[i].Name, v)
			}
		case KindChar:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("tuple: field %q wants a string, got %T", s.fields[i].Name, v)
			}
			if len(x) > s.fields[i].Width {
				return fmt.Errorf("tuple: value %q overflows CHAR(%d) field %q", x, s.fields[i].Width, s.fields[i].Name)
			}
			s.SetChar(dst, i, x)
		}
	}
	return nil
}

// MustMake is Make for program constants; it panics on error.
func (s *Schema) MustMake(values ...any) Tuple {
	t, err := s.Make(values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Row converts a tuple back into one Go value per column.
func (s *Schema) Row(t Tuple) []any {
	row := make([]any, len(s.fields))
	for i, f := range s.fields {
		switch f.Kind {
		case KindInt64:
			row[i] = s.Int64(t, i)
		case KindChar:
			row[i] = s.Char(t, i)
		}
	}
	return row
}

// Format renders a tuple as "(v1, v2, ...)" for diagnostics and examples.
func (s *Schema) Format(t Tuple) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		switch f.Kind {
		case KindInt64:
			fmt.Fprintf(&b, "%d", s.Int64(t, i))
		case KindChar:
			b.WriteString(s.Char(t, i))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns a copy of t that does not alias the original storage. Needed
// whenever a tuple must outlive the buffer page it was read from.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// ProjectTuple copies the listed columns of t into a fresh tuple laid out by
// s.Project(cols).
func (s *Schema) ProjectTuple(t Tuple, cols []int) Tuple {
	width := 0
	for _, c := range cols {
		width += s.fields[c].Width
	}
	out := make(Tuple, width)
	off := 0
	for _, c := range cols {
		w := s.fields[c].Width
		copy(out[off:off+w], t[s.offsets[c]:s.offsets[c]+w])
		off += w
	}
	return out
}

// ProjectInto is ProjectTuple writing into caller-provided storage, which
// must be at least as wide as the projection. It returns the filled prefix.
func (s *Schema) ProjectInto(dst, t Tuple, cols []int) Tuple {
	off := 0
	for _, c := range cols {
		w := s.fields[c].Width
		copy(dst[off:off+w], t[s.offsets[c]:s.offsets[c]+w])
		off += w
	}
	return dst[:off]
}

// ConcatTuples joins a and b into one tuple laid out by s.Concat(other).
func ConcatTuples(a, b Tuple) Tuple {
	out := make(Tuple, len(a)+len(b))
	copy(out, a)
	copy(out[len(a):], b)
	return out
}

// Compare orders t1 and t2 by the listed columns: typed comparison for
// integers, bytewise for fixed chars. It returns -1, 0, or +1.
func (s *Schema) Compare(t1, t2 Tuple, cols []int) int {
	for _, c := range cols {
		f := s.fields[c]
		off := s.offsets[c]
		switch f.Kind {
		case KindInt64:
			a := int64(binary.LittleEndian.Uint64(t1[off : off+8]))
			b := int64(binary.LittleEndian.Uint64(t2[off : off+8]))
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
		case KindChar:
			if c := bytes.Compare(t1[off:off+f.Width], t2[off:off+f.Width]); c != 0 {
				return c
			}
		}
	}
	return 0
}

// CompareFunc returns a comparator specialized to the listed columns, with
// offsets and kinds resolved once — the paper's substrate does the same:
// "all functions on data records, e.g., comparison and hashing, are compiled
// prior to execution and passed to the processing algorithms by means of
// pointers to the function entry points" (§5.1). The single-int64-key case,
// which dominates the experiments, gets a branch-free fast path.
func (s *Schema) CompareFunc(cols []int) func(t1, t2 Tuple) int {
	if len(cols) == 1 && s.fields[cols[0]].Kind == KindInt64 {
		off := s.offsets[cols[0]]
		return func(t1, t2 Tuple) int {
			a := int64(binary.LittleEndian.Uint64(t1[off : off+8]))
			b := int64(binary.LittleEndian.Uint64(t2[off : off+8]))
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
	}
	type ref struct {
		kind  Kind
		off   int
		width int
	}
	refs := make([]ref, len(cols))
	for i, c := range cols {
		refs[i] = ref{kind: s.fields[c].Kind, off: s.offsets[c], width: s.fields[c].Width}
	}
	return func(t1, t2 Tuple) int {
		for _, r := range refs {
			switch r.kind {
			case KindInt64:
				a := int64(binary.LittleEndian.Uint64(t1[r.off : r.off+8]))
				b := int64(binary.LittleEndian.Uint64(t2[r.off : r.off+8]))
				switch {
				case a < b:
					return -1
				case a > b:
					return 1
				}
			case KindChar:
				if c := bytes.Compare(t1[r.off:r.off+r.width], t2[r.off:r.off+r.width]); c != 0 {
					return c
				}
			}
		}
		return 0
	}
}

// HashFunc returns a hash function specialized to the listed columns
// (offsets resolved once), consistent with Hash: the returned values are
// bit-identical to Hash(t, cols) for every input. The common single
// 8-byte-column projection (an int64 key) loads the column as one word and
// hashes it with HashUint64LE, no per-byte bounds checks; the batch
// execution path hoists it out of its per-tuple loops.
func (s *Schema) HashFunc(cols []int) func(t Tuple) uint64 {
	type span struct{ off, end int }
	spans := make([]span, len(cols))
	for i, c := range cols {
		spans[i] = span{off: s.offsets[c], end: s.offsets[c] + s.fields[c].Width}
	}
	if len(spans) == 1 && spans[0].end-spans[0].off == 8 {
		off := spans[0].off
		return func(t Tuple) uint64 {
			return HashUint64LE(binary.LittleEndian.Uint64(t[off:]))
		}
	}
	return func(t Tuple) uint64 {
		h := uint64(fnvOffset64)
		for _, sp := range spans {
			for _, b := range t[sp.off:sp.end] {
				h ^= uint64(b)
				h *= fnvPrime64
			}
		}
		return h
	}
}

// HashUint64LE returns the FNV-1a hash of the eight little-endian bytes of
// x, bit-identical to Hash over a single 8-byte column holding those bytes.
// FNV-1a's step on a zero byte is a bare multiply by the prime, so the
// steps over x's high zero bytes fold into one multiply by a power of the
// prime: a word below 2^16 costs two multiplies, a word below 2^32 four, and
// any other word the eight steps.
func HashUint64LE(x uint64) uint64 {
	h := (fnvOffset64 ^ x&0xff) * fnvPrime64
	if x < 1<<16 {
		return (h ^ x>>8) * fnvPrime64Pow7
	}
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	if x < 1<<16 { // below 2^32 before the two shifts
		return (h ^ x>>8) * fnvPrime64Pow5
	}
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	x >>= 8
	h = (h ^ x&0xff) * fnvPrime64
	return (h ^ x>>8) * fnvPrime64
}

// HashWordColumn writes HashUint64LE of the little-endian word at byte off
// of every w-byte row of raw, which holds whole rows, to dst[0],
// dst[stride], dst[2*stride], ...: one key column of a batch hashed in one
// loop. HashUint64LE is too large for the compiler to inline, so the loop
// spells out its steps; a call per word, even only for wide words, costs
// more than the multiplies it saves.
func HashWordColumn(dst []uint64, stride int, raw []byte, w, off int) {
	for j := 0; off+8 <= len(raw); j, off = j+stride, off+w {
		x := binary.LittleEndian.Uint64(raw[off:])
		h := (fnvOffset64 ^ x&0xff) * fnvPrime64
		if x < 1<<16 {
			h = (h ^ x>>8) * fnvPrime64Pow7
		} else {
			x >>= 8
			h = (h ^ x&0xff) * fnvPrime64
			x >>= 8
			h = (h ^ x&0xff) * fnvPrime64
			if x < 1<<16 { // below 2^32 before the two shifts
				h = (h ^ x>>8) * fnvPrime64Pow5
			} else {
				x >>= 8
				h = (h ^ x&0xff) * fnvPrime64
				x >>= 8
				h = (h ^ x&0xff) * fnvPrime64
				x >>= 8
				h = (h ^ x&0xff) * fnvPrime64
				x >>= 8
				h = (h ^ x&0xff) * fnvPrime64
				h = (h ^ x>>8) * fnvPrime64
			}
		}
		dst[j] = h
	}
}

// EqualProjectedFunc returns an equality predicate specialized to the listed
// columns, equivalent to EqualProjected(t, cols, p) for a p laid out by
// s.Project(cols). Single 8-byte-column projections compare as one word
// load each instead of a bytes.Equal call; batch kernels hoist the
// compilation out of their probe loops.
func (s *Schema) EqualProjectedFunc(cols []int) func(t, p Tuple) bool {
	type span struct{ off, width, poff int }
	spans := make([]span, len(cols))
	poff := 0
	for i, c := range cols {
		spans[i] = span{off: s.offsets[c], width: s.fields[c].Width, poff: poff}
		poff += s.fields[c].Width
	}
	if len(spans) == 1 && spans[0].width == 8 {
		off := spans[0].off
		return func(t, p Tuple) bool {
			return binary.LittleEndian.Uint64(t[off:]) == binary.LittleEndian.Uint64(p)
		}
	}
	return func(t, p Tuple) bool {
		for _, sp := range spans {
			if !bytes.Equal(t[sp.off:sp.off+sp.width], p[sp.poff:sp.poff+sp.width]) {
				return false
			}
		}
		return true
	}
}

// CompareAll orders two tuples over every column.
func (s *Schema) CompareAll(t1, t2 Tuple) int {
	return s.Compare(t1, t2, s.all)
}

// EqualProjected compares the cols projection of t (schema s) against an
// already-projected tuple p (schema s.Project(cols)).
func (s *Schema) EqualProjected(t Tuple, cols []int, p Tuple) bool {
	off := 0
	for _, c := range cols {
		w := s.fields[c].Width
		if !bytes.Equal(t[s.offsets[c]:s.offsets[c]+w], p[off:off+w]) {
			return false
		}
		off += w
	}
	return true
}

// CompareCross orders the cols1 projection of t1 (schema s1) against the
// cols2 projection of t2 (schema s2). The projections must be
// kind/width-compatible column by column; merge joins use this to compare
// join keys across differently-shaped inputs.
func CompareCross(s1 *Schema, t1 Tuple, cols1 []int, s2 *Schema, t2 Tuple, cols2 []int) int {
	if len(cols1) != len(cols2) {
		panic(fmt.Sprintf("tuple: CompareCross key arity mismatch %d vs %d", len(cols1), len(cols2)))
	}
	for i := range cols1 {
		c1, c2 := cols1[i], cols2[i]
		f1, f2 := s1.fields[c1], s2.fields[c2]
		if f1.Kind != f2.Kind || f1.Width != f2.Width {
			panic(fmt.Sprintf("tuple: CompareCross column %d incompatible: %v vs %v", i, f1, f2))
		}
		o1, o2 := s1.offsets[c1], s2.offsets[c2]
		switch f1.Kind {
		case KindInt64:
			a := int64(binary.LittleEndian.Uint64(t1[o1 : o1+8]))
			b := int64(binary.LittleEndian.Uint64(t2[o2 : o2+8]))
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
		case KindChar:
			if c := bytes.Compare(t1[o1:o1+f1.Width], t2[o2:o2+f2.Width]); c != 0 {
				return c
			}
		}
	}
	return 0
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64Pow5 and fnvPrime64Pow7 are fnvPrime64^5 and fnvPrime64^7
	// mod 2^64: the steps of HashUint64LE over four and six zero bytes, the
	// last significant byte's own step included.
	fnvPrime64Pow5 = 0x0caee32a7d4f6a63
	fnvPrime64Pow7 = 0xc5527b8a51d3d2db
)

// Hash computes an FNV-1a hash over the listed columns of t. This is the
// "calculation of a hash value from a tuple" the cost model charges Hash for.
func (s *Schema) Hash(t Tuple, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		off := s.offsets[c]
		for _, b := range t[off : off+s.fields[c].Width] {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	return h
}

// HashAll hashes every column of t.
func (s *Schema) HashAll(t Tuple) uint64 {
	return s.Hash(t, s.all)
}

// HashBytes hashes a raw already-projected tuple (no schema needed because
// projection produced a contiguous record).
func HashBytes(t Tuple) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range t {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}
