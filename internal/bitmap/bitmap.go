// Package bitmap provides the word-at-a-time bit maps hash-division keeps
// with each quotient candidate (one bit per divisor tuple, indexed by divisor
// number). The paper notes that "initializing a bit map and searching for a
// single zero in a bit map can be done by inspecting a word at a time"
// (§3.3); HasZero and AllSet do exactly that.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitmap is a fixed-size bit map of n bits, initialized to all zeros.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bit map of n zero bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// SizeBytes returns the heap footprint of the bit data, used by the
// memory-budget accounting of hash table overflow handling.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

// rangeError is the panic value of an out-of-range index. Its message is
// formatted only when the panic is reported, which keeps check, and the bit
// operations calling it, within the compiler's inlining budget.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("bitmap: index %d out of range [0,%d)", e.i, e.n)
}

// check panics unless 0 <= i < n; one unsigned comparison tests both.
func (b *Bitmap) check(i int) {
	if uint(i) >= uint(b.n) {
		panic(rangeError{i, b.n})
	}
}

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	b.check(i)
	return b.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetAndReport sets bit i and reports whether it was already set. The
// early-emit variant of hash-division (§3.3) uses this to decide whether to
// advance the per-candidate counter: a duplicate dividend tuple maps to an
// already-set bit and is discarded.
func (b *Bitmap) SetAndReport(i int) (wasSet bool) {
	b.check(i)
	w := uint(i) / wordBits
	mask := uint64(1) << (uint(i) % wordBits)
	wasSet = b.words[w]&mask != 0
	b.words[w] |= mask
	return wasSet
}

// HasZero reports whether any of the n bits is still zero, scanning whole
// words. The final step of hash-division prints exactly the quotient
// candidates for which HasZero is false.
func (b *Bitmap) HasZero() bool {
	if b.n == 0 {
		return false
	}
	full := b.n / wordBits
	for _, w := range b.words[:full] {
		if w != ^uint64(0) {
			return true
		}
	}
	if rem := b.n % wordBits; rem != 0 {
		mask := (uint64(1) << rem) - 1
		if b.words[full]&mask != mask {
			return true
		}
	}
	return false
}

// AllSet reports whether every bit is one.
func (b *Bitmap) AllSet() bool { return !b.HasZero() }

// PopCount returns the number of set bits, one OnesCount64 per word. The
// batch quotient scan tests candidate completion with it (PopCount == |S| ⇔
// AllSet, since Set guards the index range). Bits past Len can never be set,
// so the partial final word needs no masking.
func (b *Bitmap) PopCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Words exposes the packed backing words, little-endian within each word
// (bit i lives in words[i/64]). The distributed exchange serializes the
// divisor-match bit vector by shipping exactly these words; mutating the
// returned slice mutates the bitmap.
func (b *Bitmap) Words() []uint64 { return b.words }

// FromWords reconstructs an n-bit map adopting a copy of the packed words —
// the receive half of the bit-vector wire format. It fails when the word
// count does not match n, and rejects set bits past n (a corrupt or hostile
// encoding could otherwise smuggle in bits Set could never produce, breaking
// the PopCount == AllSet equivalences).
func FromWords(n int, words []uint64) (*Bitmap, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitmap: negative size %d", n)
	}
	want := (n + wordBits - 1) / wordBits
	if len(words) != want {
		return nil, fmt.Errorf("bitmap: %d words cannot back %d bits (want %d)", len(words), n, want)
	}
	if rem := n % wordBits; rem != 0 && len(words) > 0 {
		if words[len(words)-1]&^((uint64(1)<<rem)-1) != 0 {
			return nil, fmt.Errorf("bitmap: set bits past length %d", n)
		}
	}
	b := &Bitmap{words: make([]uint64, want), n: n}
	copy(b.words, words)
	return b, nil
}

// Or folds other into b (b |= other). Both maps must have the same length.
// The parallel collection site uses this when merging replicated-divisor
// partial results.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: Or size mismatch %d vs %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Reset clears every bit without reallocating.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// String renders the bits little-endian (bit 0 first), e.g. "101".
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
