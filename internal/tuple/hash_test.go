package tuple

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// hashWordBoundaries are the words on either side of HashUint64LE's cut
// points (2^16 and 2^32) and at the ends of the byte range.
var hashWordBoundaries = []uint64{0, 255, 256, 1<<16 - 1, 1 << 16, 1 << 24, 1<<32 - 1, 1 << 32, 1 << 56, ^uint64(0)}

// wordSchema puts the hashed word at an odd offset of an odd-width row, so
// HashWordColumn's loads are unaligned and its offsets not multiples of 8.
var wordSchema = NewSchema(CharField("pad", 5), Int64Field("k"))

// checkHashWords holds every word hash to the byte-at-a-time FNV-1a
// reference: HashUint64LE, HashWordColumn at strides 1 and 2 (leaving the
// other words of its vector alone), the compiled HashFunc and Hash.
func checkHashWords(t testing.TB, words []uint64) {
	t.Helper()
	s, cols := wordSchema, []int{1}
	w, off := s.Width(), s.Offset(1)
	raw := make([]byte, len(words)*w)
	want := make([]uint64, len(words))
	for i, x := range words {
		binary.LittleEndian.PutUint64(raw[i*w+off:], x)
		want[i] = HashBytes(binary.LittleEndian.AppendUint64(nil, x))
	}
	hash := s.HashFunc(cols)
	for i, x := range words {
		row := Tuple(raw[i*w : (i+1)*w])
		if got := HashUint64LE(x); got != want[i] {
			t.Fatalf("HashUint64LE(%#x) = %#x, HashBytes = %#x", x, got, want[i])
		}
		if got := hash(row); got != want[i] {
			t.Fatalf("HashFunc(%#x) = %#x, HashBytes = %#x", x, got, want[i])
		}
		if got := s.Hash(row, cols); got != want[i] {
			t.Fatalf("Hash(%#x) = %#x, HashBytes = %#x", x, got, want[i])
		}
	}
	const untouched = 0x5eed
	for _, stride := range []int{1, 2} {
		dst := make([]uint64, len(words)*stride)
		for i := range dst {
			dst[i] = untouched
		}
		HashWordColumn(dst, stride, raw, w, off)
		for i, h := range dst {
			if i%stride != 0 {
				if h != untouched {
					t.Fatalf("stride %d: HashWordColumn wrote word %d between rows", stride, i)
				}
				continue
			}
			if x := words[i/stride]; h != want[i/stride] {
				t.Fatalf("stride %d: HashWordColumn(%#x) = %#x, HashBytes = %#x", stride, x, h, want[i/stride])
			}
		}
	}
}

// TestHashWordMatchesHashBytes: hashing a word by its significant bytes is
// bit-identical to FNV-1a over all eight, at the cut points and for 10^5
// random words of each significant-byte count.
func TestHashWordMatchesHashBytes(t *testing.T) {
	p := uint64(fnvPrime64)
	for _, pow := range []struct {
		k    int
		want uint64
	}{{5, fnvPrime64Pow5}, {7, fnvPrime64Pow7}} {
		got := uint64(1)
		for i := 0; i < pow.k; i++ {
			got *= p
		}
		if got != pow.want {
			t.Errorf("fnvPrime64^%d = %#x, constant is %#x", pow.k, got, pow.want)
		}
	}
	checkHashWords(t, hashWordBoundaries)
	rng := rand.New(rand.NewSource(25))
	words := make([]uint64, 100_000)
	for bytes := 1; bytes <= 8; bytes++ {
		top := uint(8 * (bytes - 1))
		for i := range words {
			// The low bytes are random, the top significant byte is nonzero.
			words[i] = rng.Uint64()&(1<<top-1) | uint64(1+rng.Intn(255))<<top
		}
		checkHashWords(t, words)
	}
}

// FuzzHashWord: every word hashes as FNV-1a over its eight bytes.
func FuzzHashWord(f *testing.F) {
	for _, x := range hashWordBoundaries {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x uint64) {
		checkHashWords(t, []uint64{x})
	})
}
