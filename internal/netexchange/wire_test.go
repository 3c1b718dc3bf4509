package netexchange

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		h       FrameHeader
		payload []byte
	}{
		{FrameHeader{Type: frameOpen}, []byte("hello")},
		{FrameHeader{Type: frameDivisorEnd}, nil},
		{FrameHeader{Type: frameCandidate, Phase: 7, Count: 3}, bytes.Repeat([]byte{0xAB}, 48)},
		{FrameHeader{Type: frameError}, []byte("worker exploded")},
	}
	var stream []byte
	for _, c := range cases {
		stream = EncodeFrame(stream, c.h, c.payload)
	}
	for i, c := range cases {
		h, payload, n, err := DecodeFrame(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n == 0 {
			t.Fatalf("frame %d: clean EOF before all frames decoded", i)
		}
		if h != c.h {
			t.Errorf("frame %d: header %+v, want %+v", i, h, c.h)
		}
		if !bytes.Equal(payload, c.payload) {
			t.Errorf("frame %d: payload mismatch", i)
		}
		stream = stream[n:]
	}
	if h, _, n, err := DecodeFrame(stream); err != nil || n != 0 {
		t.Fatalf("empty tail: got (%+v, n=%d, %v), want clean EOF", h, n, err)
	}
}

// TestFrameChecksumMatchesDisk pins the frame checksum to disk.Checksum over
// the contiguous body: the incremental chain across the header/payload split
// must be indistinguishable from a one-shot pass.
func TestFrameChecksumMatchesDisk(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0x5C}, 8), bytes.Repeat([]byte{9}, 1000)}
	for _, p := range payloads {
		h := FrameHeader{Type: frameDividendBatch, Phase: 3, Count: uint32(len(p))}
		var body [bodyHeaderLen]byte
		putBodyHeader(body[:], h)
		want := disk.Checksum(append(body[:], p...))
		got := chainChecksum(chainChecksum(fnvOffset64, body[:]), p)
		if got != want {
			t.Fatalf("payload len %d: chained checksum %#x, disk.Checksum %#x", len(p), got, want)
		}
	}
}

// TestFastPathMatchesCodec asserts the zero-copy batch writer produces
// byte-identical output to the reference codec, so the fuzz target exercises
// exactly the bytes the exchange puts on the wire.
func TestFastPathMatchesCodec(t *testing.T) {
	b := exec.NewBatch(workload.TranscriptSchema, 16)
	defer b.Release()
	for i := 0; i < 5; i++ {
		b.Append(workload.TranscriptSchema.MustMake(int64(i), int64(i*10)))
	}
	h := FrameHeader{Type: frameDividendBatch, Count: uint32(b.Len())}
	var fast bytes.Buffer
	n, err := writeRawFrame(&fast, h, b.Raw())
	if err != nil {
		t.Fatal(err)
	}
	ref := EncodeFrame(nil, h, b.Raw())
	if !bytes.Equal(fast.Bytes(), ref) {
		t.Fatal("fast-path frame differs from EncodeFrame output")
	}
	if n != int64(len(ref)) {
		t.Fatalf("fast path reported %d bytes, frame is %d", n, len(ref))
	}
	if _, payload, _, err := DecodeFrame(ref); err != nil || !bytes.Equal(payload, b.Raw()) {
		t.Fatalf("decode of fast-path frame: %v", err)
	}
}

func TestDecodeFrameDetectsBitFlips(t *testing.T) {
	frame := EncodeFrame(nil, FrameHeader{Type: frameQuotientBatch, Count: 2}, []byte("some tuple bytes"))
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}

func TestDecodeFrameGarbage(t *testing.T) {
	for _, garbage := range [][]byte{
		[]byte("not a frame at all, definitely"),
		bytes.Repeat([]byte{0xFF}, 64),
		{0, 0, 0, 4}, // length without body
	} {
		_, _, _, err := DecodeFrame(garbage)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("garbage %x: err = %v, want ErrCorruptFrame", garbage[:min(8, len(garbage))], err)
		}
	}
	// All-zero padding is the clean end of a stream, not corruption.
	if _, _, n, err := DecodeFrame(make([]byte, 7)); err != nil || n != 0 {
		t.Errorf("zero padding: (n=%d, %v), want clean EOF", n, err)
	}
}

func TestJobHeaderRoundTrip(t *testing.T) {
	in := jobHeader{
		Strategy:    strategyDivisor,
		BitVector:   true,
		SendFilter:  true,
		WorkerID:    2,
		Workers:     5,
		Phase:       3,
		NumPhases:   4,
		FilterBits:  1217,
		BatchSize:   256,
		HBS:         2.5,
		Dividend:    workload.TranscriptSchema,
		Divisor:     workload.CourseSchema,
		DivisorCols: []int{1},
	}
	out, err := decodeJobHeader(appendJobHeader(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != in.Strategy || out.BitVector != in.BitVector || out.SendFilter != in.SendFilter ||
		out.WorkerID != in.WorkerID || out.Workers != in.Workers || out.Phase != in.Phase ||
		out.NumPhases != in.NumPhases || out.FilterBits != in.FilterBits ||
		out.BatchSize != in.BatchSize || out.HBS != in.HBS {
		t.Fatalf("scalar fields mismatch: %+v vs %+v", out, in)
	}
	if !out.Dividend.Equal(in.Dividend) || !out.Divisor.Equal(in.Divisor) {
		t.Fatal("schema round-trip mismatch")
	}
	if len(out.DivisorCols) != 1 || out.DivisorCols[0] != 1 {
		t.Fatalf("divisor cols %v", out.DivisorCols)
	}

	// Idle divisor-partitioning worker: phase -1 must survive the unsigned
	// wire field.
	in.Phase = -1
	out, err = decodeJobHeader(appendJobHeader(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Phase != -1 {
		t.Fatalf("idle phase decoded as %d", out.Phase)
	}
}

func TestJobHeaderRejectsBadColumns(t *testing.T) {
	in := jobHeader{
		Strategy:    strategyQuotient,
		WorkerID:    0,
		Workers:     1,
		Phase:       -1,
		BatchSize:   64,
		HBS:         2,
		Dividend:    workload.TranscriptSchema,
		Divisor:     workload.CourseSchema,
		DivisorCols: []int{9}, // out of dividend range
	}
	if _, err := decodeJobHeader(appendJobHeader(nil, in)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("out-of-range divisor column: err = %v", err)
	}
}

func TestFilterRoundTrip(t *testing.T) {
	words := []uint64{0xDEADBEEF, 1 << 63, 0x7}
	payload := appendFilter(nil, 131, words)
	bits, got, err := decodeFilter(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 131 || len(got) != 3 || got[0] != words[0] || got[1] != words[1] || got[2] != words[2] {
		t.Fatalf("filter round-trip: bits=%d words=%x", bits, got)
	}
	if _, _, err := decodeFilter(payload[:len(payload)-1]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated filter: err = %v", err)
	}
}

func TestWorkerStatsRoundTrip(t *testing.T) {
	payload := appendWorkerStats(nil, 100, 7, 42)
	dividend, divisor, quotient, err := decodeWorkerStats(payload)
	if err != nil || dividend != 100 || divisor != 7 || quotient != 42 {
		t.Fatalf("stats round-trip: %d %d %d %v", dividend, divisor, quotient, err)
	}
}

func TestSchemaRoundTripChar(t *testing.T) {
	s := tuple.NewSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64, Width: 8},
		tuple.Field{Name: "name", Kind: tuple.KindChar, Width: 12},
	)
	c := &consumer{buf: appendSchema(nil, s)}
	got := c.consumeSchema()
	if c.err != nil {
		t.Fatal(c.err)
	}
	if !got.Equal(s) {
		t.Fatalf("schema %v, want %v", got, s)
	}
}

// TestJobHeaderBoundsWorkerAllocations: a job header is corrupt when it
// announces a receive batch that cannot fit one frame, a filter larger than
// one filter frame carries, or an HBS that cannot size a hash table. The
// decode, which both transports share, must reject it before the worker
// sizes a batch, a bitmap or a table by it.
func TestJobHeaderBoundsWorkerAllocations(t *testing.T) {
	base := jobHeader{
		Strategy:    strategyQuotient,
		BitVector:   true,
		SendFilter:  true,
		Workers:     1,
		Phase:       -1,
		FilterBits:  1217,
		BatchSize:   1024,
		HBS:         2,
		Dividend:    workload.TranscriptSchema,
		Divisor:     workload.CourseSchema,
		DivisorCols: []int{1},
	}
	maxBatch := (maxFrameBytes - bodyHeaderLen) / workload.TranscriptSchema.Width()
	for _, c := range []struct {
		name string
		edit func(*jobHeader)
	}{
		{"batch 1<<30", func(j *jobHeader) { j.BatchSize = 1 << 30 }},
		{"batch 1<<24", func(j *jobHeader) { j.BatchSize = 1 << 24 }},
		{"batch one past a frame", func(j *jobHeader) { j.BatchSize = maxBatch + 1 }},
		{"batch 0", func(j *jobHeader) { j.BatchSize = 0 }},
		{"filter 2^32-1 bits", func(j *jobHeader) { j.FilterBits = 1<<32 - 1 }},
		{"filter one bit past a frame", func(j *jobHeader) { j.FilterBits = maxFilterBits + 1 }},
		{"HBS 1e-12", func(j *jobHeader) { j.HBS = 1e-12 }},
		{"HBS NaN", func(j *jobHeader) { j.HBS = math.NaN() }},
	} {
		j := base
		c.edit(&j)
		if _, err := decodeJobHeader(appendJobHeader(nil, j)); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", c.name, err)
		}
	}
	base.BatchSize, base.FilterBits = maxBatch, maxFilterBits
	if _, err := decodeJobHeader(appendJobHeader(nil, base)); err != nil {
		t.Errorf("largest batch and filter one frame carries: %v", err)
	}
}
