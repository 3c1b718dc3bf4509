// Package netexchange is the repository's one exchange for the paper's §6
// shared-nothing design. A coordinator places the divisor on the workers,
// reads the divisor-match bit vector back as packed bitmap words, ships the
// dividend from morsel producers as partitioned exec.Batch arenas with that
// filter applied first — the semi-join reduction the paper prescribes to
// cut traffic — and, under divisor partitioning, runs the candidate
// collection as a second round. The coordinator and the worker loop speak
// over a transport: TCP connections to worker processes (or goroutine-hosted
// listeners), or in-process pipes, which is how package parallel divides.
// Per-link byte/frame/round-trip accounting is the wire's on both, so an
// in-process run and a TCP run of the same division report the same
// numbers. See DESIGN.md §14 and §15.
package netexchange

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"repro/internal/division"
	"repro/internal/tuple"
)

// maxFrameBytes bounds one wire frame, mirroring server/protocol.go: a peer
// announcing more is broken or hostile and the link is failed rather than
// the allocation attempted.
const maxFrameBytes = 16 << 20

// frameOverhead is the fixed wire cost of one frame: u32 length prefix +
// u64 checksum, followed by the 8-byte body header inside the checksummed
// region.
const frameOverhead = 4 + 8

// bodyHeaderLen is the fixed prefix of every frame body: type, flags,
// phase, and tuple count. Exactly 8 bytes so the word-at-a-time checksum
// chains across the header/payload boundary without re-buffering (see
// chainChecksum).
const bodyHeaderLen = 8

// ErrCorruptFrame marks bytes that fail frame validation: an impossible
// length, a checksum mismatch, or a malformed control payload. The frame
// codec never panics, whatever the bytes — garbage always surfaces as an
// error wrapping this sentinel.
var ErrCorruptFrame = errors.New("netexchange: corrupt frame")

// Frame types. The coordinator and worker speak a strictly phased protocol
// (open, divisor, filter, dividend, candidates, collect, quotient) so no
// side ever needs concurrent writers on one link.
const (
	frameOpen          = byte(1)  // coordinator → worker: job header
	frameDivisorBatch  = byte(2)  // coordinator → worker: divisor tuples
	frameDivisorEnd    = byte(3)  // coordinator → worker: divisor complete
	frameFilter        = byte(4)  // worker → coordinator: packed bit-vector words (maybe empty)
	frameDividendBatch = byte(5)  // coordinator → worker: dividend tuples
	frameDividendEnd   = byte(6)  // coordinator → worker: dividend complete
	frameCandidate     = byte(7)  // worker → coordinator: local candidate tuples (divisor strategy)
	frameCandidateEnd  = byte(8)  // worker → coordinator: candidates complete
	frameCollectBatch  = byte(9)  // coordinator → worker: repartitioned candidates, phase-tagged
	frameCollectEnd    = byte(10) // coordinator → worker: collection round complete
	frameQuotientBatch = byte(11) // worker → coordinator: final quotient tuples
	frameQuotientEnd   = byte(12) // worker → coordinator: job done + worker stats
	frameError         = byte(13) // either direction: job failed, payload is the message
)

// FrameHeader is the decoded 8-byte body header of one frame.
type FrameHeader struct {
	Type byte
	// Phase tags candidate/collect batches with the originating worker's
	// phase index; 0 elsewhere. Per-frame (not per-tuple) tagging is what
	// keeps candidate tuples fixed-width on the wire.
	Phase uint16
	// Count is the number of tuples in a batch frame's payload; 0 for
	// control frames.
	Count uint32
}

// FNV-1a constants, identical to disk.Checksum's so a contiguous frame body
// checksums to exactly disk.Checksum(body).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// chainChecksum folds data into a running FNV-1a word-at-a-time hash. To
// produce the same value as one contiguous pass, every chunk except the last
// must be a multiple of 8 bytes — the 8-byte body header satisfies this by
// construction, letting the batch fast path checksum header and raw arena
// separately without copying them into one buffer.
func chainChecksum(h uint64, data []byte) uint64 {
	for len(data) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(data)) * fnvPrime64
		data = data[8:]
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// putBodyHeader encodes h into an 8-byte body header.
func putBodyHeader(dst []byte, h FrameHeader) {
	dst[0] = h.Type
	dst[1] = 0 // reserved
	binary.LittleEndian.PutUint16(dst[2:4], h.Phase)
	binary.LittleEndian.PutUint32(dst[4:8], h.Count)
}

// EncodeFrame appends the wire form of one frame to dst and returns the
// extended slice: [u32 BE bodyLen][u64 LE checksum][8-byte header][payload],
// where the checksum covers header and payload. This is the reference
// encoding; the zero-copy batch path on a link produces byte-identical
// output without materializing the body (asserted by TestFastPathMatchesCodec).
func EncodeFrame(dst []byte, h FrameHeader, payload []byte) []byte {
	var pre [frameOverhead + bodyHeaderLen]byte
	bodyLen := bodyHeaderLen + len(payload)
	binary.BigEndian.PutUint32(pre[0:4], uint32(bodyLen))
	putBodyHeader(pre[12:20], h)
	sum := chainChecksum(chainChecksum(fnvOffset64, pre[12:20]), payload)
	binary.LittleEndian.PutUint64(pre[4:12], sum)
	dst = append(dst, pre[:]...)
	return append(dst, payload...)
}

// DecodeFrame reads one frame from the front of buf. It returns the header,
// the payload (aliasing buf), and the total encoded length consumed. A
// too-short all-zero buffer yields (zero, nil, 0, nil): the clean
// end-of-stream, mirroring wal.DecodeRecord. Corruption — a length that
// cannot fit the buffer, an impossible body size, or a checksum mismatch —
// returns an error wrapping ErrCorruptFrame. DecodeFrame never panics,
// whatever the bytes.
func DecodeFrame(buf []byte) (h FrameHeader, payload []byte, n int, err error) {
	if len(buf) < frameOverhead {
		for _, b := range buf {
			if b != 0 {
				return h, nil, 0, fmt.Errorf("%w: %d trailing bytes, no room for a frame", ErrCorruptFrame, len(buf))
			}
		}
		return h, nil, 0, nil
	}
	bodyLen := binary.BigEndian.Uint32(buf[0:4])
	if bodyLen < bodyHeaderLen {
		return h, nil, 0, fmt.Errorf("%w: body of %d bytes cannot hold a header", ErrCorruptFrame, bodyLen)
	}
	if bodyLen > maxFrameBytes {
		return h, nil, 0, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrCorruptFrame, bodyLen, maxFrameBytes)
	}
	if int64(bodyLen) > int64(len(buf)-frameOverhead) {
		return h, nil, 0, fmt.Errorf("%w: length %d exceeds %d available bytes", ErrCorruptFrame, bodyLen, len(buf)-frameOverhead)
	}
	h, payload, err = parseBody(buf, buf[frameOverhead:frameOverhead+int(bodyLen)])
	if err != nil {
		return h, nil, 0, err
	}
	return h, payload, frameOverhead + int(bodyLen), nil
}

// parseBody verifies a frame body against the checksum in the frame's
// prefix and splits it into the header and the payload, which aliases body.
func parseBody(prefix, body []byte) (FrameHeader, []byte, error) {
	want := binary.LittleEndian.Uint64(prefix[4:12])
	if got := chainChecksum(fnvOffset64, body); got != want {
		return FrameHeader{}, nil, fmt.Errorf("%w: checksum mismatch (want %#x, got %#x)", ErrCorruptFrame, want, got)
	}
	h := FrameHeader{Type: body[0], Phase: binary.LittleEndian.Uint16(body[2:4]), Count: binary.LittleEndian.Uint32(body[4:8])}
	return h, body[bodyHeaderLen:], nil
}

// frameReader pulls frames off an io.Reader into one reused buffer. The
// returned payload aliases that buffer and is valid only until the next
// read — exactly the lifetime a worker needs to SetAlias a batch over it,
// absorb, and move on without a copy.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next reads one frame, verifies its checksum, and returns the header, the
// payload view, and the frame's total size on the wire.
func (fr *frameReader) next() (h FrameHeader, payload []byte, wire int64, err error) {
	var pre [frameOverhead]byte
	if _, err := io.ReadFull(fr.r, pre[:]); err != nil {
		return h, nil, 0, err
	}
	bodyLen := binary.BigEndian.Uint32(pre[0:4])
	if bodyLen < bodyHeaderLen || bodyLen > maxFrameBytes {
		return h, nil, 0, fmt.Errorf("%w: peer announced %d-byte body", ErrCorruptFrame, bodyLen)
	}
	if cap(fr.buf) < int(bodyLen) {
		fr.buf = make([]byte, bodyLen)
	}
	body := fr.buf[:bodyLen]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return h, nil, 0, err
	}
	h, payload, err = parseBody(pre[:], body)
	return h, payload, int64(frameOverhead) + int64(bodyLen), err
}

// writeRawFrame writes every frame of a TCP link: the frame prefix (length,
// checksum, body header) is assembled in a 20-byte scratch buffer and the
// payload — an exec.Batch arena, or a control encoding — goes to the socket
// via net.Buffers, so tuples are never re-encoded or copied into an
// intermediate frame buffer. The bytes on the wire are identical to
// EncodeFrame's.
func writeRawFrame(w io.Writer, h FrameHeader, raw []byte) (int64, error) {
	bodyLen := bodyHeaderLen + len(raw)
	if bodyLen > maxFrameBytes {
		return 0, fmt.Errorf("netexchange: %d-byte frame exceeds the %d-byte limit", bodyLen, maxFrameBytes)
	}
	var pre [frameOverhead + bodyHeaderLen]byte
	binary.BigEndian.PutUint32(pre[0:4], uint32(bodyLen))
	putBodyHeader(pre[12:20], h)
	sum := chainChecksum(chainChecksum(fnvOffset64, pre[12:20]), raw)
	binary.LittleEndian.PutUint64(pre[4:12], sum)
	bufs := net.Buffers{pre[:], raw}
	if _, err := bufs.WriteTo(w); err != nil {
		return 0, err
	}
	return int64(frameOverhead + bodyLen), nil
}

// --- control payload encodings -------------------------------------------
//
// Control payloads use a little-endian append/consume pair; every decode is
// bounds-checked and returns ErrCorruptFrame on malformed input.

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

type consumer struct {
	buf []byte
	err error
}

// take consumes n bytes. Past the end of the payload it records the error
// and returns n zero bytes, so the fixed-width readers need no checks of
// their own: a decode tests c.err once it is done.
func (c *consumer) take(n int) []byte {
	if c.err == nil && len(c.buf) < n {
		c.err = fmt.Errorf("%w: control payload truncated (%d bytes short)", ErrCorruptFrame, n-len(c.buf))
	}
	if c.err != nil {
		return make([]byte, n)
	}
	out := c.buf[:n]
	c.buf = c.buf[n:]
	return out
}

func (c *consumer) u8() byte    { return c.take(1)[0] }
func (c *consumer) u16() uint16 { return binary.LittleEndian.Uint16(c.take(2)) }
func (c *consumer) u32() uint32 { return binary.LittleEndian.Uint32(c.take(4)) }
func (c *consumer) u64() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }

// maxWireFields bounds the declared count of schema fields and divisor
// columns so a corrupt header cannot drive a giant allocation.
const maxWireFields = 1 << 10

// appendSchema encodes a tuple schema: field count, then per field the kind,
// width, and name.
func appendSchema(dst []byte, s *tuple.Schema) []byte {
	dst = appendU16(dst, uint16(s.NumFields()))
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		dst = append(dst, byte(f.Kind))
		dst = appendU16(dst, uint16(f.Width))
		dst = appendU16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
	}
	return dst
}

// consumeSchema decodes a schema, validating kinds and widths before
// handing them to tuple.NewSchema (which panics on invalid input by design —
// it normally only sees program constants).
func (c *consumer) consumeSchema() *tuple.Schema {
	nf := int(c.u16())
	if c.err != nil {
		return nil
	}
	if nf == 0 || nf > maxWireFields {
		c.err = fmt.Errorf("%w: schema declares %d fields", ErrCorruptFrame, nf)
		return nil
	}
	fields := make([]tuple.Field, 0, nf)
	for i := 0; i < nf; i++ {
		kind := tuple.Kind(c.u8())
		width := int(c.u16())
		nameLen := int(c.u16())
		name := c.take(nameLen)
		if c.err != nil {
			return nil
		}
		switch kind {
		case tuple.KindInt64:
			if width != 8 {
				c.err = fmt.Errorf("%w: int64 field of width %d", ErrCorruptFrame, width)
				return nil
			}
		case tuple.KindChar:
			if width <= 0 {
				c.err = fmt.Errorf("%w: char field of width %d", ErrCorruptFrame, width)
				return nil
			}
		default:
			c.err = fmt.Errorf("%w: unknown field kind %d", ErrCorruptFrame, kind)
			return nil
		}
		fields = append(fields, tuple.Field{Name: string(name), Kind: kind, Width: width})
	}
	return tuple.NewSchema(fields...)
}

// jobHeader is the frameOpen payload: everything a worker needs to run its
// share of one division.
type jobHeader struct {
	Strategy    byte // 0 = quotient partitioning, 1 = divisor partitioning
	BitVector   bool // build a divisor bit vector
	SendFilter  bool // ship the filter back to the coordinator
	WorkerID    int
	Workers     int
	Phase       int // phase index for divisor partitioning; -1 when idle or unused
	NumPhases   int
	FilterBits  int
	BatchSize   int     // tuples per emitted batch frame
	HBS         float64 // hash table sizing knob
	Budget      int64   // worker memory budget in bytes; 0 = unbounded in-memory tables
	Dividend    *tuple.Schema
	Divisor     *tuple.Schema
	DivisorCols []int
}

const (
	jobFlagBitVector  = 1 << 0
	jobFlagSendFilter = 1 << 1
)

func appendJobHeader(dst []byte, j jobHeader) []byte {
	dst = append(dst, j.Strategy)
	var flags byte
	if j.BitVector {
		flags |= jobFlagBitVector
	}
	if j.SendFilter {
		flags |= jobFlagSendFilter
	}
	dst = append(dst, flags)
	dst = appendU16(dst, uint16(j.WorkerID))
	dst = appendU16(dst, uint16(j.Workers))
	dst = appendU16(dst, uint16(j.Phase+1)) // -1 → 0, so the field stays unsigned
	dst = appendU16(dst, uint16(j.NumPhases))
	dst = appendU32(dst, uint32(j.FilterBits))
	dst = appendU32(dst, uint32(j.BatchSize))
	dst = appendU64(dst, math.Float64bits(j.HBS))
	dst = appendU64(dst, uint64(j.Budget))
	dst = appendU16(dst, uint16(len(j.DivisorCols)))
	for _, col := range j.DivisorCols {
		dst = appendU16(dst, uint16(col))
	}
	dst = appendSchema(dst, j.Dividend)
	dst = appendSchema(dst, j.Divisor)
	return dst
}

func decodeJobHeader(payload []byte) (jobHeader, error) {
	c := &consumer{buf: payload}
	var j jobHeader
	j.Strategy = c.u8()
	flags := c.u8()
	j.BitVector = flags&jobFlagBitVector != 0
	j.SendFilter = flags&jobFlagSendFilter != 0
	j.WorkerID = int(c.u16())
	j.Workers = int(c.u16())
	j.Phase = int(c.u16()) - 1
	j.NumPhases = int(c.u16())
	j.FilterBits = int(c.u32())
	j.BatchSize = int(c.u32())
	j.HBS = math.Float64frombits(c.u64())
	j.Budget = int64(c.u64())
	nCols := int(c.u16())
	if c.err == nil && nCols > maxWireFields {
		return j, fmt.Errorf("%w: %d divisor columns", ErrCorruptFrame, nCols)
	}
	j.DivisorCols = make([]int, 0, nCols)
	for i := 0; i < nCols; i++ {
		j.DivisorCols = append(j.DivisorCols, int(c.u16()))
	}
	j.Dividend = c.consumeSchema()
	j.Divisor = c.consumeSchema()
	if c.err != nil {
		return j, c.err
	}
	if j.Workers <= 0 || j.WorkerID < 0 || j.WorkerID >= j.Workers {
		return j, fmt.Errorf("%w: worker %d of %d", ErrCorruptFrame, j.WorkerID, j.Workers)
	}
	for _, col := range j.DivisorCols {
		if col < 0 || col >= j.Dividend.NumFields() {
			return j, fmt.Errorf("%w: divisor column %d out of dividend range", ErrCorruptFrame, col)
		}
	}
	if len(j.DivisorCols) != j.Divisor.NumFields() {
		return j, fmt.Errorf("%w: %d divisor columns mapped, divisor has %d fields",
			ErrCorruptFrame, len(j.DivisorCols), j.Divisor.NumFields())
	}
	// Bound every size the worker allocates by: a receive batch must fit
	// one frame, and so must the filter.
	if j.BatchSize < 1 || !fitsFrame(j.BatchSize, j.Dividend.Width()) {
		return j, fmt.Errorf("%w: batches of %d tuples exceed a frame", ErrCorruptFrame, j.BatchSize)
	}
	if j.FilterBits > maxFilterBits {
		return j, fmt.Errorf("%w: filter of %d bits", ErrCorruptFrame, j.FilterBits)
	}
	if reason := hbsProblem(j.HBS); reason != "" {
		return j, fmt.Errorf("%w: HBS %v %s", ErrCorruptFrame, j.HBS, reason)
	}
	if j.Budget < 0 {
		j.Budget = 0
	}
	return j, nil
}

// workerStatsPayload is the frameQuotientEnd payload.
func appendWorkerStats(dst []byte, dividend, divisor, quotient int64) []byte {
	dst = appendU64(dst, uint64(dividend))
	dst = appendU64(dst, uint64(divisor))
	return appendU64(dst, uint64(quotient))
}

func decodeWorkerStats(payload []byte) (dividend, divisor, quotient int64, err error) {
	c := &consumer{buf: payload}
	dividend = int64(c.u64())
	divisor = int64(c.u64())
	quotient = int64(c.u64())
	return dividend, divisor, quotient, c.err
}

// appendFilter encodes a bit vector as its length plus packed words.
func appendFilter(dst []byte, bits int, words []uint64) []byte {
	dst = appendU32(dst, uint32(bits))
	for _, w := range words {
		dst = appendU64(dst, w)
	}
	return dst
}

// frameError payload codes: the first payload byte classifies the failure so
// the receiving side can rebuild a typed error (errors.Is against the
// division sentinels) from what is otherwise an opaque remote string. The
// remaining bytes are the human-readable message.
const (
	errCodeGeneric = byte(0)
	errCodeBudget  = byte(1) // wraps division.ErrMemoryBudget
	errCodeDepth   = byte(2) // wraps division.ErrPartitionDepth
)

// appendErrorPayload encodes err as a frameError payload: classification
// byte, then the message.
func appendErrorPayload(dst []byte, err error) []byte {
	code := errCodeGeneric
	switch {
	case errors.Is(err, division.ErrMemoryBudget):
		code = errCodeBudget
	case errors.Is(err, division.ErrPartitionDepth):
		code = errCodeDepth
	}
	dst = append(dst, code)
	return append(dst, err.Error()...)
}

// errRemote rebuilds the peer's failure from a frameError payload. Legacy
// empty payloads decode as a generic remote failure.
func errRemote(payload []byte) error {
	if len(payload) == 0 {
		return &RemoteError{Msg: "(no detail)"}
	}
	return &RemoteError{Code: payload[0], Msg: string(payload[1:])}
}

func decodeFilter(payload []byte) (bits int, words []uint64, err error) {
	c := &consumer{buf: payload}
	bits = int(c.u32())
	if c.err != nil {
		return 0, nil, c.err
	}
	if bits < 0 || bits > maxFilterBits {
		return 0, nil, fmt.Errorf("%w: filter of %d bits", ErrCorruptFrame, bits)
	}
	nWords := (bits + 63) / 64
	if len(c.buf) != nWords*8 {
		return 0, nil, fmt.Errorf("%w: filter payload holds %d bytes, %d bits need %d",
			ErrCorruptFrame, len(c.buf), bits, nWords*8)
	}
	words = make([]uint64, nWords)
	for i := range words {
		words[i] = c.u64()
	}
	return bits, words, c.err
}
