package netexchange

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/exec"
)

// transport carries one link's frames, at either end (DESIGN.md §15). The
// coordinator and the worker loop speak the same phased protocol over both
// implementations: connTransport frames a net.Conn, pipeEnd is one end of an
// in-process pipe. Each end has one user at a time, as the protocol's phases
// guarantee; only poison may be called concurrently.
type transport interface {
	// send transmits one frame and returns its wire size. The transport
	// does not retain payload.
	send(h FrameHeader, payload []byte) (int64, error)
	// next receives one frame and its wire size. The payload is valid until
	// the following next. A frameError from the peer comes back as the
	// peer's error.
	next() (FrameHeader, []byte, int64, error)
	// fail reports this end's terminal error to the peer, best effort.
	fail(err error)
	// poison fails every blocked and later send and next.
	poison()
}

// frameBytes is the wire size of a frame carrying n payload bytes.
func frameBytes(n int) int64 { return frameOverhead + bodyHeaderLen + int64(n) }

// connTransport is the TCP transport: checksummed frames on a net.Conn, the
// zero-copy writeRawFrame on the way out, one reused read buffer on the way
// in, and SetDeadline for poisoning.
type connTransport struct {
	c  net.Conn
	fr frameReader
}

func (t *connTransport) send(h FrameHeader, payload []byte) (int64, error) {
	return writeRawFrame(t.c, h, payload)
}

func (t *connTransport) next() (FrameHeader, []byte, int64, error) {
	h, payload, wire, err := t.fr.next()
	if err == nil && h.Type == frameError {
		err = errRemote(payload)
	}
	return h, payload, wire, err
}

func (t *connTransport) fail(err error) {
	writeRawFrame(t.c, FrameHeader{Type: frameError}, appendErrorPayload(nil, err)) //nolint:errcheck // already failing
}

// poison expires the connection's deadline, so blocked reads and writes
// fail at once.
func (t *connTransport) poison() {
	t.c.SetDeadline(time.Now()) //nolint:errcheck // poisoning best-effort
}

// errPoisoned fails the operations on a poisoned pipe.
var errPoisoned = errors.New("netexchange: link poisoned")

// pipeEnd is one end of a pipe, the in-process transport: the two ends of a
// link in one address space. Frames cross as Go values through two buffered
// channels: control payloads are the encodings the wire carries, and batch
// payloads (divisor, candidate, collect, quotient) are copied into recycled
// buffers, which the receiver gives back at its following next. The dividend
// never enters the channels: at phase C the coordinator attaches the worker
// end to its Shuffle destination, and the worker reads the shuffle's
// batches in place and recycles each one — no copy, no allocation and no
// goroutine per batch. Sizes are reported as the frames would occupy a
// wire, so LinkStats read the same on both transports. An end's failure
// crosses as its Go error value, so errors.Is and errors.As still match.
type pipeEnd struct {
	*pipe
	in  <-chan pipeFrame
	out chan<- pipeFrame

	// The payload the last next returned, recycled by the following one.
	heldPayload *[]byte

	// Worker end, during phase C: the attached shuffle destination, and
	// the batch the last next returned, recycled by the following one.
	sh   *Shuffle
	dest int
	held *exec.Batch
}

// payloads recycles the copies pipes make of the payloads they send. A
// payload is valid only until the receiver's following next (the transport
// contract), which gives its buffer back here.
var payloads = sync.Pool{New: func() any { return new([]byte) }}

// pipe is the state both ends share.
type pipe struct {
	done chan struct{} // closed by the first poison, fail or close
	once sync.Once
	err  error // why done closed; written before the close
}

// pipeFrame is one message on a pipe channel: a frame, or (sh non-nil) the
// coordinator attaching the worker end to destination dest of sh, which the
// worker's next then drains until Run closes it.
type pipeFrame struct {
	h       FrameHeader
	payload *[]byte // nil for an empty payload
	sh      *Shuffle
	dest    int
}

// newPipe returns the coordinator and worker ends of a new pipe. Each
// direction buffers linkDepth frames, as a socket buffers bytes, so a send
// does not wait for the peer: phase A's frames and phase C's attach queue
// while a worker still builds its divisor table.
func newPipe() (coord, worker *pipeEnd) {
	p := &pipe{done: make(chan struct{})}
	down, up := make(chan pipeFrame, linkDepth), make(chan pipeFrame, linkDepth)
	return &pipeEnd{pipe: p, in: up, out: down}, &pipeEnd{pipe: p, in: down, out: up}
}

// closed reports whether the pipe is shut: from then on every send and next
// fails, whatever the channels still buffer.
func (p *pipe) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// shut closes the pipe for err, unless it is already closed.
func (p *pipe) shut(err error) {
	p.once.Do(func() {
		p.err = err
		close(p.done)
	})
}

func (e *pipeEnd) push(f pipeFrame) error {
	if e.closed() {
		return e.err
	}
	select {
	case e.out <- f:
		return nil
	case <-e.done:
		return e.err
	}
}

func (e *pipeEnd) send(h FrameHeader, payload []byte) (int64, error) {
	f := pipeFrame{h: h}
	if len(payload) > 0 {
		f.payload = payloads.Get().(*[]byte)
		*f.payload = append((*f.payload)[:0], payload...)
	}
	if err := e.push(f); err != nil {
		if f.payload != nil {
			payloads.Put(f.payload)
		}
		return 0, err
	}
	return frameBytes(len(payload)), nil
}

func (e *pipeEnd) next() (FrameHeader, []byte, int64, error) {
	if e.heldPayload != nil {
		payloads.Put(e.heldPayload)
		e.heldPayload = nil
	}
	if e.held != nil {
		e.sh.Recycle(e.held)
		e.held = nil
	}
	for !e.closed() {
		// An attached destination is drained before the control channel is
		// read again: frameDividendEnd is queued there only after Run has
		// closed the destination.
		in, dividend := e.in, (<-chan *exec.Batch)(nil)
		if e.sh != nil {
			in, dividend = nil, e.sh.Dest(e.dest)
		}
		select {
		case b, ok := <-dividend:
			if !ok {
				e.sh = nil
				continue
			}
			e.held = b
			return FrameHeader{Type: frameDividendBatch, Count: uint32(b.Len())}, b.Raw(), frameBytes(len(b.Raw())), nil
		case f := <-in:
			if f.sh == nil {
				var payload []byte
				if f.payload != nil {
					payload, e.heldPayload = *f.payload, f.payload
				}
				return f.h, payload, frameBytes(len(payload)), nil
			}
			e.sh, e.dest = f.sh, f.dest
		case <-e.done:
		}
	}
	return FrameHeader{}, nil, 0, e.err
}

func (e *pipeEnd) fail(err error) { e.shut(err) }

func (e *pipeEnd) poison() { e.shut(errPoisoned) }

// close ends the pipe between jobs: the peer's next reports io.EOF, as a
// closed connection does.
func (e *pipeEnd) close() { e.shut(io.EOF) }
