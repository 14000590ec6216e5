// Package msgq implements the high-performance message-passing queue the
// scalable monitor is built on (§II-B2: "FSMonitor ... employs a high
// performance message passing queue to concurrently collect, report, and
// aggregate events from each MDS"). It provides ZeroMQ-style PUB/SUB and
// PUSH/PULL sockets (the paper uses ZeroMQ, §IV-2 "Aggregation") over two
// transports:
//
//   - "tcp://host:port" — length-prefixed frames over TCP (net, stdlib).
//   - "inproc://name"   — direct in-process delivery, for hermetic tests
//     and single-process deployments.
//
// Semantics follow ZeroMQ where it matters to the paper's claims: PUB
// distributes to all matching subscribers with per-subscriber queues and a
// high-water mark; PUSH provides blocking, lossless backpressure.
package msgq

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
)

// Message is one topic-tagged frame.
//
// A message carries its batch one way or the other, never both. Block,
// when non-nil, is an event block shared by pointer over the in-process
// transport (see Pub.PublishBlockCtx): Payload is nil — the wire image is
// not built for a peer that would not read it — and the receiver skips
// decoding entirely. Neither a Block nor a publisher's lease crosses TCP:
// the wire carries Payload only, and a message read from a TCP connection
// always has a nil Block. A received Block is frozen: the receiver must
// treat it (and its trace) as immutable shared state, and — when the
// publisher lent it out (Pub.PublishLeasedCtx) — only until it calls Done.
// A Payload a Sub read from a TCP connection is on loan the same way, from
// the connection: it, and any block decoded over it, is the receiver's only
// until Done, after which the bytes are a later frame's.
type Message struct {
	Topic   string
	Payload []byte
	Block   *events.Block

	lease *lease // the owner's claim on Block/Payload: the publisher's in process, the connection's over TCP; nil when unleased
}

// maxFrame bounds a frame component to keep a malformed peer from forcing
// a huge allocation.
const maxFrame = 64 << 20

// control topics exchanged from subscriber to publisher.
const (
	ctlSubscribe   = "\x01SUB"
	ctlUnsubscribe = "\x01UNSUB"
)

// writeMessage writes one frame: u32 len(topic) | topic | u32 len(payload) | payload.
func writeMessage(w *bufio.Writer, m Message) error {
	// The lengths are built in the writer's own spare room: a local array
	// would escape through Write, once per length per frame.
	if _, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(m.Topic)))); err != nil {
		return err
	}
	if _, err := w.WriteString(m.Topic); err != nil {
		return err
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(m.Payload)))); err != nil {
		return err
	}
	if _, err := w.Write(m.Payload); err != nil {
		return err
	}
	return w.Flush()
}

// readMessage reads one frame written by writeMessage; its payload is a
// plain allocation.
func readMessage(r *bufio.Reader) (Message, error) {
	fr := frameReader{r: r}
	return fr.next()
}

// frameReader reads the frames of one connection. With bufs set, payload
// buffers come from that free list and every frame is handed out with a
// lease of its own: the receiver's Message.Done returns the buffer, and the
// bytes are the receiver's only until then. With bufs nil a payload is a
// plain allocation left to the GC. topic is the previous frame's: one
// subscription repeats one topic, so its bytes are compared inside the
// reader's window and the string reused.
type frameReader struct {
	r     *bufio.Reader
	bufs  *bufList
	topic string
}

func (fr *frameReader) next() (Message, error) {
	n, err := fr.chunkLen()
	if err != nil {
		return Message{}, err
	}
	if err := fr.readTopic(n); err != nil {
		return Message{}, err
	}
	if n, err = fr.chunkLen(); err != nil {
		return Message{}, err
	}
	m := Message{Topic: fr.topic}
	// An empty payload (a probe, a bare control frame) borrows nothing.
	leased := fr.bufs != nil && n > 0
	if leased {
		m.Payload = fr.bufs.get(n)
	} else {
		m.Payload = make([]byte, n)
	}
	if _, err := io.ReadFull(fr.r, m.Payload); err != nil {
		return Message{}, err // the connection is finished, and its free list with it
	}
	if leased {
		m.lease = newFrameLease(m.Payload, fr.bufs)
	}
	return m, nil
}

// chunkLen reads the u32 length that precedes the topic and the payload, in
// the reader's window (a local array would escape through io.ReadFull).
func (fr *frameReader) chunkLen() (int, error) {
	hdr, err := fr.r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // cut inside the length
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return 0, fmt.Errorf("msgq: frame of %d bytes exceeds limit", n)
	}
	_, err = fr.r.Discard(4)
	return int(n), err
}

// readTopic consumes the n topic bytes into fr.topic, allocating only when
// they differ from the previous frame's.
func (fr *frameReader) readTopic(n int) error {
	b, err := fr.r.Peek(n)
	switch {
	case err == nil:
		if string(b) != fr.topic {
			fr.topic = string(b)
		}
		_, err = fr.r.Discard(n)
		return err
	case errors.Is(err, bufio.ErrBufferFull):
		// Longer than the reader's window: read it the plain way.
		buf := make([]byte, n)
		if _, err := io.ReadFull(fr.r, buf); err != nil {
			return err
		}
		fr.topic = string(buf)
		return nil
	case err == io.EOF:
		return io.ErrUnexpectedEOF // cut inside the topic
	default:
		return err
	}
}

// maxKeptBuf is the largest receive buffer a connection keeps for reuse: a
// rare huge frame is not worth holding memory for.
const maxKeptBuf = 1 << 20

// bufList is one TCP connection's free list of receive buffers. Its reader
// takes a buffer per frame; the frame's lease puts it back when the receiver
// says Done, from whatever goroutine that happens on. A reconnect starts a
// fresh list, so a buffer still held from the old connection goes back to a
// list nobody reads from and is never refilled under its holder. What the
// list bounds is idle memory: at most keep buffers, none above maxKeptBuf;
// a receiver that has more than that in flight and returns them all at once
// has the excess dropped and made again when next needed.
type bufList struct {
	mu   sync.Mutex
	free [][]byte
	keep int // idle buffers kept: the subscription queue's depth
	made int // buffers allocated (tests count them)
}

// get returns a buffer of length n: the most recently returned one when it
// is large enough, else a new one (a too-small buffer is dropped, so the
// list converges on buffers that fit the connection's frames).
func (l *bufList) get(n int) []byte {
	l.mu.Lock()
	var buf []byte
	if k := len(l.free) - 1; k >= 0 {
		buf, l.free[k] = l.free[k], nil
		l.free = l.free[:k]
	}
	grow := cap(buf) < n
	if grow {
		l.made++
	}
	l.mu.Unlock()
	if grow {
		buf = make([]byte, n)
	}
	return buf[:n]
}

func (l *bufList) put(buf []byte) {
	if cap(buf) > maxKeptBuf {
		return
	}
	if p := payloadPoison.Load(); p != 0 {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = byte(p)
		}
	}
	l.mu.Lock()
	if len(l.free) < l.keep {
		l.free = append(l.free, buf)
	}
	l.mu.Unlock()
}

// payloadPoison, when non-zero, is written over every receive buffer as it
// returns to its free list.
var payloadPoison atomic.Int32

// PoisonReturnedPayloads is a test seam for the packages that receive frames
// (0 turns it off): with it on, a receiver that said Done while anything
// still read the payload — a decoded block, a delivered string that was not
// copied — shows the byte instead of silently reading a later frame.
func PoisonReturnedPayloads(b byte) { payloadPoison.Store(int32(b)) }

// WriteFrame writes one frame to w and flushes. Exposed for protocols that
// reuse the msgq wire format outside a socket (e.g. the scalable monitor's
// recovery API).
func WriteFrame(w *bufio.Writer, m Message) error { return writeMessage(w, m) }

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r *bufio.Reader) (Message, error) { return readMessage(r) }
