package msgq

import (
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
)

// lease is the exact reference count on memory the transport lent out, in
// one of two shapes. A published block (Pub.PublishLeasedCtx): one reference
// per subscriber queue that accepted the frame, dropped by Message.Done; at
// zero the publisher's release hook takes the block back and then the parent
// reference — the upstream message whose memory the block aliased — is
// dropped in turn, so a chain of clones unwinds strictly downstream-first.
// Or a frame read from a TCP connection (frameReader): the receiver's single
// reference on the payload buffer, which at zero goes back to home, the free
// list of the connection that filled it. A publisher's lease never crosses
// the wire; a received frame carries its connection's.
//
// The count lives here, not on the Block: events.Block has no notion of
// sharing, and only the transport knows how many queues hold a frame.
type lease struct {
	refs    atomic.Int32
	blk     *events.Block
	release func(*events.Block)
	parent  *lease
	// A received frame's lease holds these two instead of blk and release.
	buf  []byte
	home *bufList
}

// leasePool recycles lease records, so a leased publish allocates nothing.
var leasePool = sync.Pool{New: func() any { return new(lease) }}

func newLease(blk *events.Block, release func(*events.Block), parent *lease) *lease {
	l := leasePool.Get().(*lease)
	l.blk, l.release, l.parent = blk, release, parent
	// The publisher's own reference: held across the fan-out so a receiver
	// that finishes before the last enqueue cannot release the block early.
	l.refs.Store(1)
	return l
}

// newFrameLease is the receiver's one reference on a payload buffer taken
// from home.
func newFrameLease(buf []byte, home *bufList) *lease {
	l := leasePool.Get().(*lease)
	l.buf, l.home = buf, home
	l.refs.Store(1)
	return l
}

// retain and unretain bracket one queue's offer during the fan-out; both are
// no-ops on the nil lease of an unleased message. unretain can never reach
// zero: the publisher's reference is still held.
func (l *lease) retain() {
	if l != nil {
		l.refs.Add(1)
	}
}

func (l *lease) unretain() {
	if l != nil {
		l.refs.Add(-1)
	}
}

// retire returns the record to the pool without running anything: after the
// last Done has read it, or for a publish nobody accepted — the caller then
// keeps the block and the parent reference.
func (l *lease) retire() {
	l.blk, l.release, l.parent, l.buf, l.home = nil, nil, nil, nil, nil
	l.refs.Store(0)
	leasePool.Put(l)
}

// done drops one reference; the last one releases the block (or returns the
// payload buffer), then walks up the parent chain.
func (l *lease) done() {
	for l != nil {
		switch n := l.refs.Add(-1); {
		case n > 0:
			return
		case n < 0:
			panic("msgq: Message.Done called more than once for one received message")
		}
		blk, release, parent, buf, home := l.blk, l.release, l.parent, l.buf, l.home
		l.retire()
		if home != nil {
			home.put(buf)
		} else {
			release(blk)
		}
		l = parent
	}
}

// Done tells the transport the receiver is finished with the message: it
// will not read m.Block, m.Payload or anything aliasing them — a block
// decoded over the payload, a view of one — again. Call it exactly once per
// received message, after the last such read. In process it drops the
// receiver's reference on the publisher's block; for a frame a Sub read from
// a TCP connection it hands the payload buffer back to that connection,
// which reads a later frame into it. A message that carries no lease
// (PublishCtx, PublishBlockCtx, ReadFrame, Pub.Inbox) ignores it, so
// receivers call it unconditionally.
//
// The asymmetry callers rely on: a missing Done only leaves the memory to
// the garbage collector — the publisher's pool builds a fresh block, the
// connection allocates a fresh buffer — while an early or repeated Done lets
// the owner refill memory a reader still holds. When in doubt, do not call
// it.
func (m Message) Done() {
	if m.lease != nil {
		m.lease.done()
	}
}
