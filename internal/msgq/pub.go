package msgq

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/pipeline"
)

// ErrClosed is returned by context-aware waits when the socket closes.
var ErrClosed = errors.New("msgq: socket closed")

// DefaultHWM is the default per-subscriber high-water mark (queued
// messages) for PUB sockets, mirroring ZeroMQ's send HWM.
const DefaultHWM = 10000

// Pub is a publish socket: every message is distributed to all connected
// subscribers whose subscription prefixes match the topic. Each subscriber
// has its own queue bounded by the high-water mark. A publisher waits on a
// full queue for at most pipeline.StallBound, then evicts the subscriber,
// which resumes from its own cursor (Message.LinkLost). The wait is
// unbounded for a subscriber with no cursor to resume from: every one under
// WithBlockOnFull (the collector→aggregator path, where the paper requires
// "no overall loss of events"), and a routed inbox (peer.evictable).
type Pub struct {
	mu          sync.Mutex
	hwm         int
	blockOnFull bool
	bound       []string
	listeners   []net.Listener
	inprocName  []string
	subs        map[*pubSubscriber]struct{}
	inproc      map[*inprocPeer]struct{}
	subChange   chan struct{} // closed+replaced on every attach/detach
	// attached is what a publish fans out to: an immutable copy of subs and
	// inproc, rebuilt on every attach/detach so the publish path neither
	// locks p.mu nor allocates.
	attached  atomic.Pointer[attachedSet]
	closed    chan struct{}
	closeOnce sync.Once
	evicted   atomic.Uint64
	published atomic.Uint64
	wg        sync.WaitGroup
	// inMu fences upstream deliveries (read side, which may wait on a full
	// inbox: each also waits on closed) against Close's closing inbox (write
	// side, after closed).
	inMu  sync.RWMutex
	inbox chan Message
}

type attachedSet struct {
	tcp   []*pubSubscriber
	peers []*inprocPeer
}

type pubSubscriber struct {
	peer
	conn     net.Conn
	queue    chan Message
	attached bool // its first echo request was answered: publishes reach it (guarded by Pub.mu)
}

func (s *pubSubscriber) stop() {
	s.peer.stop()
	s.conn.Close()
}

func (s *pubSubscriber) evict(*Pub) { s.stop() } // its reader and writer detach it

// PubOption configures a Pub socket.
type PubOption func(*Pub)

// WithHWM sets the per-subscriber high-water mark.
func WithHWM(n int) PubOption {
	return func(p *Pub) {
		if n > 0 {
			p.hwm = n
		}
	}
}

// WithBlockOnFull makes a full subscriber queue hold the publisher until
// there is room, the subscriber goes, the socket closes or ctx ends: never
// evict, for a subscriber that could not recover what it missed.
func WithBlockOnFull() PubOption {
	return func(p *Pub) { p.blockOnFull = true }
}

// NewPub creates an unbound publish socket.
func NewPub(opts ...PubOption) *Pub {
	p := &Pub{
		hwm:       DefaultHWM,
		subs:      make(map[*pubSubscriber]struct{}),
		inproc:    make(map[*inprocPeer]struct{}),
		subChange: make(chan struct{}),
		closed:    make(chan struct{}),
		inbox:     make(chan Message, 64), // hellos are control traffic; a full inbox holds up only the links sending
	}
	p.attached.Store(&attachedSet{})
	for _, o := range opts {
		o(p)
	}
	return p
}

// Bind makes the socket reachable at the endpoint. A socket may bind
// multiple endpoints.
func (p *Pub) Bind(ep string) error {
	e, err := parseEndpoint(ep)
	if err != nil {
		return err
	}
	switch e.kind {
	case epInproc:
		if err := inprocBind(e.addr, p); err != nil {
			return err
		}
		p.mu.Lock()
		p.inprocName = append(p.inprocName, e.addr)
		p.bound = append(p.bound, ep)
		p.mu.Unlock()
		return nil
	default:
		ln, err := net.Listen("tcp", e.addr)
		if err != nil {
			return fmt.Errorf("msgq: pub bind %s: %w", ep, err)
		}
		p.mu.Lock()
		p.listeners = append(p.listeners, ln)
		p.bound = append(p.bound, "tcp://"+ln.Addr().String())
		p.mu.Unlock()
		p.wg.Add(1)
		go p.acceptLoop(ln)
		return nil
	}
}

// Addr returns the first bound endpoint (with the real port for tcp://
// binds to port 0), or "" if unbound.
func (p *Pub) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bound) == 0 {
		return ""
	}
	return p.bound[0]
}

func (p *Pub) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sub := &pubSubscriber{peer: peer{prefixes: map[string]bool{}, gone: make(chan struct{})}, conn: conn, queue: make(chan Message, p.hwm)}
		p.mu.Lock()
		select {
		case <-p.closed:
			p.mu.Unlock()
			conn.Close()
			return
		default:
		}
		p.subs[sub] = struct{}{} // Close stops it; publishes skip it until attached
		p.mu.Unlock()
		p.wg.Add(1)
		go p.subReader(sub)
	}
}

// subReader applies the subscriber's control frames in order and hands its
// upstream frames to the inbox. An echo request is answered through the
// subscriber's own queue, behind whatever is queued for it already, so the
// answer proves every frame ahead of it applied. The first one attaches the
// subscriber — publishes reach it, and WaitSubscribed counts it, only from
// then on — and starts its writer, so that answer is the first frame on the
// wire. A reader waiting on a full queue or inbox lets go once the
// subscriber is evicted.
func (p *Pub) subReader(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	r := bufio.NewReader(sub.conn)
	for {
		m, err := readMessage(r)
		if err != nil {
			return
		}
		if !strings.HasPrefix(m.Topic, ctlMark) {
			if p.upstream(m, sub.gone) != nil {
				return
			}
			continue
		}
		if m.Topic != ctlEcho {
			sub.control(m.Topic, string(m.Payload))
			continue
		}
		select {
		case sub.queue <- m:
		case <-sub.gone:
			return
		}
		p.mu.Lock()
		first := !sub.attached
		if first {
			sub.attached = true
			p.notifySubChangeLocked()
		}
		p.mu.Unlock()
		if first {
			p.wg.Add(1)
			go p.subWriter(sub)
		}
	}
}

// subWriter drains the subscriber queue onto the wire. A leased frame's
// payload is the block's own wire image, so the queue's reference is dropped
// only once the frame has been written (or has failed to be), or — still
// queued when the subscriber goes — by detach.
func (p *Pub) subWriter(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	w := bufio.NewWriterSize(sub.conn, 64<<10)
	for {
		select {
		case <-sub.gone:
			return
		case m := <-sub.queue:
			// Drain whatever else is queued before blocking in the select
			// again. writeMessage flushes every frame, so this saves
			// wake-ups, not syscalls; holding the flush until the queue is
			// empty was measured as no gain on the TCP journey
			// (EXPERIMENTS.md, PR 20), so each frame goes out at once.
			for more := true; more; {
				err := writeMessage(w, m)
				m.Done()
				if err != nil {
					return
				}
				select {
				case m = <-sub.queue:
				default:
					more = false
				}
			}
		}
	}
}

func (p *Pub) detach(sub *pubSubscriber) {
	sub.stop()
	p.mu.Lock()
	delete(p.subs, sub)
	p.notifySubChangeLocked()
	p.mu.Unlock()
	for { // frames it will never write go back to their leases
		select {
		case m := <-sub.queue:
			m.Done()
		default:
			return
		}
	}
}

// attachInproc attaches an in-process subscriber.
func (p *Pub) attachInproc(peer *inprocPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inproc[peer] = struct{}{}
	p.notifySubChangeLocked()
}

// Inbox returns the frames subscribers send upstream (Sub.Send), each
// link's in the order sent. It exists from NewPub, so no frame that arrives
// before its owner starts reading is lost. Delivery is lossless: a frame
// waits for room, holding up only the link it came on (in process, the
// sender), until the link or the socket goes. The channel closes when the
// socket does.
func (p *Pub) Inbox() <-chan Message { return p.inbox }

// upstream hands one upstream frame to the inbox, and fails only when gone
// (the link's) or the socket closes first.
func (p *Pub) upstream(m Message, gone <-chan struct{}) error {
	p.inMu.RLock()
	defer p.inMu.RUnlock()
	select {
	case <-p.closed: // Close may have closed the inbox already
		return ErrClosed
	default:
	}
	select {
	case p.inbox <- m:
		return nil
	case <-gone:
	case <-p.closed:
	}
	return ErrClosed
}

// detachInproc removes an in-process peer.
func (p *Pub) detachInproc(peer *inprocPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inproc, peer)
	p.notifySubChangeLocked()
}

// notifySubChangeLocked publishes the new attached set and wakes
// WaitSubscribed callers. Caller holds p.mu.
func (p *Pub) notifySubChangeLocked() {
	set := &attachedSet{
		tcp:   make([]*pubSubscriber, 0, len(p.subs)),
		peers: make([]*inprocPeer, 0, len(p.inproc)),
	}
	for s := range p.subs {
		if s.attached {
			set.tcp = append(set.tcp, s)
		}
	}
	for q := range p.inproc {
		set.peers = append(set.peers, q)
	}
	p.attached.Store(set)
	close(p.subChange)
	p.subChange = make(chan struct{})
}

// WaitSubscribed blocks until the socket has at least one attached
// subscriber (either transport; over TCP, one whose subscriptions are
// applied), the context is canceled, or the socket closes. It is
// event-driven — collectors gate Changelog consumption on it so unconsumed
// events buffer source-side with no sleep/poll loop.
func (p *Pub) WaitSubscribed(ctx context.Context) error {
	for {
		p.mu.Lock()
		set, change := p.attached.Load(), p.subChange
		p.mu.Unlock()
		if len(set.tcp)+len(set.peers) > 0 {
			return nil
		}
		select {
		case <-change:
		case <-ctx.Done():
			return ctx.Err()
		case <-p.closed:
			return ErrClosed
		}
	}
}

// Publish distributes the message to all matching subscribers.
func (p *Pub) Publish(topic string, payload []byte) {
	p.PublishCtx(context.Background(), topic, payload)
}

// PublishCtx distributes the message to all matching subscribers and
// returns how many queues accepted it. A full subscriber queue exerts
// backpressure (offer); canceling ctx unwinds the wait, over either
// transport — that subscriber simply misses the message, reflected in the
// count.
func (p *Pub) PublishCtx(ctx context.Context, topic string, payload []byte) int {
	return p.fanout(ctx, Message{Topic: topic, Payload: payload})
}

// PublishBlockCtx distributes an event block to all matching subscribers.
// It is the zero-copy form of PublishCtx: in-process subscribers receive
// the Block pointer itself and nothing else (decode-never, and the wire
// image is not built on their account), TCP subscribers receive its wire
// image, and when no TCP subscriber matches the topic that image is never
// materialized.
//
// It returns how many queues accepted the message and whether any
// subscriber now shares the block's memory — the pointer itself for
// in-process peers, the wire image's backing array for queued TCP sends.
// Once shared is true the block is frozen for good: nothing reports when
// the receivers are finished, so the caller must never mutate or recycle
// it (PublishLeasedCtx is the form that gets the block back). When shared
// is false the caller retains exclusive ownership.
func (p *Pub) PublishBlockCtx(ctx context.Context, topic string, blk *events.Block) (delivered int, shared bool) {
	delivered = p.PublishLeasedCtx(ctx, topic, blk, nil, Message{})
	return delivered, delivered > 0
}

// PublishLeasedCtx is PublishBlockCtx with the block on loan: every queue
// that accepts the frame holds one reference, each receiver drops its own
// with Message.Done (a TCP subscriber's is dropped once its writer has put
// the wire image on the connection), and when the last one goes release is
// called with blk — the publisher's Reset-and-pool hook, which must be
// safe to call from any goroutine. parent is the received message whose
// memory blk aliases (a seq-only clone of its Block, a decode of its
// Payload), or the zero Message: it is Done right after release has run,
// never before, so an upstream publisher cannot refill bytes blk still
// points into. A nil release lends nothing: the block (and parent) is
// shared for good, as PublishBlockCtx documents.
//
// A zero result means no queue accepted the frame and nothing changed
// hands: the caller still owns blk and still owes parent its Done.
// Otherwise both now belong to the transport and the caller must not touch
// blk again — not even to read its length.
func (p *Pub) PublishLeasedCtx(ctx context.Context, topic string, blk *events.Block, release func(*events.Block), parent Message) int {
	if release == nil {
		return p.fanout(ctx, Message{Topic: topic, Block: blk})
	}
	ls := newLease(blk, release, parent.lease)
	delivered := p.fanout(ctx, Message{Topic: topic, Block: blk, lease: ls})
	if delivered == 0 {
		ls.retire()
		return 0
	}
	ls.done() // the publisher's own reference
	return delivered
}

// fanout is the one delivery loop behind every publish: offer m to each
// attached queue whose subscription matches and count the ones that took
// it. A block message reaches TCP subscribers as its wire image and
// in-process peers as the pointer alone.
func (p *Pub) fanout(ctx context.Context, m Message) (delivered int) {
	p.published.Add(1)
	set := p.attached.Load()
	// TCP first: Wire caches the image inside the block, which must happen
	// before any in-process peer shares (and so freezes) it.
	blk := m.Block
	m.Block = nil
	for _, s := range set.tcp {
		if !s.matches(m.Topic) {
			continue
		}
		if blk != nil && m.Payload == nil {
			m.Payload = blk.Wire()
		}
		if p.offer(ctx, s.queue, s, m) {
			delivered++
		}
	}
	if blk != nil {
		m.Payload, m.Block = nil, blk
	}
	for _, q := range set.peers {
		if !q.matches(m.Topic) {
			continue
		}
		// The read lock orders the send before the Sub's close(out); Close
		// stops its peers first, so an offer waiting on one lets go.
		s := q.sub
		s.outMu.RLock()
		if !s.outClosed && p.offer(ctx, s.out, q, m) {
			delivered++
		}
		s.outMu.RUnlock()
	}
	return delivered
}

// stallTimers pool the offers' stall-bound timers: a wait allocates nothing.
var stallTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// offer puts m in one subscriber's queue, over either transport, and reports
// whether it went in. A full queue holds the publisher until the subscriber
// or the socket goes or ctx ends, and for at most pipeline.StallBound (unless
// blockOnFull, or to is not evictable), then evicts it. A leased m gains a
// reference first (the receiver may be done with it before the offer
// returns), given back if refused.
func (p *Pub) offer(ctx context.Context, queue chan<- Message, to subscriber, m Message) bool {
	m.lease.retain()
	select {
	case queue <- m:
		return true
	default:
	}
	var t *time.Timer
	var bound <-chan time.Time
	if !p.blockOnFull && to.evictable() {
		t = stallTimers.Get().(*time.Timer)
		t.Reset(pipeline.StallBound)
		bound = t.C
	}
	ok := false
	select {
	case queue <- m:
		ok = true
	case <-bound:
		p.evicted.Add(1)
		to.evict(p)
	case <-to.done():
	case <-p.closed:
	case <-ctx.Done():
	}
	if t != nil {
		if !t.Stop() {
			select { // a fire that lost the race: drain it before reuse
			case <-t.C:
			default:
			}
		}
		stallTimers.Put(t)
	}
	if !ok {
		m.lease.unretain()
	}
	return ok
}

// Subscribers returns the number of attached subscribers (both transports;
// over TCP, those whose subscriptions are applied).
func (p *Pub) Subscribers() int {
	set := p.attached.Load()
	return len(set.tcp) + len(set.peers)
}

// Queued returns how many messages wait for each attached subscriber: the
// send queue of each TCP subscriber, then the receive buffer of each
// in-process one.
func (p *Pub) Queued() []int {
	set := p.attached.Load()
	n := make([]int, 0, len(set.tcp)+len(set.peers))
	for _, s := range set.tcp {
		n = append(n, len(s.queue))
	}
	for _, q := range set.peers {
		n = append(n, q.sub.Depth())
	}
	return n
}

// Evicted returns how many subscribers were evicted for outstaying the
// stall bound on a full queue.
func (p *Pub) Evicted() uint64 { return p.evicted.Load() }

// Published returns the number of Publish calls.
func (p *Pub) Published() uint64 { return p.published.Load() }

// Close shuts the socket down, disconnecting subscribers.
func (p *Pub) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.mu.Lock()
		for _, ln := range p.listeners {
			ln.Close()
		}
		for _, name := range p.inprocName {
			inprocUnbind(name)
		}
		for s := range p.subs {
			s.stop() // its reader and writer detach once the lock is free
		}
		p.inproc = map[*inprocPeer]struct{}{}
		p.notifySubChangeLocked()
		p.mu.Unlock()
		p.wg.Wait()
		// Every upstream delivery has seen closed and let go of inMu.
		p.inMu.Lock()
		close(p.inbox)
		p.inMu.Unlock()
	})
}
