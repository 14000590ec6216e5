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

	"fsmonitor/internal/events"
)

// ErrClosed is returned by context-aware waits when the socket closes.
var ErrClosed = errors.New("msgq: socket closed")

// DefaultHWM is the default per-subscriber high-water mark (queued
// messages) for PUB sockets, mirroring ZeroMQ's send HWM.
const DefaultHWM = 10000

// Pub is a publish socket: every message is distributed to all connected
// subscribers whose subscription prefixes match the topic. Each subscriber
// has its own queue bounded by the high-water mark; when a subscriber
// cannot keep up the publisher either drops messages for that subscriber
// (ZeroMQ semantics, the default) or blocks (lossless backpressure, used
// by the collector→aggregator path where the paper requires "no overall
// loss of events").
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
	dropped   atomic.Uint64
	published atomic.Uint64
	wg        sync.WaitGroup
}

type attachedSet struct {
	tcp   []*pubSubscriber
	peers []*inprocPeer
}

type pubSubscriber struct {
	conn     net.Conn
	queue    chan Message
	prefixes map[string]bool
	mu       sync.Mutex
	done     chan struct{}
	once     sync.Once
}

func (s *pubSubscriber) matches(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.prefixes {
		if strings.HasPrefix(topic, p) {
			return true
		}
	}
	return false
}

func (s *pubSubscriber) stop() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

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

// WithBlockOnFull makes Publish block instead of dropping when a
// subscriber queue is full.
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
		sub := &pubSubscriber{
			conn:     conn,
			queue:    make(chan Message, p.hwm),
			prefixes: make(map[string]bool),
			done:     make(chan struct{}),
		}
		p.mu.Lock()
		select {
		case <-p.closed:
			p.mu.Unlock()
			conn.Close()
			return
		default:
		}
		p.subs[sub] = struct{}{}
		p.notifySubChangeLocked()
		p.mu.Unlock()
		p.wg.Add(2)
		go p.subReader(sub)
		go p.subWriter(sub)
	}
}

// subReader processes SUB/UNSUB control frames from the subscriber.
func (p *Pub) subReader(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	r := bufio.NewReader(sub.conn)
	for {
		m, err := readMessage(r)
		if err != nil {
			return
		}
		switch m.Topic {
		case ctlSubscribe:
			sub.mu.Lock()
			sub.prefixes[string(m.Payload)] = true
			sub.mu.Unlock()
		case ctlUnsubscribe:
			sub.mu.Lock()
			delete(sub.prefixes, string(m.Payload))
			sub.mu.Unlock()
		}
	}
}

// subWriter drains the subscriber queue onto the wire. A leased frame's
// payload is the block's own wire image, so the queue's reference is dropped
// only once the frame has been written (or has failed to be): frames still
// queued when the subscriber goes away are never Done and fall to the GC.
func (p *Pub) subWriter(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	w := bufio.NewWriterSize(sub.conn, 64<<10)
	for {
		select {
		case <-sub.done:
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
}

// attachInproc implements inprocBindable.
func (p *Pub) attachInproc(peer *inprocPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inproc[peer] = struct{}{}
	p.notifySubChangeLocked()
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
		set.tcp = append(set.tcp, s)
	}
	for q := range p.inproc {
		set.peers = append(set.peers, q)
	}
	p.attached.Store(set)
	close(p.subChange)
	p.subChange = make(chan struct{})
}

// WaitSubscribed blocks until the socket has at least one attached
// subscriber (either transport), the context is canceled, or the socket
// closes. It is event-driven — collectors gate Changelog consumption on
// it so unconsumed events buffer source-side with no sleep/poll loop.
func (p *Pub) WaitSubscribed(ctx context.Context) error {
	for {
		p.mu.Lock()
		n := len(p.subs) + len(p.inproc)
		change := p.subChange
		p.mu.Unlock()
		if n > 0 {
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
// returns how many queues accepted it. Under blockOnFull a full
// subscriber queue exerts backpressure; canceling ctx unwinds the blocked
// send (that subscriber simply misses the message, reflected in the
// count).
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
// in-process peers as the pointer alone. A leased message gains one
// reference per accepting queue, taken before the offer (the receiver may
// be done with it before the offer returns) and given back if it is
// refused.
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
		if p.offer(ctx, s, m) {
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
		m.lease.retain()
		if q.deliver(m) {
			delivered++
		} else {
			m.lease.unretain()
			p.dropped.Add(1)
		}
	}
	return delivered
}

// offer queues m for one TCP subscriber: blocking under blockOnFull until
// the subscriber, the socket or ctx goes away, dropping on a full queue
// otherwise.
func (p *Pub) offer(ctx context.Context, s *pubSubscriber, m Message) bool {
	m.lease.retain()
	if p.blockOnFull {
		select {
		case s.queue <- m:
			return true
		case <-s.done:
		case <-p.closed:
		case <-ctx.Done():
		}
	} else {
		select {
		case s.queue <- m:
			return true
		default:
			p.dropped.Add(1)
		}
	}
	m.lease.unretain()
	return false
}

// Subscribers returns the number of attached subscribers (both transports).
func (p *Pub) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs) + len(p.inproc)
}

// Dropped returns messages dropped due to full subscriber queues.
func (p *Pub) Dropped() uint64 { return p.dropped.Load() }

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
		subs := make([]*pubSubscriber, 0, len(p.subs))
		for s := range p.subs {
			subs = append(subs, s)
		}
		p.inproc = map[*inprocPeer]struct{}{}
		p.notifySubChangeLocked()
		p.mu.Unlock()
		for _, s := range subs {
			s.stop()
		}
		p.wg.Wait()
	})
}
