package msgq

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sub is a subscribe socket. It connects to one or more publishers,
// registers topic-prefix subscriptions, and fans all matching messages
// into a single receive channel. A link that ends other than by Close is
// reported in band (Message.LinkLost), then re-established with backoff and
// its subscriptions replayed. A payload read from a TCP connection is on
// loan from it until the receiver's Message.Done (see Message); a receiver
// that never says Done costs an allocation per frame and nothing else.
type Sub struct {
	mu        sync.Mutex
	prefixes  map[string]bool
	conns     map[string]*subConn // endpoint -> connection state
	out       chan Message
	outMu     sync.RWMutex // serializes inproc deliveries vs close(out)
	outClosed bool
	readyCh   chan struct{} // closed+replaced on every readiness change
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	received  atomic.Uint64
}

type subConn struct {
	ep     endpoint
	raw    net.Conn
	notify func() // wakes the owning Sub's readiness waiters
	mu     sync.Mutex
	wmu    sync.Mutex  // tcp only: one writer of control and upstream frames at a time
	peer   *inprocPeer // inproc only
	pub    *Pub        // inproc only
	bufs   *bufList    // tcp only: the current connection's receive buffers
	echo   uint64      // tcp only: the token of the last echo request sent
	ready  bool
	lost   bool // a link ended and none has come back since (connLoop's own)
}

func (c *subConn) setReady(v bool) {
	c.mu.Lock()
	c.ready = v
	c.mu.Unlock()
	c.notify()
}

func (c *subConn) isReady() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// SubOption configures a Sub socket.
type SubOption func(*Sub)

// WithRecvBuffer sets the receive channel capacity (default DefaultHWM).
func WithRecvBuffer(n int) SubOption {
	return func(s *Sub) {
		if n > 0 {
			s.out = make(chan Message, n)
		}
	}
}

// NewSub creates a subscribe socket.
func NewSub(opts ...SubOption) *Sub {
	s := &Sub{
		prefixes: make(map[string]bool),
		conns:    make(map[string]*subConn),
		readyCh:  make(chan struct{}),
		closed:   make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.out == nil {
		s.out = make(chan Message, DefaultHWM)
	}
	return s
}

// Connect attaches the socket to a publisher endpoint. Connecting before
// the publisher binds is allowed; the connection is retried until it
// succeeds or the socket closes. On a closed socket it returns ErrClosed.
func (s *Sub) Connect(ep string) error {
	e, err := parseEndpoint(ep)
	if err != nil {
		return err
	}
	c := &subConn{ep: e, notify: s.notifyReady}
	// The closed check and wg.Add share the critical section that inserts
	// the conn: Close takes s.mu after closing s.closed and before wg.Wait,
	// so a Connect racing it either sees closed or is counted before the
	// Wait — never an Add beside a Wait, never a loop on a closed socket.
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if _, dup := s.conns[ep]; dup {
		return nil
	}
	s.conns[ep] = c
	s.wg.Add(1)
	go s.connLoop(c)
	return nil
}

// Subscribe registers interest in topics beginning with prefix. The empty
// prefix matches everything.
func (s *Sub) Subscribe(prefix string) { s.control(ctlSubscribe, prefix) }

// Unsubscribe removes a prefix subscription.
func (s *Sub) Unsubscribe(prefix string) { s.control(ctlUnsubscribe, prefix) }

// control applies a SUB or UNSUB to the socket and each of its links.
func (s *Sub) control(ctl, prefix string) {
	s.mu.Lock()
	setPrefix(s.prefixes, ctl, prefix)
	conns := make([]*subConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		raw := c.raw
		c.mu.Unlock()
		if raw != nil && c.sendCtl(raw, ctl, prefix) != nil {
			raw.Close() // the link ends; the next one replays every prefix
		}
		if c.peer != nil {
			c.peer.control(ctl, prefix)
		}
	}
}

// sendCtl writes a ctl frame per prefix onto the link's connection, then an
// echo request, and marks the link not ready until the answer to that
// request is back (echoed).
func (c *subConn) sendCtl(conn net.Conn, ctl string, prefixes ...string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	c.echo++
	token := c.echo
	c.ready = false
	c.mu.Unlock()
	w := bufio.NewWriter(conn)
	for _, p := range prefixes {
		if err := writeMessage(w, Message{Topic: ctl, Payload: []byte(p)}); err != nil {
			return err
		}
	}
	return writeMessage(w, Message{Topic: ctlEcho, Payload: binary.LittleEndian.AppendUint64(nil, token)})
}

// echoed takes the answer to an echo request: the link is ready when it
// answers the last one sent.
func (c *subConn) echoed(m Message) {
	c.mu.Lock()
	last := len(m.Payload) == 8 && binary.LittleEndian.Uint64(m.Payload) == c.echo
	if last {
		c.ready = true
	}
	c.mu.Unlock()
	if last {
		c.notify()
	}
}

// Send sends one frame upstream on the link Connect(ep) made, to the
// publisher's owner (Pub.Inbox); only Topic and Payload travel, and the
// topic must not start with "\x01". It refuses unless the link is ready, so
// a frame never overtakes the subscriptions a reconnect replays ahead of it
// and the publisher has attached the link by the time it reads the frame.
// Over TCP it returns once the frame is written; in process, once the inbox
// takes it (the link or either socket going lets it go).
func (s *Sub) Send(ep string, m Message) error {
	if strings.HasPrefix(m.Topic, ctlMark) {
		return fmt.Errorf("msgq: topic %q is reserved for control frames", m.Topic)
	}
	m = Message{Topic: m.Topic, Payload: m.Payload}
	s.mu.Lock()
	c := s.conns[ep]
	var q *inprocPeer
	var pub *Pub
	if c != nil {
		q, pub = c.peer, c.pub
	}
	s.mu.Unlock()
	switch {
	case c == nil:
		return fmt.Errorf("msgq: no link to %s", ep)
	case pub != nil && c.isReady(): // in process the attach comes before ready
		return pub.upstream(m, q.gone)
	case pub != nil:
		return fmt.Errorf("msgq: link to %s not ready", ep)
	}
	c.wmu.Lock() // after sendCtl's frames, which make a new connection not ready
	defer c.wmu.Unlock()
	c.mu.Lock()
	ready, raw := c.ready, c.raw
	c.mu.Unlock()
	if !ready || raw == nil {
		return fmt.Errorf("msgq: link to %s not ready", ep)
	}
	if err := writeMessage(bufio.NewWriter(raw), m); err != nil {
		raw.Close() // the link ends, as a failed SUB ends it
		return err
	}
	return nil
}

// C returns the receive channel. It is closed when the socket closes.
func (s *Sub) C() <-chan Message { return s.out }

// Recv receives the next message, unblocking when ctx is canceled. ok is
// false when the socket closed (after any buffered messages drained) or
// the context ended.
func (s *Sub) Recv(ctx context.Context) (m Message, ok bool) {
	select {
	case m, ok = <-s.out:
		return m, ok
	case <-ctx.Done():
		return Message{}, false
	}
}

// notifyReady wakes WaitReady/WaitAnyReady callers.
func (s *Sub) notifyReady() {
	s.mu.Lock()
	close(s.readyCh)
	s.readyCh = make(chan struct{})
	s.mu.Unlock()
}

// linkLost is the topic of a Sub's link-loss report; it never crosses the
// wire.
const linkLost = "\x02LINK-LOST"

// LinkLost reports whether m is a Sub's report that a link ended other than
// by Close (evicted for lagging, publisher closed, connection broken) — it
// comes behind the link's last frame — or that the link is back: ahead of
// what it carries, in process before the attach and over TCP on the
// publisher's first echo answer, which comes before any frame of the link.
// A receiver that must miss nothing resumes from its cursor on each.
func (m Message) LinkLost() bool { return m.Topic == linkLost }

// report queues a link report unless the socket is closing, and records
// whether c is lost. It waits for room, so a receiver that stays stalled is
// never re-linked to stall again.
func (s *Sub) report(c *subConn, lost bool) {
	c.lost = lost
	select {
	case <-s.closed:
		return
	default:
	}
	select {
	case s.out <- Message{Topic: linkLost}:
	case <-s.closed:
	}
}

// connLoop maintains one endpoint connection across failures. Retries
// use capped exponential backoff with jitter so a flock of subscribers
// chasing one restarting publisher (cluster join, node replacement)
// doesn't redial in lockstep; a link that was up starts the backoff over.
func (s *Sub) connLoop(c *subConn) {
	defer s.wg.Done()
	retry := newBackoff(10*time.Millisecond, time.Second)
	for {
		var linked bool
		if c.ep.kind == epInproc {
			linked = s.runInproc(c)
		} else {
			linked = s.runTCP(c)
		}
		if linked {
			retry.reset()
		}
		select {
		case <-s.closed:
			return
		case <-time.After(retry.next()):
		}
	}
}

// runInproc attaches to an in-process publisher until the link ends and
// reports whether it was ever up.
func (s *Sub) runInproc(c *subConn) bool {
	pub, found := inprocLookup(c.ep.addr)
	if !found {
		return false
	}
	q := &inprocPeer{peer: peer{prefixes: map[string]bool{}, gone: make(chan struct{})}, sub: s}
	s.mu.Lock()
	for p := range s.prefixes {
		q.control(ctlSubscribe, p)
	}
	c.peer = q
	c.pub = pub
	s.mu.Unlock()
	if c.lost { // ahead of the attach, which is synchronous: ready is proof
		s.report(c, false)
	}
	pub.attachInproc(q)
	c.setReady(true)
	// Stay attached until the socket or the publisher closes, or evicts us.
	select {
	case <-s.closed:
	case <-pub.closed:
	case <-q.gone:
	}
	c.setReady(false)
	q.evict(pub)
	s.mu.Lock()
	c.peer, c.pub = nil, nil
	s.mu.Unlock()
	s.report(c, true)
	return true
}

// WaitReady blocks until every connected endpoint has a link whose
// publisher has applied every subscription sent on it — over TCP, the
// answer to the link's last echo request is back — or the timeout elapses.
// PUB/SUB has no delivery guarantee for messages published before a
// subscriber attaches (the ZeroMQ "slow joiner"); callers that must not
// miss the first messages wait for readiness before triggering them, and
// a Subscribe on a ready link makes it not ready until it is applied.
func (s *Sub) WaitReady(timeout time.Duration) error { return s.waitReady(timeout, "", true) }

// WaitAnyReady blocks until at least one connected endpoint is ready, or
// the timeout elapses. Used when some publishers may come up later (e.g.
// an aggregator whose collectors restart independently).
func (s *Sub) WaitAnyReady(timeout time.Duration) error { return s.waitReady(timeout, "", false) }

// WaitEndpointReady is WaitReady for the one link Connect(ep) made.
func (s *Sub) WaitEndpointReady(ep string, timeout time.Duration) error {
	return s.waitReady(timeout, ep, true)
}

// waitReady waits on the links to every endpoint, or to ep alone when set.
func (s *Sub) waitReady(timeout time.Duration, ep string, all bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		ready, n := 0, 0
		for e, c := range s.conns {
			if ep != "" && e != ep {
				continue
			}
			n++
			if c.isReady() {
				ready++
			}
		}
		change := s.readyCh
		s.mu.Unlock()
		if ready > 0 && (ready == n || !all) {
			return nil
		}
		select {
		case <-change:
		case <-deadline.C:
			return fmt.Errorf("msgq: sub not ready after %v", timeout)
		case <-s.closed:
			return fmt.Errorf("msgq: sub closed")
		}
	}
}

// runTCP serves one TCP connection lifetime and reports whether the link
// was ever up: whether an echo answer came back on it.
func (s *Sub) runTCP(c *subConn) (up bool) {
	conn, err := net.DialTimeout("tcp", c.ep.addr, 2*time.Second)
	if err != nil {
		return false
	}
	// Every connection starts a free list of its own: a buffer a receiver
	// still holds from the previous one is never refilled under it.
	fr := frameReader{r: bufio.NewReaderSize(conn, 64<<10), bufs: &bufList{}}
	// Close closes the conn it finds here; one it would miss sees closed.
	c.mu.Lock()
	c.raw, c.bufs = conn, fr.bufs
	c.mu.Unlock()
	defer func() {
		conn.Close()
		c.mu.Lock()
		c.raw = nil
		c.mu.Unlock()
		c.setReady(false)
		if up {
			s.report(c, true)
		}
	}()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.mu.Lock()
	prefixes := make([]string, 0, len(s.prefixes))
	for p := range s.prefixes {
		prefixes = append(prefixes, p)
	}
	s.mu.Unlock()
	if c.sendCtl(conn, ctlSubscribe, prefixes...) != nil {
		return false
	}
	for {
		m, err := fr.next()
		if err != nil {
			return up
		}
		if m.Topic == ctlEcho {
			if c.lost { // the first answer: the publisher has attached the link
				s.report(c, false)
			}
			up = true
			c.echoed(m)
			continue
		}
		s.received.Add(1)
		select {
		case s.out <- m:
		case <-s.closed:
			return up
		}
	}
}

// Depth returns the current receive-channel backlog — the queue-depth
// signal a deployment watches to spot a consumer falling behind.
func (s *Sub) Depth() int { return len(s.out) }

// Cap returns the receive-channel capacity.
func (s *Sub) Cap() int { return cap(s.out) }

// Received returns messages received over TCP connections.
func (s *Sub) Received() uint64 { return s.received.Load() }

// Close disconnects and closes the receive channel.
func (s *Sub) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		for _, c := range s.conns {
			c.mu.Lock()
			if c.raw != nil {
				c.raw.Close()
			}
			c.mu.Unlock()
			if c.pub != nil {
				c.pub.detachInproc(c.peer)
				c.peer.stop() // a publisher waiting on this peer's room lets go
			}
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.outMu.Lock()
		s.outClosed = true
		s.outMu.Unlock()
		close(s.out)
	})
}
