package msgq

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Sub is a subscribe socket. It connects to one or more publishers,
// registers topic-prefix subscriptions, and fans all matching messages
// into a single receive channel. Lost TCP connections are re-established
// with backoff, and subscriptions are replayed on reconnect. A payload read
// from a TCP connection is on loan from it until the receiver's
// Message.Done (see Message); a receiver that never says Done costs an
// allocation per frame and nothing else.
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
	peer   *inprocPeer // inproc only
	pub    *Pub        // inproc only
	bufs   *bufList    // tcp only: the current connection's receive buffers
	ready  bool
}

func (c *subConn) setReady(v bool) {
	c.mu.Lock()
	c.ready = v
	c.mu.Unlock()
	if c.notify != nil {
		c.notify()
	}
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
func (s *Sub) Subscribe(prefix string) {
	s.mu.Lock()
	s.prefixes[prefix] = true
	conns := s.snapshotConns()
	s.mu.Unlock()
	for _, c := range conns {
		c.sendCtl(ctlSubscribe, prefix)
		if c.peer != nil {
			c.peer.subscribe(prefix)
		}
	}
}

// Unsubscribe removes a prefix subscription.
func (s *Sub) Unsubscribe(prefix string) {
	s.mu.Lock()
	delete(s.prefixes, prefix)
	conns := s.snapshotConns()
	s.mu.Unlock()
	for _, c := range conns {
		c.sendCtl(ctlUnsubscribe, prefix)
		if c.peer != nil {
			c.peer.unsubscribe(prefix)
		}
	}
}

func (s *Sub) snapshotConns() []*subConn {
	out := make([]*subConn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	return out
}

func (c *subConn) sendCtl(topic, prefix string) {
	c.mu.Lock()
	raw := c.raw
	c.mu.Unlock()
	if raw == nil {
		return
	}
	w := bufio.NewWriter(raw)
	_ = writeMessage(w, Message{Topic: topic, Payload: []byte(prefix)})
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

// connLoop maintains one endpoint connection across failures. Retries
// use capped exponential backoff with jitter so a flock of subscribers
// chasing one restarting publisher (cluster join, node replacement)
// doesn't redial in lockstep.
func (s *Sub) connLoop(c *subConn) {
	defer s.wg.Done()
	retry := newBackoff(10*time.Millisecond, time.Second)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		ok := false
		if c.ep.kind == epInproc {
			ok = s.runInproc(c)
		} else {
			ok = s.runTCP(c)
		}
		if !ok {
			select {
			case <-s.closed:
				return
			case <-time.After(retry.next()):
			}
			continue
		}
		retry.reset()
	}
}

// runInproc attaches to an in-process publisher; returns false to retry.
func (s *Sub) runInproc(c *subConn) bool {
	b, found := inprocLookup(c.ep.addr)
	if !found {
		return false
	}
	pub, isPub := b.(*Pub)
	if !isPub {
		return false
	}
	peer := &inprocPeer{prefixes: map[string]bool{}}
	peer.deliver = func(m Message) bool {
		// A publisher may call deliver from its own goroutine after this
		// peer detached (it snapshots peers before sending); the read
		// lock keeps such stragglers ordered before close(s.out).
		s.outMu.RLock()
		defer s.outMu.RUnlock()
		if s.outClosed {
			return false
		}
		select {
		case s.out <- m:
			return true
		case <-s.closed:
			return false
		}
	}
	s.mu.Lock()
	for p := range s.prefixes {
		peer.prefixes[p] = true
	}
	c.peer = peer
	c.pub = pub
	s.mu.Unlock()
	pub.attachInproc(peer)
	c.setReady(true)
	// Stay attached until the socket or the publisher closes.
	select {
	case <-s.closed:
		c.setReady(false)
		pub.detachInproc(peer)
		return true
	case <-pub.closed:
		c.setReady(false)
		pub.detachInproc(peer)
		s.mu.Lock()
		c.peer, c.pub = nil, nil
		s.mu.Unlock()
		return false
	}
}

// WaitReady blocks until every connected endpoint has an established,
// subscription-replayed link to its publisher, or the timeout elapses.
// PUB/SUB has no delivery guarantee for messages published before a
// subscriber attaches (the ZeroMQ "slow joiner"); callers that must not
// miss the first messages wait for readiness before triggering them.
func (s *Sub) WaitReady(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		allReady := true
		n := 0
		for _, c := range s.conns {
			n++
			if !c.isReady() {
				allReady = false
			}
		}
		change := s.readyCh
		s.mu.Unlock()
		if n > 0 && allReady {
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

// WaitAnyReady blocks until at least one connected endpoint is ready, or
// the timeout elapses. Used when some publishers may come up later (e.g.
// an aggregator whose collectors restart independently).
func (s *Sub) WaitAnyReady(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		any := false
		for _, c := range s.conns {
			if c.isReady() {
				any = true
				break
			}
		}
		change := s.readyCh
		s.mu.Unlock()
		if any {
			return nil
		}
		select {
		case <-change:
		case <-deadline.C:
			return fmt.Errorf("msgq: no endpoint ready after %v", timeout)
		case <-s.closed:
			return fmt.Errorf("msgq: sub closed")
		}
	}
}

// runTCP serves one TCP connection lifetime; returns false to reconnect.
func (s *Sub) runTCP(c *subConn) bool {
	conn, err := net.DialTimeout("tcp", c.ep.addr, 2*time.Second)
	if err != nil {
		return false
	}
	// Every connection starts a free list of its own: a buffer a receiver
	// still holds from the previous one is never refilled under it. Idle
	// buffers are bounded by the queue the frames wait in.
	fr := frameReader{r: bufio.NewReaderSize(conn, 64<<10), bufs: &bufList{keep: cap(s.out)}}
	c.mu.Lock()
	c.raw, c.bufs = conn, fr.bufs
	c.mu.Unlock()
	// Replay subscriptions.
	w := bufio.NewWriter(conn)
	s.mu.Lock()
	prefixes := make([]string, 0, len(s.prefixes))
	for p := range s.prefixes {
		prefixes = append(prefixes, p)
	}
	s.mu.Unlock()
	for _, p := range prefixes {
		if err := writeMessage(w, Message{Topic: ctlSubscribe, Payload: []byte(p)}); err != nil {
			conn.Close()
			return false
		}
	}
	// Give the publisher's control-frame reader a beat to process the
	// subscriptions before declaring readiness; topic matching happens
	// publisher-side at publish time.
	time.Sleep(5 * time.Millisecond)
	c.setReady(true)
	defer c.setReady(false)
	// Close the conn when the socket closes so the read loop unblocks.
	done := make(chan struct{})
	go func() {
		select {
		case <-s.closed:
			conn.Close()
		case <-done:
		}
	}()
	for {
		m, err := fr.next()
		if err != nil {
			close(done)
			conn.Close()
			c.mu.Lock()
			c.raw = nil
			c.mu.Unlock()
			select {
			case <-s.closed:
				return true
			default:
				return false
			}
		}
		s.received.Add(1)
		select {
		case s.out <- m:
		case <-s.closed:
			close(done)
			conn.Close()
			return true
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
