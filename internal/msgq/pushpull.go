package msgq

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Pull is the receiving end of a lossless pipeline: it binds an endpoint
// and fans frames from all connected pushers into one channel. Unlike PUB,
// nothing is ever dropped — senders block when the receiver falls behind
// (channel backpressure in-process, TCP flow control on the wire).
type Pull struct {
	mu        sync.Mutex
	listeners []net.Listener
	bound     []string
	names     []string
	out       chan Message
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	received  atomic.Uint64
	// inMu fences in-process deliveries against Close: unlike the
	// wg-tracked TCP read loops, inproc senders run on the pusher's
	// goroutine, so Close must flip inClosed under the write lock before
	// it may close(out).
	inMu     sync.RWMutex
	inClosed bool
}

// NewPull creates a pull socket with the given receive buffer (0 =
// DefaultHWM).
func NewPull(buffer int) *Pull {
	if buffer <= 0 {
		buffer = DefaultHWM
	}
	return &Pull{out: make(chan Message, buffer), closed: make(chan struct{})}
}

// Bind makes the socket reachable at the endpoint.
func (p *Pull) Bind(ep string) error {
	e, err := parseEndpoint(ep)
	if err != nil {
		return err
	}
	if e.kind == epInproc {
		if err := inprocBind(e.addr, p); err != nil {
			return err
		}
		p.mu.Lock()
		p.names = append(p.names, e.addr)
		p.bound = append(p.bound, ep)
		p.mu.Unlock()
		return nil
	}
	ln, err := net.Listen("tcp", e.addr)
	if err != nil {
		return fmt.Errorf("msgq: pull bind %s: %w", ep, err)
	}
	p.mu.Lock()
	p.listeners = append(p.listeners, ln)
	p.bound = append(p.bound, "tcp://"+ln.Addr().String())
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// Addr returns the first bound endpoint.
func (p *Pull) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bound) == 0 {
		return ""
	}
	return p.bound[0]
}

func (p *Pull) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *Pull) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-p.closed:
			conn.Close()
		case <-done:
		}
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		m, err := readMessage(r)
		if err != nil {
			return
		}
		select {
		case p.out <- m:
			p.received.Add(1)
		case <-p.closed:
			return
		}
	}
}

// attachInproc implements inprocBindable (pushers deliver directly).
func (p *Pull) attachInproc(peer *inprocPeer) {}

// deliverInproc is the in-process send path. The read lock is held
// across the send so Close cannot close(out) mid-delivery; a blocked
// sender is unblocked by the closed channel, releasing the lock.
func (p *Pull) deliverInproc(m Message) bool {
	p.inMu.RLock()
	defer p.inMu.RUnlock()
	if p.inClosed {
		return false
	}
	select {
	case p.out <- m:
		p.received.Add(1)
		return true
	case <-p.closed:
		return false
	}
}

// C returns the receive channel (closed when the socket closes).
func (p *Pull) C() <-chan Message { return p.out }

// Received returns the number of messages received.
func (p *Pull) Received() uint64 { return p.received.Load() }

// Close shuts the socket down.
func (p *Pull) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.mu.Lock()
		for _, ln := range p.listeners {
			ln.Close()
		}
		for _, n := range p.names {
			inprocUnbind(n)
		}
		p.mu.Unlock()
		// In-flight inproc deliveries exit their select once closed
		// fires; taking the write lock waits them out, and the flag
		// stops any later sender short of the channel — only then is
		// closing out safe.
		p.inMu.Lock()
		p.inClosed = true
		p.inMu.Unlock()
		p.wg.Wait()
		close(p.out)
	})
}

// Push is the sending end of a lossless pipeline. Send blocks until the
// message is handed to the transport; connection failures are retried so
// no message is silently lost.
type Push struct {
	ep        endpoint
	mu        sync.Mutex
	conn      net.Conn
	w         *bufio.Writer
	closed    chan struct{}
	closeOnce sync.Once
}

// NewPush creates a push socket connected to ep.
func NewPush(ep string) (*Push, error) {
	e, err := parseEndpoint(ep)
	if err != nil {
		return nil, err
	}
	return &Push{ep: e, closed: make(chan struct{})}, nil
}

// Send delivers the message, blocking until it is accepted by the
// transport. It returns an error only when the socket is closed. Failed
// dials are retried with capped exponential backoff + jitter, so a
// sender started before its receiver binds (cluster join ordering)
// converges without hammering the address.
func (p *Push) Send(m Message) error {
	retry := newBackoff(5*time.Millisecond, 500*time.Millisecond)
	for {
		select {
		case <-p.closed:
			return fmt.Errorf("msgq: push socket closed")
		default:
		}
		if p.ep.kind == epInproc {
			b, found := inprocLookup(p.ep.addr)
			if found {
				if pull, ok := b.(*Pull); ok {
					if pull.deliverInproc(m) {
						return nil
					}
				}
			}
			select {
			case <-p.closed:
				return fmt.Errorf("msgq: push socket closed")
			case <-time.After(retry.next()):
			}
			continue
		}
		if err := p.sendTCP(m); err != nil {
			select {
			case <-p.closed:
				return fmt.Errorf("msgq: push socket closed")
			case <-time.After(retry.next()):
			}
			continue
		}
		return nil
	}
}

func (p *Push) sendTCP(m Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		conn, err := net.DialTimeout("tcp", p.ep.addr, 2*time.Second)
		if err != nil {
			return err
		}
		p.conn = conn
		p.w = bufio.NewWriterSize(conn, 64<<10)
	}
	if err := writeMessage(p.w, m); err != nil {
		p.conn.Close()
		p.conn, p.w = nil, nil
		return err
	}
	return nil
}

// Close releases the socket. Pending Send calls fail.
func (p *Push) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	})
}
