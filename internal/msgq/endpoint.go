package msgq

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// endpoint kinds.
type endpointKind int

const (
	epTCP endpointKind = iota
	epInproc
)

type endpoint struct {
	kind endpointKind
	addr string // host:port for tcp, name for inproc
}

func parseEndpoint(s string) (endpoint, error) {
	switch {
	case strings.HasPrefix(s, "tcp://"):
		addr := strings.TrimPrefix(s, "tcp://")
		if addr == "" {
			return endpoint{}, fmt.Errorf("msgq: empty tcp endpoint %q", s)
		}
		return endpoint{kind: epTCP, addr: addr}, nil
	case strings.HasPrefix(s, "inproc://"):
		name := strings.TrimPrefix(s, "inproc://")
		if name == "" {
			return endpoint{}, fmt.Errorf("msgq: empty inproc endpoint %q", s)
		}
		return endpoint{kind: epInproc, addr: name}, nil
	default:
		return endpoint{}, fmt.Errorf("msgq: unknown endpoint scheme %q (want tcp:// or inproc://)", s)
	}
}

// subscriber is what a publisher's offer needs of a subscriber.
type subscriber interface {
	done() <-chan struct{}
	evictable() bool
	evict(p *Pub)
}

// peer is what a publisher keeps of one subscriber, whatever its transport:
// its topic prefixes, and gone, closed once it is detached or evicted.
type peer struct {
	mu       sync.Mutex
	prefixes map[string]bool
	gone     chan struct{}
	once     sync.Once
	inbox    atomic.Bool // subscribed to a routed inbox: never evicted
}

func (p *peer) done() <-chan struct{} { return p.gone }

func (p *peer) stop() { p.once.Do(func() { close(p.gone) }) }

// evictable is false for a routed inbox (NodeTopicPrefix): a member's intake,
// with no cursor to fetch a batch forwarded to it again.
func (p *peer) evictable() bool { return !p.inbox.Load() }

// control applies a SUB or UNSUB control frame; other frames are ignored.
func (p *peer) control(ctl, prefix string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if setPrefix(p.prefixes, ctl, prefix) && strings.HasPrefix(prefix, NodeTopicPrefix) {
		p.inbox.Store(true)
	}
}

// setPrefix adds prefix to set for a SUB and removes it for an UNSUB, and
// reports whether it was a SUB.
func setPrefix(set map[string]bool, ctl, prefix string) bool {
	switch ctl {
	case ctlSubscribe:
		set[prefix] = true
		return true
	case ctlUnsubscribe:
		delete(set, prefix)
	}
	return false
}

func (p *peer) matches(topic string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for prefix := range p.prefixes {
		if strings.HasPrefix(topic, prefix) {
			return true
		}
	}
	return false
}

// inprocPeer is the in-process analogue of one connected socket: a
// publisher offers straight into sub's receive queue.
type inprocPeer struct {
	peer
	sub *Sub
}

func (p *inprocPeer) evict(pub *Pub) {
	pub.detachInproc(p)
	p.stop()
}

// inprocRegistry maps names to bound publishers within the process.
var inprocRegistry = struct {
	sync.Mutex
	bound map[string]*Pub
}{bound: make(map[string]*Pub)}

func inprocBind(name string, s *Pub) error {
	inprocRegistry.Lock()
	defer inprocRegistry.Unlock()
	if _, ok := inprocRegistry.bound[name]; ok {
		return fmt.Errorf("msgq: inproc endpoint %q already bound", name)
	}
	inprocRegistry.bound[name] = s
	return nil
}

func inprocUnbind(name string) {
	inprocRegistry.Lock()
	defer inprocRegistry.Unlock()
	delete(inprocRegistry.bound, name)
}

func inprocLookup(name string) (*Pub, bool) {
	inprocRegistry.Lock()
	defer inprocRegistry.Unlock()
	s, ok := inprocRegistry.bound[name]
	return s, ok
}
