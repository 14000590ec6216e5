// Package iface implements FSMonitor's topmost layer (§III-A3): "an
// interface for users and programs to interact with FSMonitor ...
// responsible for reporting events and replying to requests." It delivers
// processed event batches to subscribers with per-subscription filtering
// (including the recursive/non-recursive rule the paper highlights as a
// filtering-rule change rather than a watcher change), serves
// events-since-ID requests, and provides fault tolerance by persisting
// every event to the reliable event store before delivery.
package iface

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/pipeline"
)

// Filter selects which events a subscription receives.
type Filter struct {
	// Under restricts events to subjects below this root-relative
	// directory ("" or "/" = everything).
	Under string
	// Ops restricts to events intersecting this mask (0 = all).
	Ops events.Op
	// Recursive, when false, restricts to direct children of Under —
	// the inotify-compatible default ("By default, FSMonitor will not
	// monitor events recursively"; recursion "just modif[ies] the
	// filtering rule in the Interface layer").
	Recursive bool
}

// All reports whether the filter passes every event: recursive, every op,
// under the root.
func (f Filter) All() bool {
	return f.Recursive && f.Ops == 0 && (f.Under == "" || f.Under == "/" || f.Under == ".")
}

// Match reports whether the filter passes e.
func (f Filter) Match(e events.Event) bool {
	if f.All() {
		return true
	}
	if f.Ops != 0 && !e.Op.HasAny(f.Ops) && !e.Op.HasAny(events.OpOverflow) {
		return false
	}
	under := f.Under
	if under == "" {
		under = "/"
	}
	if !e.Under(under) {
		return false
	}
	if !f.Recursive {
		baseDepth := (events.Event{Path: under}).Depth()
		if e.Depth() > baseDepth+1 {
			return false
		}
	}
	return true
}

// Options configures the interface layer.
type Options struct {
	// Store holds events for fault tolerance; required.
	Store *eventstore.Store
	// SubscriberBuffer is each subscription's channel capacity
	// (default pipeline.DefaultSubscriberBuffer batches).
	SubscriberBuffer int
	// AutoAck marks events reported as soon as every subscriber has
	// been offered them (default true in New).
	AutoAck bool
	// Context closes the layer (cancelling every subscription) when
	// canceled. Nil means Background.
	Context context.Context
}

// Interface is the client-facing layer.
type Interface struct {
	store   *eventstore.Store
	opts    Options
	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	closed  bool
	lastSeq atomic.Uint64

	delivered atomic.Uint64
	evicted   atomic.Uint64
}

// New creates the interface layer over the given store.
func New(opts Options) (*Interface, error) {
	if opts.Store == nil {
		return nil, errors.New("iface: Options.Store is required")
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = pipeline.DefaultSubscriberBuffer
	}
	i := &Interface{store: opts.Store, opts: opts, subs: make(map[*Subscription]struct{})}
	if opts.Context != nil {
		context.AfterFunc(opts.Context, i.Close)
	}
	return i, nil
}

// Subscription is one client's event feed.
type Subscription struct {
	iface  *Interface
	filter Filter
	ch     chan []events.Event
	// Guarded by iface.mu, like every send on ch.
	seq     uint64 // the feed is complete through this seq
	evicted bool
}

// C returns the subscription's batch channel. It closes on Close, and when
// the subscription is evicted for lagging (Evicted).
func (s *Subscription) C() <-chan []events.Event { return s.ch }

// Evicted reports whether a batch found this subscription's channel full,
// and the seq its feed is complete through: Subscribe(filter, seq) resumes
// exactly there while the store still holds what followed.
func (s *Subscription) Evicted() (seq uint64, evicted bool) {
	s.iface.mu.Lock()
	defer s.iface.mu.Unlock()
	return s.seq, s.evicted
}

// Close cancels the subscription.
func (s *Subscription) Close() {
	s.iface.mu.Lock()
	defer s.iface.mu.Unlock()
	s.closeLocked()
}

func (s *Subscription) closeLocked() {
	if _, open := s.iface.subs[s]; open {
		delete(s.iface.subs, s)
		close(s.ch)
	}
}

// Subscribe attaches a client. If sinceSeq > 0, events after that sequence
// number are replayed from the store first (fault recovery, resume after an
// eviction); live delivery follows from the first event the replay lacked.
func (i *Interface) Subscribe(filter Filter, sinceSeq uint64) (*Subscription, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.closed {
		return nil, errors.New("iface: closed")
	}
	s := &Subscription{iface: i, filter: filter, ch: make(chan []events.Event, i.opts.SubscriberBuffer), seq: i.lastSeq.Load()}
	if sinceSeq > 0 {
		history, err := i.store.Since(sinceSeq, 0)
		if err != nil {
			return nil, err
		}
		s.seq = sinceSeq
		var replay []events.Event
		for _, e := range history {
			s.seq = e.Seq
			if filter.Match(e) {
				replay = append(replay, e)
			}
		}
		if len(replay) > 0 {
			s.ch <- replay
			i.delivered.Add(uint64(len(replay)))
		}
	}
	i.subs[s] = struct{}{}
	return s, nil
}

// Ingest stores a processed batch and delivers it to subscribers. It is
// called by the core with the resolution layer's output.
func (i *Interface) Ingest(batch []events.Event) error {
	if len(batch) == 0 {
		return nil
	}
	stored := make([]events.Event, 0, len(batch))
	for _, e := range batch {
		seq, err := i.store.Append(e)
		if err != nil {
			return err
		}
		e.Seq = seq
		stored = append(stored, e)
		i.lastSeq.Store(seq)
	}
	// Every send on a subscription's channel is made under i.mu. One without
	// room is evicted at once: behind this layer is the DSI channel, not a
	// durable Changelog, so waiting on one reader would stall capture.
	i.mu.Lock()
	for s := range i.subs {
		var pass []events.Event
		for _, e := range stored {
			if e.Seq > s.seq && s.filter.Match(e) {
				pass = append(pass, e)
			}
		}
		if len(pass) > 0 {
			if len(s.ch) == cap(s.ch) {
				s.evicted = true
				s.closeLocked()
				i.evicted.Add(1)
				continue
			}
			s.ch <- pass
			i.delivered.Add(uint64(len(pass)))
		}
		s.seq = max(s.seq, stored[len(stored)-1].Seq)
	}
	i.mu.Unlock()
	if i.opts.AutoAck {
		return i.store.MarkReported(i.lastSeq.Load())
	}
	return nil
}

// Since returns events after seq from the reliable store (max <= 0 = all).
func (i *Interface) Since(seq uint64, max int) ([]events.Event, error) {
	return i.store.Since(seq, max)
}

// Ack flags events up to seq as reported; they become eligible for the
// next purge cycle.
func (i *Interface) Ack(seq uint64) error { return i.store.MarkReported(seq) }

// Purge removes reported events from the store, returning the count.
func (i *Interface) Purge() (int, error) { return i.store.Purge() }

// LastSeq returns the most recent stored sequence number.
func (i *Interface) LastSeq() uint64 { return i.lastSeq.Load() }

// Stats summarizes interface-layer activity.
type Stats struct {
	Delivered   uint64
	Evicted     uint64 // subscriptions evicted for lagging
	Subscribers int
	Store       eventstore.Stats
}

// Stats returns a snapshot.
func (i *Interface) Stats() Stats {
	i.mu.Lock()
	n := len(i.subs)
	i.mu.Unlock()
	return Stats{Delivered: i.delivered.Load(), Evicted: i.evicted.Load(), Subscribers: n, Store: i.store.Stats()}
}

// Close cancels every subscription.
func (i *Interface) Close() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.closed = true
	for s := range i.subs {
		s.closeLocked()
	}
}
