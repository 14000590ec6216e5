// Package dsi defines FSMonitor's Data Storage Interface — the lowest of
// the three architecture layers (§III-A1): "responsible for interfacing
// with the underlying file system to capture events and report them to the
// resolution layer ... We employ a modular architecture via which arbitrary
// monitoring interfaces can be integrated", and "also responsible for
// selecting the appropriate monitoring tool for the given storage device."
//
// A DSI watches one root and emits events on a channel; the registry maps
// a storage description to the best available DSI implementation.
package dsi

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// DSI is one attached monitoring backend.
type DSI interface {
	// Name identifies the backend (e.g. "inotify", "fsevents", "lustre").
	Name() string
	// Events returns the stream of captured events. The channel closes
	// when the DSI stops.
	Events() <-chan events.Event
	// Errors returns asynchronous backend errors (buffer overflows,
	// connection losses). May be drained lazily; senders never block.
	Errors() <-chan error
	// Dropped reports events lost inside the backend, if any.
	Dropped() uint64
	// Close detaches the backend and closes the event channel.
	Close() error
}

// ClusterMember identifies one member of a clustered aggregation tier
// behind a DSI: its ID and the addresses peers and consumers dial.
type ClusterMember struct {
	// ID is the member's cluster-wide name.
	ID string
	// Endpoint is the member's event publisher: subscribe here, and pass
	// it as a cluster-join address.
	Endpoint string
	// Recovery is the member's recovery-server address, "" when none.
	Recovery string
}

// ClusterMemberLister is the optional DSI extension a clustered backend
// implements so operators can discover the addresses to join or dial.
type ClusterMemberLister interface {
	ClusterMembers() []ClusterMember
}

// StorageInfo describes the storage a monitor should attach to; the
// registry selects a DSI from it.
type StorageInfo struct {
	// Platform is the operating system flavour: "linux", "darwin",
	// "windows", "bsd" — or "sim-<os>" for the simulated kernels.
	Platform string
	// FSType is the file-system type: "local", "lustre", ...
	FSType string
	// Root is the path to monitor.
	Root string
}

// Config carries the watch parameters given to a factory.
type Config struct {
	// Root is the path to monitor.
	Root string
	// Recursive requests events for the whole subtree. Backends that
	// cannot recurse natively (inotify) install per-directory watches.
	Recursive bool
	// Buffer is the event channel capacity (0 = implementation default).
	Buffer int
	// Backend passes the storage-specific handle (e.g. the simulated
	// kernel, a Lustre cluster connection). Concrete factories document
	// what they expect.
	Backend any
	// Context detaches the backend when canceled — the registry closes
	// any DSI it opened once the context ends. Backends with internal
	// services (e.g. the Lustre collectors) also propagate it so a
	// cancellation unwinds blocked sends. Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, is the unified registry backends with
	// internal services (e.g. the Lustre deployment) mirror their stats
	// into. Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs from backends
	// that log; nil discards.
	Logger *slog.Logger
}

// Factory builds a DSI attached per cfg.
type Factory func(cfg Config) (DSI, error)

// registration couples a factory with its selection predicate.
type registration struct {
	name    string
	factory Factory
	// score returns a preference for handling info; <= 0 means cannot.
	score func(info StorageInfo) int
}

// Registry selects and constructs DSIs. The zero value is empty; NewRegistry
// returns one pre-populated by the standard backends' register calls.
type Registry struct {
	mu   sync.Mutex
	regs map[string]registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{regs: make(map[string]registration)}
}

// Register adds a backend. Re-registering a name replaces it.
func (r *Registry) Register(name string, score func(StorageInfo) int, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regs[name] = registration{name: name, factory: f, score: score}
}

// Names returns the registered backend names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.regs))
	for n := range r.regs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrNoBackend is returned when no registered DSI can handle the storage.
var ErrNoBackend = errors.New("dsi: no backend can monitor this storage")

// BackendScore is one backend's selection preference for a StorageInfo.
type BackendScore struct {
	Name  string
	Score int
}

// Scores returns every registered backend's score for info, sorted by
// descending score then name — the registry's full selection view
// (ErrNoBackend diagnostics and `fsmon -list-backends` print it).
func (r *Registry) Scores(info StorageInfo) []BackendScore {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BackendScore, 0, len(r.regs))
	for n, reg := range r.regs {
		out = append(out, BackendScore{Name: n, Score: reg.score(info)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Select returns the name of the highest-scoring backend for info.
func (r *Registry) Select(info StorageInfo) (string, error) {
	scores := r.Scores(info)
	// Scores sorts by descending score with a name tie-break, so the
	// first positive entry is the deterministic winner.
	if len(scores) > 0 && scores[0].Score > 0 {
		return scores[0].Name, nil
	}
	// Name every candidate and its verdict: "no backend" with nothing
	// else gives the operator no way to see which registration was close.
	var b strings.Builder
	for i, s := range scores {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", s.Name, s.Score)
	}
	if b.Len() == 0 {
		b.WriteString("none registered")
	}
	return "", fmt.Errorf("%w: platform=%q fstype=%q (backend scores: %s)",
		ErrNoBackend, info.Platform, info.FSType, b.String())
}

// Open selects a backend for info and constructs it with cfg. If cfg.Root
// is empty it defaults to info.Root.
func (r *Registry) Open(info StorageInfo, cfg Config) (DSI, error) {
	name, err := r.Select(info)
	if err != nil {
		return nil, err
	}
	return r.OpenNamed(name, infoRootDefault(info, cfg))
}

// OpenNamed constructs the named backend directly.
func (r *Registry) OpenNamed(name string, cfg Config) (DSI, error) {
	r.mu.Lock()
	reg, ok := r.regs[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dsi: unknown backend %q", name)
	}
	d, err := reg.factory(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Context != nil {
		// DSI.Close is idempotent for every built-in backend (CloseBase),
		// so a context-driven close composes with an explicit one.
		context.AfterFunc(cfg.Context, func() { _ = d.Close() })
	}
	return d, nil
}

func infoRootDefault(info StorageInfo, cfg Config) Config {
	if cfg.Root == "" {
		cfg.Root = info.Root
	}
	return cfg
}

// Base provides the channel plumbing shared by concrete DSIs: an event
// channel with overflow accounting, a non-blocking error channel, and a
// producer-aware shutdown protocol. Concrete backends call AddPump before
// starting each producer goroutine and PumpDone when it exits; the event
// channel closes only after every producer has stopped, so sends never
// race a close.
type Base struct {
	name      string
	events    chan events.Event
	errs      chan error
	done      chan struct{}
	closeOnce sync.Once
	pumps     sync.WaitGroup
	nDropped  atomic.Uint64
}

// NewBase creates plumbing with the given channel capacity
// (0 = pipeline.DefaultDSIBuffer).
func NewBase(name string, buffer int) *Base {
	if buffer <= 0 {
		buffer = pipeline.DefaultDSIBuffer
	}
	return &Base{
		name:   name,
		events: make(chan events.Event, buffer),
		errs:   make(chan error, 16),
		done:   make(chan struct{}),
	}
}

// Name implements DSI.
func (b *Base) Name() string { return b.name }

// Events implements DSI.
func (b *Base) Events() <-chan events.Event { return b.events }

// Errors implements DSI.
func (b *Base) Errors() <-chan error { return b.errs }

// Dropped implements DSI.
func (b *Base) Dropped() uint64 { return b.nDropped.Load() }

// Done returns the shutdown signal producers must honour.
func (b *Base) Done() <-chan struct{} { return b.done }

// AddPump registers a producer goroutine (call before starting it).
func (b *Base) AddPump() { b.pumps.Add(1) }

// PumpDone marks a producer goroutine finished.
func (b *Base) PumpDone() { b.pumps.Done() }

// Emit delivers an event, blocking until the consumer accepts it. It
// reports false once the base is closed. Only producer goroutines
// registered via AddPump may call Emit.
func (b *Base) Emit(e events.Event) bool {
	e.Source = b.name
	select {
	case <-b.done:
		return false
	default:
	}
	select {
	case b.events <- e:
		return true
	case <-b.done:
		return false
	}
}

// TryEmit delivers an event without blocking, counting a drop on failure.
func (b *Base) TryEmit(e events.Event) bool {
	e.Source = b.name
	select {
	case <-b.done:
		return false
	default:
	}
	select {
	case b.events <- e:
		return true
	case <-b.done:
		return false
	default:
		b.nDropped.Add(1)
		return false
	}
}

// EmitError reports an asynchronous error without blocking.
func (b *Base) EmitError(err error) {
	select {
	case b.errs <- err:
	default:
	}
}

// CloseBase signals shutdown, waits for producers, then closes the
// channels. Safe to call multiple times.
func (b *Base) CloseBase() {
	b.closeOnce.Do(func() {
		close(b.done)
		b.pumps.Wait()
		close(b.events)
		close(b.errs)
	})
}
