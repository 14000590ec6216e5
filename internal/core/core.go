// Package core assembles FSMonitor's three-layer architecture (Fig. 3):
// a Data Storage Interface selected from the registry captures events from
// the target storage, the resolution layer standardizes and batches them,
// and the interface layer stores and reports them to clients.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/lustredsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/dsi/objectdsi"
	"fsmonitor/internal/dsi/polldsi"
	"fsmonitor/internal/dsi/simdsi"
	"fsmonitor/internal/dsi/spectrumdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/metrics"
	"fsmonitor/internal/resolution"
	"fsmonitor/internal/scalable"
	"fsmonitor/internal/telemetry"
)

// Options configures a Monitor.
type Options struct {
	// Storage describes what to monitor; the DSI registry selects the
	// backend from it unless DSIName pins one explicitly.
	Storage dsi.StorageInfo
	// DSIName forces a specific backend (default: auto-select).
	DSIName string
	// Recursive monitors the whole subtree under the root. Default
	// false, matching inotify semantics (§V-C1).
	Recursive bool
	// Backend passes the storage handle to the DSI factory (e.g. the
	// simulated *vfs.FS or a Lustre cluster connection).
	Backend any
	// Registry supplies the DSI backends (default: DefaultRegistry()).
	Registry *dsi.Registry
	// BatchSize is the resolution layer's batch size (0 = default).
	BatchSize int
	// Store configures the reliable event store.
	Store eventstore.Options
	// Lustre is the scalable monitor's deployment (Lustre path only; the
	// local interface-layer store above stays single): WatchLustre hands
	// it to the lustre backend whole, so each of its knobs is declared
	// once, in package scalable.
	Lustre scalable.DeployOptions
	// Buffer is the DSI event channel capacity (0 = default).
	Buffer int
	// Context bounds the monitor's lifetime: canceling it closes the DSI
	// and then the monitor, and the resolution layer stores every event
	// the DSI had accepted before the interface layer shuts. Nil means
	// Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors every layer into the unified
	// registry (fsmon.core.* for the local three layers, fsmon.process.*
	// for the host process, plus whatever the DSI registers — e.g. the
	// Lustre deployment's fsmon.collector.*/fsmon.aggregator.*). Nil
	// (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs from every layer;
	// nil discards.
	Logger *slog.Logger
	// IncidentDir arms the incident flight recorder (requires Telemetry):
	// health-watchdog trips and manual triggers capture self-contained
	// diagnostic bundles under this directory, the trace sampler boosts
	// for the incident window, and every layer's logs are teed into the
	// bundle's bounded log ring. Empty (the default) disables capture.
	IncidentDir string
	// IncidentRetain bounds how many bundles IncidentDir keeps (oldest
	// pruned first). 0 = telemetry.DefaultIncidentRetain.
	IncidentRetain int
	// Mounts composes multiple backends into one namespace. When non-empty
	// the monitor's capture layer is a mount table: each spec's backend is
	// opened through the registry and attached at its prefix, and events
	// flow into the shared resolution layer with prefixed paths. Empty
	// (the default) preserves the single-backend path exactly.
	Mounts []MountSpec
}

// MountSpec describes one backend mounted at a prefix of the unified
// namespace.
type MountSpec struct {
	// Prefix is the absolute mount point ("/lustre", "/a/b"); deeper
	// prefixes shadow shallower ones.
	Prefix string
	// Storage describes the mounted backend; the registry selects a DSI
	// from it unless DSIName pins one. Storage.Root is the backend-local
	// root that the prefix maps onto.
	Storage dsi.StorageInfo
	// DSIName forces a specific backend for this mount.
	DSIName string
	// Backend passes the storage handle to this mount's DSI factory.
	Backend any
	// Recursive monitors the whole subtree under the mount's root.
	Recursive bool
	// Buffer is this mount's DSI channel capacity (0 = default).
	Buffer int
}

// DefaultRegistry returns a registry with every built-in backend for the
// current platform: the real local-filesystem backends (inotify on Linux,
// polling everywhere) and the simulated-kernel backends.
func DefaultRegistry() *dsi.Registry {
	reg := dsi.NewRegistry()
	polldsi.Register(reg)
	simdsi.Register(reg)
	lustredsi.Register(reg)
	spectrumdsi.Register(reg)
	objectdsi.Register(reg)
	registerPlatform(reg)
	return reg
}

// Monitor is a running FSMonitor instance.
type Monitor struct {
	dsi       dsi.DSI
	table     *mount.Table // non-nil iff Options.Mounts was used
	reg       *dsi.Registry
	opts      Options
	proc      *resolution.Processor
	api       *iface.Interface
	store     *eventstore.Store
	closeOnce sync.Once
	runDone   chan struct{}
}

// New starts a monitor per opts.
func New(opts Options) (*Monitor, error) {
	reg := opts.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	if opts.IncidentDir != "" && opts.Telemetry != nil {
		_, err := opts.Telemetry.EnableFlightRecorder(telemetry.IncidentOptions{
			Dir:    opts.IncidentDir,
			Retain: opts.IncidentRetain,
			Logger: opts.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("core: arming flight recorder: %w", err)
		}
		// Tee every layer's logs through the recorder's bounded ring so
		// the moments before a trip land in the bundle. Wrapping before
		// the DSI opens means the whole stack shares the teed logger.
		opts.Logger = opts.Telemetry.LogRing().Wrap(opts.Logger)
	}
	var (
		d     dsi.DSI
		table *mount.Table
		err   error
	)
	if len(opts.Mounts) > 0 {
		table, err = newMountTable(reg, opts)
		d = table
	} else {
		cfg := dsi.Config{
			Root:      opts.Storage.Root,
			Recursive: opts.Recursive,
			Buffer:    opts.Buffer,
			Backend:   opts.Backend,
			Context:   opts.Context,
			Telemetry: opts.Telemetry,
			Logger:    opts.Logger,
		}
		if opts.DSIName != "" {
			d, err = reg.OpenNamed(opts.DSIName, cfg)
		} else {
			d, err = reg.Open(opts.Storage, cfg)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: attaching DSI: %w", err)
	}
	// A journal path names history to continue, not a file to start over:
	// reopening reloads it and resumes the sequence one past its last event,
	// so a restarted monitor's seqs stay unique and the file stays readable.
	mkStore := eventstore.New
	if opts.Store.JournalPath != "" {
		mkStore = eventstore.Open
	}
	store, err := mkStore(opts.Store)
	if err != nil {
		d.Close()
		return nil, err
	}
	api, err := iface.New(iface.Options{Store: store, AutoAck: true})
	if err != nil {
		d.Close()
		store.Close()
		return nil, err
	}
	m := &Monitor{
		dsi:     d,
		table:   table,
		reg:     reg,
		opts:    opts,
		proc:    resolution.New(d.Events(), opts.BatchSize),
		api:     api,
		store:   store,
		runDone: make(chan struct{}),
	}
	m.registerTelemetry(opts.Telemetry)
	go func() {
		defer close(m.runDone)
		// Run stops at the first batch the store refuses, and capture
		// then backs up until Close: say why.
		if err := m.proc.Run(m.api.Ingest); err != nil {
			telemetry.ComponentLogger(opts.Logger, "core").Error("resolution layer stopped", "err", err)
		}
	}()
	if opts.Context != nil {
		// A cancel closes the monitor as Close does: the DSI first, then,
		// once Run has drained the DSI channel, the interface layer and
		// the store.
		context.AfterFunc(opts.Context, func() { _ = m.Close() })
	}
	return m, nil
}

// newMountTable builds the composed capture layer: one mount table with a
// per-mount collector pump for every spec, each backend opened through the
// registry exactly as a single-backend monitor would open it.
func newMountTable(reg *dsi.Registry, opts Options) (*mount.Table, error) {
	root := opts.Storage.Root
	if root == "" {
		root = "/"
	}
	t := mount.NewTable(mount.Options{
		Root:      root,
		Buffer:    opts.Buffer,
		Telemetry: opts.Telemetry,
		Logger:    opts.Logger,
	})
	for _, spec := range opts.Mounts {
		d, err := openMountDSI(reg, opts, spec)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("core: mount %q: %w", spec.Prefix, err)
		}
		if err := t.Attach(spec.Prefix, d); err != nil {
			d.Close()
			t.Close()
			return nil, fmt.Errorf("core: mount %q: %w", spec.Prefix, err)
		}
	}
	return t, nil
}

func openMountDSI(reg *dsi.Registry, opts Options, spec MountSpec) (dsi.DSI, error) {
	cfg := dsi.Config{
		Root:      spec.Storage.Root,
		Recursive: spec.Recursive,
		Buffer:    spec.Buffer,
		Backend:   spec.Backend,
		Context:   opts.Context,
		Telemetry: opts.Telemetry,
		Logger:    opts.Logger,
	}
	if spec.DSIName != "" {
		return reg.OpenNamed(spec.DSIName, cfg)
	}
	return reg.Open(spec.Storage, cfg)
}

// AttachMount mounts another backend into a live composed monitor. The
// monitor must have been created with Options.Mounts (possibly empty slices
// don't count: a single-backend monitor has no table to attach into).
func (m *Monitor) AttachMount(spec MountSpec) error {
	if m.table == nil {
		return fmt.Errorf("core: %w", mount.ErrNotComposed)
	}
	d, err := openMountDSI(m.reg, m.opts, spec)
	if err != nil {
		return fmt.Errorf("core: mount %q: %w", spec.Prefix, err)
	}
	if err := m.table.Attach(spec.Prefix, d); err != nil {
		d.Close()
		return fmt.Errorf("core: mount %q: %w", spec.Prefix, err)
	}
	return nil
}

// DetachMount unmounts the backend at prefix, closing it; its accounting is
// retained in Stats().Mounts with Attached=false.
func (m *Monitor) DetachMount(prefix string) error {
	if m.table == nil {
		return fmt.Errorf("core: %w", mount.ErrNotComposed)
	}
	return m.table.Detach(prefix)
}

// Mounts lists the active mount prefixes, or nil for a single-backend
// monitor.
func (m *Monitor) Mounts() []string {
	if m.table == nil {
		return nil
	}
	return m.table.Mounts()
}

// registerTelemetry mirrors the local three layers into the unified
// registry under fsmon.core.*. The Lustre DSI registers its own
// deployment-wide namespaces separately, so the local interface-layer
// store gets a distinct prefix from the aggregation tier's fsmon.store.*.
func (m *Monitor) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("fsmon.core.dsi.dropped", func() float64 { return float64(m.dsi.Dropped()) })
	m.proc.RegisterTelemetry(reg, "fsmon.core.resolution")
	m.store.RegisterTelemetry(reg, "fsmon.core.store")
	reg.GaugeFunc("fsmon.core.iface.delivered", func() float64 { return float64(m.api.Stats().Delivered) })
	reg.GaugeFunc("fsmon.core.iface.evicted", func() float64 { return float64(m.api.Stats().Evicted) })
	reg.GaugeFunc("fsmon.core.iface.subscribers", func() float64 { return float64(m.api.Stats().Subscribers) })
	metrics.Register(reg)
}

// DSIName reports which backend the registry selected.
func (m *Monitor) DSIName() string { return m.dsi.Name() }

// ClusterMembers returns the members of the backend's aggregation
// cluster — the addresses external nodes join and consumers dial — or
// nil when the backend is not clustered.
func (m *Monitor) ClusterMembers() []dsi.ClusterMember {
	if l, ok := m.dsi.(dsi.ClusterMemberLister); ok {
		return l.ClusterMembers()
	}
	return nil
}

// Subscribe attaches a client feed with the given filter; sinceSeq > 0
// replays history from the event store first.
func (m *Monitor) Subscribe(filter iface.Filter, sinceSeq uint64) (*iface.Subscription, error) {
	return m.api.Subscribe(filter, sinceSeq)
}

// Since returns stored events after seq.
func (m *Monitor) Since(seq uint64, max int) ([]events.Event, error) {
	return m.api.Since(seq, max)
}

// Ack flags events up to seq as reported.
func (m *Monitor) Ack(seq uint64) error { return m.api.Ack(seq) }

// Purge removes reported events from the store.
func (m *Monitor) Purge() (int, error) { return m.api.Purge() }

// Errors exposes backend errors (queue overflows etc.).
func (m *Monitor) Errors() <-chan error { return m.dsi.Errors() }

// TriggerIncident captures a diagnostic bundle on demand — the manual
// counterpart of a watchdog trip, bypassing debounce and rate limits —
// and returns the incident ID. Requires Options.IncidentDir.
func (m *Monitor) TriggerIncident(reason string) (string, error) {
	fr := m.opts.Telemetry.Flight()
	if fr == nil {
		return "", fmt.Errorf("core: no flight recorder armed (set Options.IncidentDir)")
	}
	info, err := fr.TriggerIncident(reason)
	if err != nil {
		return "", err
	}
	return info.ID, nil
}

// Stats aggregates layer statistics.
type Stats struct {
	DSI        string
	DSIDropped uint64
	Resolution resolution.Stats
	Interface  iface.Stats
	// Mounts carries per-mount accounting when the monitor is composed;
	// nil for a single-backend monitor.
	Mounts []mount.PointStats
}

// Stats returns a snapshot across the three layers.
func (m *Monitor) Stats() Stats {
	s := Stats{
		DSI:        m.dsi.Name(),
		DSIDropped: m.dsi.Dropped(),
		Resolution: m.proc.Stats(),
		Interface:  m.api.Stats(),
	}
	if m.table != nil {
		s.Mounts = m.table.Stats()
	}
	return s
}

// Close stops the monitor: DSI first, letting queued events drain through
// resolution into the store, then the interface layer.
func (m *Monitor) Close() error {
	var err error
	m.closeOnce.Do(func() {
		err = m.dsi.Close()
		<-m.runDone // Run drains the DSI channel once it closes
		m.api.Close()
		m.store.Close()
	})
	return err
}
