// Package fsmonitor is a generic, scalable file-system monitor with a
// standardized event representation, reproducing the system described in
//
//	Paul, Chard, Chard, Tuecke, Butt, Foster.
//	"FSMonitor: Scalable File System Monitoring for Arbitrary Storage
//	Systems." IEEE CLUSTER 2019.
//
// FSMonitor detects and reports file-system events — creations,
// modifications, renames, deletions, attribute changes — across very
// different storage systems behind one API and one event vocabulary
// (inotify's, the de-facto standard). Its three-layer architecture
// consists of a modular Data Storage Interface (DSI) that captures events
// from the underlying storage, a resolution layer that standardizes,
// batches, and caches, and an interface layer that stores events reliably
// and reports them to subscribers.
//
// Backends include real Linux inotify (via raw syscalls), a portable
// polling watcher, high-fidelity simulations of kqueue, FSEvents, and
// Windows FileSystemWatcher over an in-memory filesystem, and the paper's
// scalable monitor for (simulated) Lustre: per-MDS Changelog collectors
// with LRU-cached fid2path resolution, a message-queue aggregator, and
// fault-tolerant consumers.
//
// Quick start — watch a real directory:
//
//	m, err := fsmonitor.Watch("/data", fsmonitor.WithRecursive())
//	if err != nil { ... }
//	defer m.Close()
//	sub, _ := m.Subscribe(fsmonitor.Filter{Recursive: true}, 0)
//	for batch := range sub.C() {
//		for _, e := range batch {
//			fmt.Println(e) // "/data CREATE /hello.txt"
//		}
//	}
package fsmonitor

import (
	"context"
	"io"
	"log/slog"
	"runtime"
	"time"

	"fsmonitor/internal/core"
	"fsmonitor/internal/dsi"
	"fsmonitor/internal/dsi/lustredsi"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/dsi/objectdsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/spectrum"
	"fsmonitor/internal/telemetry"
	"fsmonitor/internal/vfs"
)

// Event is the standardized file-system event (inotify-style).
type Event = events.Event

// Op is the standardized operation mask.
type Op = events.Op

// Standardized operations (see events.Op).
const (
	OpAccess     = events.OpAccess
	OpModify     = events.OpModify
	OpAttrib     = events.OpAttrib
	OpCloseWrite = events.OpCloseWrite
	OpCloseNoWr  = events.OpCloseNoWr
	OpClose      = events.OpClose
	OpOpen       = events.OpOpen
	OpMovedFrom  = events.OpMovedFrom
	OpMovedTo    = events.OpMovedTo
	OpCreate     = events.OpCreate
	OpDelete     = events.OpDelete
	OpDeleteSelf = events.OpDeleteSelf
	OpMoveSelf   = events.OpMoveSelf
	OpXattr      = events.OpXattr
	OpTruncate   = events.OpTruncate
	OpOverflow   = events.OpOverflow
	OpIsDir      = events.OpIsDir
)

// Format identifies an output event representation.
type Format = events.Format

// Supported representations (§III-A2: events can be transformed into any
// common format by populating its template).
const (
	FormatStandard = events.FormatStandard
	FormatInotify  = events.FormatInotify
	FormatKqueue   = events.FormatKqueue
	FormatFSEvents = events.FormatFSEvents
	FormatFSW      = events.FormatFSW
	FormatLustre   = events.FormatLustre
)

// Transform renders an event in the requested representation.
func Transform(e Event, f Format) (string, error) { return events.Transform(e, f) }

// Filter selects events for a subscription.
type Filter = iface.Filter

// Subscription is a client event feed.
type Subscription = iface.Subscription

// Monitor is a running FSMonitor instance.
type Monitor = core.Monitor

// Stats aggregates monitor-layer statistics.
type Stats = core.Stats

// SimFS is the in-memory filesystem used by the simulated platform
// backends (and as a hermetic test target).
type SimFS = vfs.FS

// NewSimFS creates an empty simulated filesystem.
func NewSimFS() *SimFS { return vfs.New() }

// LustreCluster is a simulated Lustre deployment.
type LustreCluster = lustre.Cluster

// LustreConfig describes a simulated Lustre deployment.
type LustreConfig = lustre.Config

// NewLustreCluster builds a simulated Lustre file system. The presets
// lustre.AWSConfig, lustre.ThorConfig, and lustre.IotaConfig reproduce the
// paper's three testbeds.
func NewLustreCluster(cfg LustreConfig) *LustreCluster { return lustre.NewCluster(cfg) }

// Option customizes New/Watch.
type Option func(*core.Options)

// WithRecursive monitors the whole subtree. FSMonitor's default matches
// inotify's non-recursive semantics; recursion is a filtering-rule change,
// not a new watcher (§V-C1).
func WithRecursive() Option {
	return func(o *core.Options) { o.Recursive = true }
}

// WithContext bounds the monitor's lifetime: canceling the context closes
// the monitor as Close does. Capture stops first, every event the DSI had
// accepted is still resolved and stored, then the interface layer shuts.
// The scalable tiers behind a Lustre DSI abort on cancel instead: events
// they had not yet handed to the DSI are not delivered.
func WithContext(ctx context.Context) Option {
	return func(o *core.Options) { o.Context = ctx }
}

// WithDSI pins a specific backend by name instead of auto-selection.
func WithDSI(name string) Option {
	return func(o *core.Options) { o.DSIName = name }
}

// WithPlatform overrides the platform used for DSI selection (e.g.
// "sim-darwin" to monitor a SimFS through the FSEvents simulation).
func WithPlatform(platform string) Option {
	return func(o *core.Options) { o.Storage.Platform = platform }
}

// WithBackend passes the storage handle (a *SimFS for simulated
// platforms; a *LustreCluster for Lustre).
func WithBackend(backend any) Option {
	return func(o *core.Options) { o.Backend = backend }
}

// WithStoreBound caps the reliable event store at n events ("the size of
// this database is configurable", §III-A3).
func WithStoreBound(n int) Option {
	return func(o *core.Options) { o.Store.MaxEvents = n }
}

// WithJournal persists the event store to a journal file at path — framed,
// checksummed binary records (DESIGN.md §3h; print one with
// fsmon -dump-journal). A file in another format is refused, not migrated.
func WithJournal(path string) Option {
	return func(o *core.Options) { o.Store.JournalPath = path }
}

// SyncPolicy selects when journaled events are flushed to the OS; see
// eventstore.SyncPolicy for the durability tradeoff.
type SyncPolicy = eventstore.SyncPolicy

// Journal flush policies.
const (
	// SyncOnClose buffers until Sync/Close — fastest, and events still
	// buffered are lost if the process dies (the default).
	SyncOnClose = eventstore.SyncOnClose
	// SyncAlways flushes after every append — any stored event survives
	// a process crash.
	SyncAlways = eventstore.SyncAlways
	// SyncEveryN flushes every N appends — bounded loss window.
	SyncEveryN = eventstore.SyncEveryN
)

// WithJournalSync selects the journal flush policy (see SyncPolicy).
func WithJournalSync(p SyncPolicy) Option {
	return func(o *core.Options) { o.Store.Sync = p }
}

// WithJournalSyncEvery selects the SyncEveryN policy with a flush every n
// appended events.
func WithJournalSyncEvery(n int) Option {
	return func(o *core.Options) {
		o.Store.Sync = eventstore.SyncEveryN
		o.Store.SyncEvery = n
	}
}

// WithStorePartitions shards the scalable monitor's aggregation tier into
// n partitions keyed by MDT index: the reliable store, the aggregator's
// store lanes, and the republish topics all split, preserving per-partition
// event order. The default 1 reproduces the paper's single serial store
// (Tables IV/VII). Lustre path only.
func WithStorePartitions(n int) Option {
	return func(o *core.Options) { o.Lustre.StorePartitions = n }
}

// WithClusterNodes deploys the aggregation tier as a cluster of n routed
// aggregator nodes instead of the single aggregator: collectors route each
// batch slice to the partition owner's inbox, every node stores and
// republishes the partitions it owns (rendezvous-hashed, rebalanced on
// membership change with journal-replay handoff), and consumers recover
// through a coverage-checked fan-out across all nodes. n <= 1 with no join
// list keeps the single-node wire format byte-identical to the classic
// aggregator. Lustre path only.
func WithClusterNodes(n int) Option {
	return func(o *core.Options) { o.Lustre.ClusterNodes = n }
}

// WithClusterJoin points the deployed aggregator node(s) at an existing
// cluster's members by their event publishers (ClusterMember.Endpoint,
// e.g. "tcp://host:7400"): they join that cluster and take over their
// rendezvous share of its partitions. Lustre path only.
func WithClusterJoin(endpoint ...string) Option {
	return func(o *core.Options) { o.Lustre.ClusterJoin = append([]string(nil), endpoint...) }
}

// WithClusterListen binds the first deployed node's event publisher to a
// fixed endpoint (e.g. "tcp://0.0.0.0:7400") so consumers and nodes on
// other machines can reach it; the default is a loopback or in-process
// endpoint. Lustre path only.
func WithClusterListen(endpoint string) Option {
	return func(o *core.Options) { o.Lustre.ClusterListen = endpoint }
}

// WithClusterNodePrefix prefixes the deployed nodes' cluster member IDs
// ("<prefix>0".."<prefix>N-1"). Every member of a cluster needs a unique
// ID; without this option a founding process uses the stable "n" prefix
// and a joining process derives a host+pid prefix, so two processes
// never collide. The prefix must not contain '.'. Lustre path only.
func WithClusterNodePrefix(prefix string) Option {
	return func(o *core.Options) { o.Lustre.ClusterNodePrefix = prefix }
}

// WithClusterAdvertise sets the externally reachable host substituted
// into every advertised cluster address (publishers and recovery
// servers). Required when WithClusterListen binds a wildcard
// host ("0.0.0.0") that machines elsewhere cannot dial back. Lustre
// path only.
func WithClusterAdvertise(host string) Option {
	return func(o *core.Options) { o.Lustre.ClusterAdvertise = host }
}

// ClusterMember identifies one member of a clustered aggregation tier:
// its ID, the address peers join through and consumers subscribe to
// (Endpoint), and its recovery server (Recovery). Monitor.ClusterMembers
// returns them.
type ClusterMember = dsi.ClusterMember

// WithBatch tunes resolution-layer batching (§III-A2's batching
// optimization).
func WithBatch(size int) Option {
	return func(o *core.Options) { o.BatchSize = size }
}

// Telemetry is the unified metrics registry: every layer of a monitor
// built with WithTelemetry mirrors its counters, gauges, and latency
// histograms into one namespace (fsmon.core.*, fsmon.collector.mdt<N>.*,
// fsmon.aggregator.*, fsmon.store.p<i>.*, fsmon.consumer.*,
// fsmon.process.*). A clustered aggregation tier (WithClusterNodes)
// registers the same aggregator and store names under each member's root,
// fsmon.cluster.<id>.aggregator.* and fsmon.cluster.<id>.store.*, beside
// its membership gauges; the federated /cluster/metrics/prom view turns
// the ID into a node label. Snapshot/WriteText read it on demand;
// ServeTelemetry exposes it over HTTP.
type Telemetry = telemetry.Registry

// HistogramSnapshot is a latency histogram's point-in-time quantile view
// (count, mean, p50/p95/p99, max) as found in Telemetry.Snapshot().
type HistogramSnapshot = telemetry.HistogramSnapshot

// NewTelemetry creates an empty registry to pass to WithTelemetry. One
// registry can serve several monitors — names are deployment-scoped.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry mirrors every layer of the monitor into reg and enables
// end-to-end event latency tracing (capture → resolve → publish → store →
// republish → deliver on the Lustre path). The default nil registry costs
// nothing on the event path.
func WithTelemetry(reg *Telemetry) Option {
	return func(o *core.Options) { o.Telemetry = reg }
}

// WithLogger routes the monitor's structured logs (component-tagged
// log/slog records: dropped batches, store failures, lifecycle) to l.
// Nil — the default — discards them.
func WithLogger(l *slog.Logger) Option {
	return func(o *core.Options) { o.Logger = l }
}

// WithIncidentDir arms the incident flight recorder (requires
// WithTelemetry): when the telemetry watchdog sees a tier degrade or
// stall — or TriggerIncident is called — the monitor captures a
// self-contained diagnostic bundle under dir (registry snapshot, sampler
// history, completed traces at a boosted sampling rate, audit counters,
// health verdicts, cluster view, recent logs, goroutine and heap
// profiles). Bundles are JSON files named after their incident ID; the
// directory keeps the most recent ones (see WithIncidentRetention).
func WithIncidentDir(dir string) Option {
	return func(o *core.Options) { o.IncidentDir = dir }
}

// WithIncidentRetention bounds how many incident bundles the directory
// armed by WithIncidentDir keeps; the oldest are pruned first. n <= 0
// keeps the default (8).
func WithIncidentRetention(n int) Option {
	return func(o *core.Options) { o.IncidentRetain = n }
}

// TelemetryServer is a live introspection endpoint started by
// ServeTelemetry.
type TelemetryServer = telemetry.Server

// ServeTelemetry exposes reg at addr: /metrics (JSON snapshot),
// /metrics/prom (Prometheus text), /metrics/history (sampled series and
// rates), /traces (span traces as Chrome trace_event JSON), /healthz
// (watchdog verdict, 503 when stalled), /cluster/metrics,
// /cluster/metrics/prom and /cluster/healthz (the federated member view;
// 404 unless clustered), /debug/incidents (incident bundles; 404 without
// WithIncidentDir), /debug/vars (expvar), and /debug/pprof/* (runtime
// profiles). Close the returned server to stop. addr may use port 0;
// Addr() reports the bound address.
func ServeTelemetry(addr string, reg *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}

// FetchTelemetry retrieves a /metrics JSON snapshot from a running
// ServeTelemetry endpoint (url is e.g. "http://127.0.0.1:9090/metrics").
// WriteTelemetryText renders such a snapshot for humans.
func FetchTelemetry(url string) (map[string]any, error) {
	return telemetry.FetchSnapshot(url)
}

// WriteTelemetryText renders a snapshot — live from Telemetry.Snapshot()
// or fetched with FetchTelemetry — as sorted name-per-line text (the
// `fsmon -status` format).
func WriteTelemetryText(w io.Writer, snap map[string]any) error {
	return telemetry.WriteSnapshotText(w, snap)
}

// TelemetrySampler is the background time-series sampler: it snapshots
// the registry on a fixed interval into a bounded ring, from which
// per-second rates derive (served at /metrics/history), and each tick
// evaluates the attached watchdog health model.
type TelemetrySampler = telemetry.Sampler

// TelemetryHealth is the watchdog health model: threshold rules over the
// sampler's retained series producing per-tier ok/degraded/stalled
// verdicts (served at /healthz, 503 when stalled).
type TelemetryHealth = telemetry.Health

// HealthReport is one watchdog evaluation: the worst tier status plus
// every tier's verdict and reasons.
type HealthReport = telemetry.HealthReport

// Trace is a completed per-event span chain: one (tier, timestamp) span
// for every hop from changelog read to application delivery.
type Trace = telemetry.Trace

// StartTelemetrySampler attaches the background time-series sampler to
// reg and starts it (interval <= 0 selects the one-second default). The
// registry holds at most one sampler; repeated calls return it. With a
// sampler attached, a ServeTelemetry endpoint's /metrics/history serves
// the retained window and derived rates.
func StartTelemetrySampler(reg *Telemetry, interval time.Duration) *TelemetrySampler {
	return reg.StartSampler(interval, 0)
}

// StartTelemetryWatchdog arms the full self-monitoring loop on reg: it
// starts the sampler (if not already running), builds the built-in health
// rule set (pipeline stage stall, queue saturation, cursor-lag and
// changelog-backlog growth, resolution error spikes), and attaches it so
// /healthz serves verdicts and every sampler tick evaluates it, logging
// tier transitions to logger. Close the returned model to stop the
// watchdog.
func StartTelemetryWatchdog(reg *Telemetry, logger *slog.Logger) *TelemetryHealth {
	return StartTelemetryWatchdogWith(reg, TelemetryHealthOptions{Logger: logger})
}

// TelemetryHealthOptions tunes the watchdog built by
// StartTelemetryWatchdogWith: rule thresholds, the transition logger, and
// the sampler retention backing the rules (SamplerHistory).
type TelemetryHealthOptions = telemetry.HealthOptions

// TelemetryTransition is one per-tier status change as passed to the
// flight recorder.
type TelemetryTransition = telemetry.Transition

// StartTelemetryWatchdogWith is StartTelemetryWatchdog with explicit
// options: it starts the sampler with opts.SamplerHistory retained
// samples (0 = default 256), builds the rule set from opts, and attaches
// the model so /healthz serves verdicts and each sampler tick evaluates
// it — one loop samples and judges.
// When the registry has a flight recorder armed (WithIncidentDir), every
// ok → degraded/stalled transition additionally triggers an incident
// capture. Close the returned model to stop the watchdog.
func StartTelemetryWatchdogWith(reg *Telemetry, opts TelemetryHealthOptions) *TelemetryHealth {
	s := reg.StartSampler(0, opts.SamplerHistory)
	if s == nil {
		return nil
	}
	h := telemetry.NewHealth(s, opts)
	reg.SetHealth(h)
	return h
}

// EnableTraceSampling arms deterministic 1-in-n per-event span tracing on
// every monitor built over reg: sampled events' batches carry a span
// chain across collect → resolve → publish → partition → store →
// republish → deliver, and completed traces land in the registry's ring
// (served at /traces as Chrome trace_event JSON). n == 1 traces every
// event; n <= 0 disables. Call before the monitor is built — the trace
// ring must exist when collectors start. Collectors re-read the
// effective rate on every batch, so the flight recorder's adaptive
// boost (temporarily tightening 1-in-n during an incident window)
// applies live without a restart.
func EnableTraceSampling(reg *Telemetry, n int) {
	reg.EnableTracing(n, 0)
}

// Traces returns the completed span chains retained in reg's trace ring,
// oldest first (nil when tracing was never enabled).
func Traces(reg *Telemetry) []Trace {
	return reg.Traces().Snapshot()
}

// WriteChromeTrace renders completed traces as Chrome trace_event JSON —
// loadable in chrome://tracing or Perfetto. The /traces endpoint serves
// the same document.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	return telemetry.WriteChromeTrace(w, traces)
}

// FetchTelemetryHealth retrieves a /healthz verdict from a running
// ServeTelemetry endpoint. ok mirrors the HTTP verdict: true for 200,
// false for 503 (stalled); the report is valid either way.
func FetchTelemetryHealth(url string) (rep HealthReport, ok bool, err error) {
	return telemetry.FetchHealth(url)
}

// IncidentInfo summarizes one captured diagnostic bundle: incident ID,
// capture time, what tripped (trigger, tier, from/to status, reasons),
// and the bundle's file name under the incident directory.
type IncidentInfo = telemetry.IncidentInfo

// FetchIncidents lists the diagnostic bundles a running ServeTelemetry
// endpoint retains, newest first (url is e.g.
// "http://127.0.0.1:9090/debug/incidents"). Fetch one bundle's full JSON
// at <url>/<incident-id>.
func FetchIncidents(url string) ([]IncidentInfo, error) {
	return telemetry.FetchIncidents(url)
}

// TriggerRemoteIncident asks a running ServeTelemetry endpoint to
// capture a diagnostic bundle now (url is e.g.
// "http://127.0.0.1:9090/debug/incidents/trigger") and returns the
// captured bundle's JSON. The server must have a flight recorder armed
// (WithIncidentDir, or fsmon -incident-dir).
func TriggerRemoteIncident(url string) ([]byte, error) {
	return telemetry.TriggerRemoteIncident(url)
}

// ClusterHealthReport is the federated cluster rollup served at
// /cluster/healthz: the worst-of status across every member's watchdog
// verdict (a dead member counts as stalled) plus per-member state.
type ClusterHealthReport = telemetry.ClusterReport

// ClusterMemberHealth is one member's state inside a ClusterHealthReport:
// node ID, assignment epoch, owned partitions, heartbeat and snapshot
// ages, verdict, and the dead flag.
type ClusterMemberHealth = telemetry.ClusterMember

// TelemetryAudit is the delivery-conservation auditor: per-partition flow
// counters at every tier boundary (captured → published → stored →
// republished → delivered) and sequence gap/dup detectors, exported as
// fsmon.audit.* gauges and watched by the conservation-violation rule.
type TelemetryAudit = telemetry.Audit

// EnableConservationAudit attaches the delivery-conservation auditor to
// reg over parts store partitions. Monitors built over reg report their
// tier boundaries on it; in steady state the tiers balance to zero and
// any sequence gap or duplicate trips the conservation-violation watchdog
// rule. Must be called before the monitor is built (components read the
// handle at startup); clustered deployments attach it automatically.
func EnableConservationAudit(reg *Telemetry, parts int) *TelemetryAudit {
	return reg.EnableAudit(parts)
}

// FetchClusterHealth retrieves a /cluster/healthz rollup from a running
// ServeTelemetry endpoint over a clustered monitor. ok mirrors the HTTP
// verdict: true for 200, false for 503 (a member is stalled or dead); the
// report is valid either way. Non-clustered endpoints answer 404, which
// returns an error.
func FetchClusterHealth(url string) (rep ClusterHealthReport, ok bool, err error) {
	return telemetry.FetchClusterHealth(url)
}

// Watch monitors a real directory on the host filesystem, selecting the
// native backend for the current platform (inotify on Linux, polling
// elsewhere).
func Watch(path string, opts ...Option) (*Monitor, error) {
	o := core.Options{
		Storage: dsi.StorageInfo{Platform: runtime.GOOS, FSType: "local", Root: path},
	}
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(o)
}

// WatchSim monitors a simulated filesystem through the platform's
// simulated native API ("sim-linux", "sim-darwin", "sim-bsd",
// "sim-windows").
func WatchSim(fs *SimFS, platform, path string, opts ...Option) (*Monitor, error) {
	o := core.Options{
		Storage: dsi.StorageInfo{Platform: platform, FSType: "local", Root: path},
		Backend: fs,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(o)
}

// WatchLustre monitors a (simulated) Lustre cluster through the scalable
// monitor: one collector per MDS, LRU-cached fid2path resolution, and a
// message-queue aggregator. mount is the client mount path events are
// reported under. cacheSize 0 selects the paper's best value (5000);
// pass a negative cacheSize to disable the cache.
func WatchLustre(cluster *LustreCluster, mount string, cacheSize int, opts ...Option) (*Monitor, error) {
	o := core.Options{
		Storage:   dsi.StorageInfo{Platform: runtime.GOOS, FSType: "lustre", Root: mount},
		Recursive: true,
	}
	o.Lustre.CacheSize = cacheSize // lustredsi reads 0 as its default, < 0 as off
	for _, opt := range opts {
		opt(&o)
	}
	// Options are applied before the backend is built so knobs like
	// WithStorePartitions reach the deployment; WithBackend still wins.
	if o.Backend == nil {
		o.Backend = &lustredsi.Backend{Cluster: cluster, DeployOptions: o.Lustre}
	}
	return core.New(o)
}

// SpectrumCluster is a simulated IBM Spectrum Scale deployment with File
// Audit Logging.
type SpectrumCluster = spectrum.Cluster

// SpectrumConfig describes a simulated Spectrum Scale deployment.
type SpectrumConfig = spectrum.Config

// NewSpectrumCluster builds a simulated Spectrum Scale file system.
func NewSpectrumCluster(cfg SpectrumConfig) (*SpectrumCluster, error) {
	return spectrum.New(cfg)
}

// WatchSpectrum monitors a (simulated) Spectrum Scale cluster by tailing
// its File Audit Logging fileset — the extension path the paper sketches
// for a second distributed file system (§II-B2). mount is the client
// mount path events are reported under ("" = /gpfs/<fsname>).
func WatchSpectrum(cluster *SpectrumCluster, mount string, opts ...Option) (*Monitor, error) {
	o := core.Options{
		Storage:   dsi.StorageInfo{Platform: runtime.GOOS, FSType: "spectrum", Root: mount},
		Backend:   cluster,
		Recursive: true,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(o)
}

// StorageInfo describes a storage target for DSI selection (platform,
// filesystem type, root).
type StorageInfo = dsi.StorageInfo

// MountSpec describes one backend mounted at a prefix of a composed
// monitor's unified namespace.
type MountSpec = core.MountSpec

// MountStats is per-mount accounting (captured, shadowed, dropped, errors)
// found in Stats.Mounts.
type MountStats = mount.PointStats

// ErrNotComposed is returned by AttachMount/DetachMount on a monitor that
// was started single-backend.
var ErrNotComposed = mount.ErrNotComposed

// MountOption customizes one mount of a composed monitor.
type MountOption func(*core.MountSpec)

// MountBackend passes the storage handle to this mount's DSI factory (a
// *SimFS, *LustreCluster, *ObjectBucket, ...).
func MountBackend(backend any) MountOption {
	return func(s *core.MountSpec) { s.Backend = backend }
}

// MountDSI pins a specific backend by name for this mount instead of
// registry auto-selection.
func MountDSI(name string) MountOption {
	return func(s *core.MountSpec) { s.DSIName = name }
}

// MountRecursive monitors the whole subtree under this mount's root.
func MountRecursive() MountOption {
	return func(s *core.MountSpec) { s.Recursive = true }
}

// MountBuffer sets this mount's DSI channel capacity (0 = default).
func MountBuffer(n int) MountOption {
	return func(s *core.MountSpec) { s.Buffer = n }
}

// WithMount grafts a backend into the monitor's namespace at prefix: the
// registry selects a DSI for storage (unless MountDSI pins one), and its
// events are reported with paths rewritten under prefix. Repeat the option
// to compose several backends; deeper prefixes shadow shallower ones.
// Passing at least one WithMount switches the monitor's capture layer to a
// mount table — with none, the classic single-backend path is untouched.
func WithMount(prefix string, storage StorageInfo, opts ...MountOption) Option {
	spec := core.MountSpec{Prefix: prefix, Storage: storage}
	for _, opt := range opts {
		opt(&spec)
	}
	return func(o *core.Options) { o.Mounts = append(o.Mounts, spec) }
}

// Compose builds a monitor over several mounted backends with no primary
// storage: every WithMount contributes one mount, and subscribers see one
// unified event stream with per-mount path prefixes.
//
//	m, err := fsmonitor.Compose(
//		fsmonitor.WithMount("/lustre", fsmonitor.StorageInfo{FSType: "lustre"},
//			fsmonitor.MountBackend(cluster)),
//		fsmonitor.WithMount("/obj", fsmonitor.StorageInfo{FSType: "object"},
//			fsmonitor.MountBackend(bucket)),
//	)
func Compose(opts ...Option) (*Monitor, error) {
	o := core.Options{Storage: dsi.StorageInfo{Root: "/"}}
	for _, opt := range opts {
		opt(&o)
	}
	return core.New(o)
}

// ObjectBucket is a simulated flat-keyspace object store (PUT/DELETE/LIST
// with best-effort change notifications) — the third storage paradigm next
// to local filesystems and parallel filesystems.
type ObjectBucket = objectdsi.Bucket

// ObjectInfo describes one stored object.
type ObjectInfo = objectdsi.Object

// NewObjectBucket creates an empty simulated object store to mount with
// MountBackend (FSType "object").
func NewObjectBucket() *ObjectBucket { return objectdsi.NewBucket() }

// BackendScore is one registry candidate's suitability for a storage
// target, as reported by Registry().Scores.
type BackendScore = dsi.BackendScore

// Registry returns the default DSI registry (every built-in backend);
// custom backends register against it before building monitors.
func Registry() *dsi.Registry { return core.DefaultRegistry() }

// StoreOptions configures a standalone reliable event store.
type StoreOptions = eventstore.Options
