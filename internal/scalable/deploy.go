package scalable

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/dsi/mount"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/metrics"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// DeployOptions configures a full scalable-monitor deployment: a collector
// per MDS of the cluster and per mounted backend, and the aggregation tier
// they feed — one aggregator, or a cluster of them.
type DeployOptions struct {
	// Mounts are mounted backends deployed beside (or, with a nil cluster,
	// instead of) the per-MDS collectors: one collector drains each DSI
	// into the same aggregation tier, its events prefixed into one
	// namespace with root "/". The deployment owns the DSIs — Close, or a
	// failed Deploy, closes every one.
	Mounts []MountSource
	// MountPoint is the client mount path events are reported under.
	MountPoint string
	// CacheSize is each collector's fid2path cache capacity (0 or less =
	// no cache).
	CacheSize int
	// CacheShards is each collector's fid2path cache shard count
	// (0 = pipeline.DefaultCacheShards).
	CacheShards int
	// NegativeTTL is how long collectors negative-cache stale-FID
	// resolution failures; <= 0 disables (the default). Use
	// pipeline.DefaultNegativeTTL when enabling.
	NegativeTTL time.Duration
	// ResolveWorkers is each collector's resolve-stage parallelism
	// (0 = pipeline.DefaultResolveWorkers, the paper's serial
	// collector).
	ResolveWorkers int
	// Transport selects endpoints: "inproc" (default) or "tcp"
	// (127.0.0.1 with kernel-assigned ports).
	Transport string
	// Store configures the tier's reliable store engine, which Deploy
	// builds in both shapes; the zero value is in-memory and unbounded.
	// JournalPath is the engine-wide base every partition derives its
	// "<path>.p<i>" segment from (the unmodified path with one partition):
	// the single aggregator reopens it, so a redeploy on the same path
	// continues every lane's sequence numbers, and cluster members open
	// and close its segments as ownership moves — it is the handoff medium.
	Store eventstore.Options
	// StorePartitions shards the aggregation tier: the reliable store,
	// the aggregator's store lanes, and the republish topics all split
	// into this many partitions (default pipeline.DefaultStorePartitions
	// = 1, the paper's single serial store — Tables IV/VII re-runs stay
	// calibrated). A Changelog collector's batches go to the partition of
	// its MDT index; a mounted backend's collector splits each batch by
	// path hash at the source and publishes one per-partition topic each.
	StorePartitions int
	// ClusterNodes deploys the aggregation tier as a cluster of this many
	// aggregators (members of one internal/cluster membership) instead of
	// the single one: collectors route each batch slice to the partition
	// owner's inbox topic, every node stores and republishes the
	// partitions it owns, and consumers recover through a fan-out across
	// all nodes' recovery servers. 0 (the default) keeps the classic
	// single-aggregator deployment. StorePartitions is raised to at least
	// ClusterNodes so every node owns work.
	ClusterNodes int
	// ClusterJoin lists publisher endpoints of an existing cluster's
	// members: the deployed nodes join that cluster through them instead
	// of founding their own.
	ClusterJoin []string
	// ClusterListen is the first deployed node's publisher bind (e.g.
	// "tcp://0.0.0.0:7400") so nodes on other machines can join it; empty
	// uses the Transport default. Its host also becomes the bind host for
	// every other cluster socket this process opens (remaining node
	// publishers, recovery servers), all on ephemeral ports —
	// a listen/join deployment is reachable end to end, not just node 0.
	ClusterListen string
	// ClusterNodePrefix prefixes the deployed nodes' member IDs
	// ("<prefix>0".."<prefix>N-1"). A founding deployment defaults to "n";
	// a joining deployment (ClusterJoin set) defaults to a host+pid-derived
	// prefix so two processes joining the same cluster can never collide on
	// member IDs. Must not contain '.' (IDs ride in routed topic names).
	ClusterNodePrefix string
	// ClusterAdvertise is the externally reachable host substituted into
	// every advertised cluster address (publishers, recovery servers). Required when ClusterListen binds a wildcard host
	// ("0.0.0.0") that peers on other machines cannot dial back.
	ClusterAdvertise string
	// BatchSize overrides the collectors' batch bound (Changelog records
	// per read; events per batch of a mounted backend).
	BatchSize int
	// PollInterval overrides the collectors' delivery retry wait
	// (CollectorOptions.PollInterval).
	PollInterval time.Duration
	// Context aborts every deployed service when canceled (Close remains
	// the graceful path). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors every deployed component into the
	// unified registry (fsmon.collector.mdt<N>.*, fsmon.mount.<name>.*,
	// fsmon.aggregator.*, fsmon.store.p<i>.*, fsmon.process.*) and enables
	// event latency tracing. Nil (the default) costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs from every
	// deployed service; nil discards.
	Logger *slog.Logger
}

// Monitor is a running scalable-monitor deployment. Exactly one of
// Aggregator (classic) and Nodes (clustered) is populated.
type Monitor struct {
	Collectors []*Collector
	Aggregator *Aggregator
	// Nodes are the in-process members of the clustered aggregation tier
	// (DeployOptions.ClusterNodes > 0).
	Nodes      []*Aggregator
	opts       DeployOptions
	engine     *eventstore.Sharded // the single aggregator's store, opened by Deploy (classic only)
	router     *cluster.Membership // collector-side observer view (clustered only)
	recoveries []*RecoveryServer   // one per in-process node (clustered only)
	parts      int                 // cluster partition count (clustered only)
}

// endpoint picks where one of the deployment's services binds: a
// kernel-assigned loopback port, or an inproc name derived from the
// *Monitor — never from a process-global string or the file system's
// identity — so any number of deployments coexist in one process.
func (m *Monitor) endpoint(role string) string {
	if m.opts.Transport == "tcp" {
		return "tcp://127.0.0.1:0"
	}
	return fmt.Sprintf("inproc://%s-%p", role, m)
}

// tier is the aggregation tier whichever shape it has: the single
// aggregator, or the in-process cluster members.
func (m *Monitor) tier() []*Aggregator {
	if m.Aggregator != nil {
		return []*Aggregator{m.Aggregator}
	}
	return m.Nodes
}

// Deploy starts a collector on every MDS of the cluster (which may be nil
// when opts.Mounts is not empty) and on every mounted backend, and the
// aggregation tier subscribed to all of them — the Fig. 4 topology ("an
// aggregator service on MGS that polls all MDSs concurrently and pushes all
// events in a single queue to the clients"), with heterogeneous storage
// behind the collectors. What the collectors capture and whether the tier
// is one aggregator or a cluster are independent: the collectors differ
// only in their Router.
func Deploy(lc *lustre.Cluster, opts DeployOptions) (*Monitor, error) {
	if opts.MountPoint == "" {
		opts.MountPoint = "/mnt/lustre"
	}
	if opts.StorePartitions <= 0 {
		opts.StorePartitions = pipeline.DefaultStorePartitions
	}
	if lc == nil && len(opts.Mounts) == 0 {
		return nil, errors.New("scalable: Deploy needs a cluster or at least one DeployOptions.Mounts entry")
	}
	m := &Monitor{opts: opts}
	var cols []CollectorOptions
	for i := 0; lc != nil && i < lc.NumMDS(); i++ {
		cols = append(cols, CollectorOptions{Cluster: lc, MDT: i})
	}
	for _, ms := range opts.Mounts {
		cols = append(cols, CollectorOptions{Mount: ms})
	}
	// A started collector closes its DSI; a failed Deploy must also close
	// the ones no collector got as far as owning.
	fail := func(err error) (*Monitor, error) {
		m.Close()
		for _, co := range cols[len(m.Collectors):] {
			if co.Mount.DSI != nil {
				_ = co.Mount.DSI.Close()
			}
		}
		return nil, err
	}
	clustered := opts.ClusterNodes > 0 || len(opts.ClusterJoin) > 0 || opts.ClusterListen != ""
	// Two mounts may share neither a prefix nor a name: the name is their
	// topic and their telemetry prefix ("/a/b" and "/a_b" are both a_b).
	prefixes, names := map[string]bool{}, map[string]bool{}
	for i := len(cols) - len(opts.Mounts); i < len(cols); i++ {
		cp, name, err := mountName(cols[i].Mount)
		if err != nil {
			return fail(err)
		}
		if prefixes[cp] || names[name] {
			return fail(fmt.Errorf("%w: %s (name %s)", mount.ErrMounted, cp, name))
		}
		prefixes[cp], names[name] = true, true
		if !clustered {
			// A mount has no MDT to key its partition on: its collector
			// splits at the source, as a clustered one does.
			cols[i].Router = partitionRoute(mountTopic(name), opts.StorePartitions)
		}
	}

	// Clustered, the order matters: members first, then the routing
	// observer (which needs a live member to join), then the collectors
	// (whose Router is the observer's view), and finally the member-side
	// subscriptions to the collectors.
	if clustered {
		if err := m.startMembers(); err != nil {
			return fail(err)
		}
		for i := range cols {
			cols[i].Router = m.router
		}
	}
	endpoints := make([]string, 0, len(cols))
	for i, co := range cols {
		co.MountPoint = opts.MountPoint
		co.CacheSize = opts.CacheSize
		co.CacheShards = opts.CacheShards
		co.NegativeTTL = opts.NegativeTTL
		co.ResolveWorkers = opts.ResolveWorkers
		co.Endpoint = m.endpoint(fmt.Sprintf("collector%d", i))
		co.BatchSize = opts.BatchSize
		co.PollInterval = opts.PollInterval
		co.Context = opts.Context
		co.Telemetry = opts.Telemetry
		co.Logger = opts.Logger
		col, err := NewCollector(co)
		if err != nil {
			return fail(err)
		}
		m.Collectors = append(m.Collectors, col)
		endpoints = append(endpoints, col.Endpoint())
	}
	if clustered {
		for _, n := range m.Nodes {
			if err := n.ConnectCollectors(endpoints...); err != nil {
				return fail(err)
			}
		}
	} else {
		// Open, not New, on a journal: a second deployment on the same path
		// replays it and continues each lane where the first stopped.
		mk := eventstore.NewSharded
		if opts.Store.JournalPath != "" {
			mk = eventstore.OpenSharded
		}
		var err error
		if m.engine, err = mk(opts.StorePartitions, opts.Store); err != nil {
			return fail(err)
		}
		agg, err := NewAggregator(AggregatorOptions{
			CollectorEndpoints: endpoints,
			Endpoint:           m.endpoint("aggregator"),
			Engine:             m.engine,
			Context:            opts.Context,
			Telemetry:          opts.Telemetry,
			Logger:             opts.Logger,
		})
		if err != nil {
			return fail(err)
		}
		m.Aggregator = agg
	}
	// Process-wide resource gauges ride the same registry so one snapshot
	// answers both "how fast" and "at what cost" (Tables IV/VII).
	metrics.Register(opts.Telemetry)
	return m, nil
}

// NewConsumer attaches a consumer to this deployment's aggregation tier
// with fault recovery. The consumer adopts the tier's partition count
// automatically; against a cluster it subscribes to every member's
// republish stream and recovers through the coverage-checked fan-out across
// every member's recovery server.
func (m *Monitor) NewConsumer(filter iface.Filter, sinceSeq uint64) (*Consumer, error) {
	return m.newConsumer(filter, sinceSeq, nil)
}

// NewConsumerVector attaches a consumer resuming from per-partition
// cursors (a previous consumer's LastSeqVector) — the precise restart path
// for partitioned and clustered deployments.
func (m *Monitor) NewConsumerVector(filter iface.Filter, sinceVector []uint64) (*Consumer, error) {
	return m.newConsumer(filter, 0, sinceVector)
}

func (m *Monitor) newConsumer(filter iface.Filter, sinceSeq uint64, sinceVector []uint64) (*Consumer, error) {
	opts := ConsumerOptions{
		Filter:      filter,
		SinceSeq:    sinceSeq,
		SinceVector: sinceVector,
		Context:     m.opts.Context,
		Telemetry:   m.opts.Telemetry,
		Logger:      m.opts.Logger,
	}
	if m.router != nil {
		eps, recs := m.clusterEndpoints()
		opts.AggregatorEndpoints = eps
		opts.Recover = NewRecoveryFanout(m.parts, recs...)
		opts.StorePartitions = m.parts
	} else {
		opts.AggregatorEndpoint = m.Aggregator.Endpoint()
		opts.Recover = m.Aggregator
		opts.StorePartitions = m.Aggregator.Partitions()
	}
	return NewConsumer(opts)
}

// Ack records that a consumer has delivered everything up to cursors[i] on
// each partition i (len = the tier's partition count) and purges what that
// covers from the tier's store; a cluster member skips the partitions it
// does not hold. Without it the default, unbounded store keeps every event.
func (m *Monitor) Ack(cursors []uint64) error {
	for _, a := range m.tier() {
		if err := a.AckVector(cursors); err != nil {
			return err
		}
		if _, err := a.Purge(); err != nil {
			return err
		}
	}
	return nil
}

// ResetAccounting restarts every component's utilization window.
func (m *Monitor) ResetAccounting() {
	for _, c := range m.Collectors {
		c.ResetAccounting()
	}
	for _, a := range m.tier() {
		a.ResetAccounting()
	}
}

// Stats gathers per-component snapshots.
type Stats struct {
	Collectors []CollectorStats
	Aggregator AggregatorStats
	// Nodes holds per-member snapshots of the clustered aggregation tier
	// (empty for classic deployments).
	Nodes []AggregatorStats
}

// Stats returns a deployment-wide snapshot.
func (m *Monitor) Stats() Stats {
	st := Stats{}
	for _, c := range m.Collectors {
		st.Collectors = append(st.Collectors, c.Stats())
	}
	if m.Aggregator != nil {
		st.Aggregator = m.Aggregator.Stats()
	}
	for _, n := range m.Nodes {
		st.Nodes = append(st.Nodes, n.Stats())
	}
	return st
}

// Close stops every component upstream-first: collectors (and with them
// the mounted DSIs), then the routing observer, the recovery servers, the
// aggregation tier, and last the store Deploy opened under it.
func (m *Monitor) Close() {
	for _, c := range m.Collectors {
		c.Close()
	}
	if m.router != nil {
		m.router.Close()
	}
	for _, r := range m.recoveries {
		r.Close()
	}
	for _, a := range m.tier() {
		a.Close()
	}
	if m.engine != nil {
		m.engine.Close()
	}
}
