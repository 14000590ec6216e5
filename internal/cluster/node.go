package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pace"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/telemetry"
)

// DefaultRepublishTopic matches the classic aggregator's topic so a
// cluster node's republish stream is a drop-in for scalable.AggTopic.
const DefaultRepublishTopic = "agg.events"

// NodeOptions configures one aggregator node.
type NodeOptions struct {
	// ID names the node (required; ValidID).
	ID string
	// Endpoint is where the node's publisher binds (routed event traffic
	// in via peers' and collectors' subs, membership broadcasts and
	// republished batches out). Default "inproc://cluster-node-<id>".
	Endpoint string
	// Ctl is the join inbox bind (default "<Endpoint>.ctl" for inproc,
	// "tcp://127.0.0.1:0" when Endpoint is tcp).
	Ctl string
	// Advertise, when non-empty, is the externally reachable host
	// substituted into the advertised publisher and ctl addresses —
	// required when Endpoint/Ctl bind wildcard addresses (0.0.0.0) that
	// peers on other machines cannot dial.
	Advertise string
	// Join lists ctl inboxes of existing members.
	Join []string
	// CollectorEndpoints are publisher endpoints of the collectors this
	// node ingests from.
	CollectorEndpoints []string
	// Parts is the global store-partition count (required; identical on
	// every member).
	Parts int
	// Store is the base store configuration for owned partitions. The
	// JournalPath is the engine-wide base — each partition derives its
	// own "<path>.p<i>" segment, so any node can recover any partition's
	// segment after a handoff (shared or replicated storage in a real
	// deployment; one directory in tests).
	Store eventstore.Options
	// RepublishTopic is the base topic sequenced batches go out on
	// (default DefaultRepublishTopic; partitioned deployments append
	// ".p<part>" exactly like the classic aggregator).
	RepublishTopic string
	// Recovery is the advertised recovery-server address, set by the
	// deployment after it wraps the node in a server.
	Recovery string
	// EventOverhead is the accounted aggregation cost per event (default
	// 500ns), spent on the node's ingest throttle: one throttle per node
	// models each node as the paper's serial aggregator, so aggregate
	// cluster throughput scales with node count.
	EventOverhead time.Duration
	// HeartbeatInterval/FailAfter tune the membership failure detector.
	HeartbeatInterval time.Duration
	FailAfter         time.Duration
	// QueueSize is the intake subscription buffer (default
	// pipeline.DefaultAggregatorQueue).
	QueueSize int
	// Context aborts the node when canceled (Close/Kill remain the
	// explicit paths). Nil means Background.
	Context context.Context
	// Telemetry, when non-nil, mirrors the node under
	// "fsmon.cluster.<id>". Nil costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.Endpoint == "" {
		o.Endpoint = "inproc://cluster-node-" + o.ID
	}
	if o.Ctl == "" {
		if len(o.Endpoint) >= 6 && o.Endpoint[:6] == "tcp://" {
			o.Ctl = "tcp://127.0.0.1:0"
		} else {
			o.Ctl = o.Endpoint + ".ctl"
		}
	}
	if o.RepublishTopic == "" {
		o.RepublishTopic = DefaultRepublishTopic
	}
	if o.EventOverhead <= 0 {
		o.EventOverhead = 500 * time.Nanosecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = pipeline.DefaultAggregatorQueue
	}
	return o
}

// NodeStats is a snapshot of a node's counters.
type NodeStats struct {
	Received        uint64
	Stored          uint64
	Published       uint64
	StraysForwarded uint64
	Handoffs        uint64
	PartitionsOwned int
	Members         int
	Epoch           uint64
}

// Node is one member of the clustered aggregation tier: the PR 3
// aggregator rebuilt as a dynamic-partition owner. Its pipeline is the
// same subscribe → store → republish shape, but the partition of every
// batch is already decided (it rides in the routed topic), ownership of
// partitions changes with the assignment map, and batches that arrive
// for a partition the node no longer owns are forwarded to the current
// owner instead of stored — the zero-loss path during a reassignment
// window.
type Node struct {
	opts NodeOptions
	pub  *msgq.Pub
	sub  *msgq.Sub
	mem  *Membership

	pipe     *pipeline.Pipeline
	pool     *pipeline.Pool[events.Block]
	throttle *pace.Throttle

	smu     sync.Mutex
	stores  map[int]*eventstore.Store
	pending map[int]pendingAcquire // gained partitions fenced on the old owner's release
	relLog  map[int]releaseRec     // releases received (possibly before the map that needs them)
	prev    Assignment             // the previously applied map (previous owners for fencing)
	applied uint64                 // highest assignment epoch applied to the store set
	boot    bool                   // first assignment applied (its acquisitions are not handoffs)

	received  atomic.Uint64
	stored    atomic.Uint64
	published atomic.Uint64
	strays    atomic.Uint64
	handoffs  atomic.Uint64

	// aud is the shared delivery-conservation auditor (nil when telemetry
	// is off); owned partition stores report their appends on it, and the
	// republish stage counts its tier boundary.
	aud *telemetry.Audit

	slog      *slog.Logger
	closeOnce sync.Once
}

// NewNode creates a node: binds its publisher and join inbox and
// prepares (but does not start) membership. Callers set Recovery via
// SetRecovery between NewNode and Start so the advertised address can be
// derived from the node's own endpoints.
func NewNode(opts NodeOptions) (*Node, error) {
	opts = opts.withDefaults()
	if !ValidID(opts.ID) {
		return nil, fmt.Errorf("cluster: invalid node ID %q", opts.ID)
	}
	if opts.Parts < 1 {
		return nil, errors.New("cluster: NodeOptions.Parts must be >= 1")
	}
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind(opts.Endpoint); err != nil {
		return nil, err
	}
	n := &Node{
		opts:     opts,
		pub:      pub,
		sub:      msgq.NewSub(msgq.WithRecvBuffer(opts.QueueSize)),
		pool:     pipeline.NewPool(0, newPoolBlock, (*events.Block).Reset),
		throttle: pace.NewThrottle(),
		stores:   make(map[int]*eventstore.Store),
		pending:  make(map[int]pendingAcquire),
		relLog:   make(map[int]releaseRec),
	}
	n.slog = telemetry.ComponentLogger(opts.Logger, "node."+opts.ID)
	n.sub.Subscribe(msgq.NodeSubscription(opts.ID))
	// The observability plane hangs off the registry: the shared
	// conservation auditor and the federated cluster view (both idempotent
	// attaches — in-process multi-node deployments share one of each).
	// The federation's dead-member window matches the membership failure
	// detector so both flip within the same heartbeat budget.
	fa := opts.FailAfter
	if fa <= 0 {
		iv := opts.HeartbeatInterval
		if iv <= 0 {
			iv = DefaultHeartbeatInterval
		}
		fa = defaultFailFactor * iv
	}
	n.aud = opts.Telemetry.EnableAudit(opts.Parts)
	fed := opts.Telemetry.EnableFederation(fa)
	var snapshot func() []byte
	if fed != nil {
		snapshot = n.telemetryFrame
	}
	mem, err := NewMembership(MembershipOptions{
		Self:      MemberInfo{ID: opts.ID, Endpoint: AdvertiseEndpoint(pub.Addr(), opts.Advertise), Ctl: opts.Ctl},
		Pub:       pub,
		Join:      opts.Join,
		Parts:     opts.Parts,
		Interval:  opts.HeartbeatInterval,
		FailAfter: opts.FailAfter,
		Advertise: opts.Advertise,
		OnChange:          n.applyAssignment,
		OnPeer:            func(p MemberInfo) { _ = n.sub.Connect(p.Endpoint) },
		OnRelease:         n.onRelease,
		Federation:        fed,
		TelemetrySnapshot: snapshot,
		OnIncident:        n.onIncidentFrame,
		Logger:            opts.Logger,
	})
	if err != nil {
		pub.Close()
		return nil, err
	}
	n.mem = mem
	return n, nil
}

// telemetryFrame builds this node's published federation frame: its
// membership state plus its own registry slice (everything under
// "fsmon.cluster.<id>."), JSON-encoded for the cluster.telemetry topic.
func (n *Node) telemetryFrame() []byte {
	s := telemetry.BuildNodeSnapshot(n.opts.Telemetry, n.opts.ID, n.mem.Epoch(),
		n.mem.Assignment().Owned(n.opts.ID), n.mem.HeartbeatAge())
	frame, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	return frame
}

// SetRecovery records the advertised recovery-server address. Must be
// called before Start.
func (n *Node) SetRecovery(addr string) { n.mem.opts.Self.Recovery = addr; n.opts.Recovery = addr }

// Start connects the intake, applies the initial (single-member)
// assignment, starts membership, and builds the pipeline.
func (n *Node) Start() error {
	for _, ep := range n.opts.CollectorEndpoints {
		if err := n.sub.Connect(ep); err != nil {
			return err
		}
	}
	// A founding node applies its initial self-only map immediately; a
	// joiner waits for the first view that includes its seeds — opening
	// every partition store only to release most of them a heartbeat
	// later would overlap ownership with the current owners.
	if len(n.opts.Join) == 0 {
		n.applyAssignment(n.mem.Assignment())
	}
	n.mem.Start()
	n.pipe = pipeline.New(n.opts.Context)
	intake := pipeline.Source(n.pipe, "subscribe", pipeline.DefaultBatchDepth, n.intakeLoop)
	lanes := n.opts.Parts
	stamped := pipeline.ShardN(n.pipe, "store", pipeline.DefaultBatchDepth, lanes, intake,
		func(pb nodeBatch) int { return pb.part }, n.storeLane)
	pipeline.Sink(n.pipe, "republish", stamped, n.republishBatch)
	n.registerTelemetry(n.opts.Telemetry)
	// The flight recorder's cluster hook: incidents this process declares
	// are broadcast through this node's membership. In-process multi-node
	// deployments share one recorder and any member's pub reaches the
	// mesh, so the last-started node winning the hook is harmless.
	if fr := n.opts.Telemetry.Flight(); fr != nil {
		fr.SetBroadcast(n.BroadcastIncident)
	}
	n.slog.Debug("node started", "endpoint", n.pub.Addr(), "ctl", n.mem.Self().Ctl, "parts", n.opts.Parts)
	return nil
}

// onIncidentFrame routes a peer's incident declaration into the
// registry's flight recorder. The recorder is looked up per frame, so
// one armed after the node started still hears the cluster; CaptureRemote
// dedups by incident ID, so N in-process memberships delivering the same
// frame capture once.
func (n *Node) onIncidentFrame(id, from, reason string) {
	n.opts.Telemetry.Flight().CaptureRemote(id, from, reason)
}

// BroadcastIncident declares an incident to the cluster under the given
// ID — the publish half of cluster-coordinated capture (the receive half
// is every member's flight recorder).
func (n *Node) BroadcastIncident(id, reason string) {
	n.mem.BroadcastIncident(id, reason)
}

// newPoolBlock hands the store lane a bare decode or clone target, like the
// scalable aggregator's: everything the block holds arrives with the batch.
func newPoolBlock() *events.Block { return events.NewBlock(0, 0) }

// ID returns the node's member ID.
func (n *Node) ID() string { return n.opts.ID }

// Endpoint returns the node's advertised publisher endpoint (the bound
// address unless NodeOptions.Advertise rewrote the host).
func (n *Node) Endpoint() string { return n.mem.Self().Endpoint }

// CtlEndpoint returns the node's join inbox address — what other nodes
// pass as Join.
func (n *Node) CtlEndpoint() string { return n.mem.Self().Ctl }

// ConnectCollectors attaches additional collector publishers after Start —
// the deployment order is nodes first (collectors route on the cluster
// view, which needs running nodes), then collectors, then this hookup.
func (n *Node) ConnectCollectors(endpoints ...string) error {
	for _, ep := range endpoints {
		if err := n.sub.Connect(ep); err != nil {
			return err
		}
	}
	return nil
}

// Membership exposes the node's membership view (routing tables,
// WaitMembers in tests and deployments).
func (n *Node) Membership() *Membership { return n.mem }

// Parts returns the global partition count.
func (n *Node) Parts() int { return n.opts.Parts }

// OwnerTopic implements the collector Router contract against this
// node's view.
func (n *Node) OwnerTopic(part int) (string, bool) { return n.mem.OwnerTopic(part) }

// pendingAcquire fences a gained partition until its previous owner has
// provably stopped appending: a release broadcast from that owner, its
// death, or a full FailAfter window — whichever comes first — orders the
// old owner's segment close before the new owner's replay, so two live
// nodes never append to the same segment concurrently.
type pendingAcquire struct {
	prevOwner  string    // member whose release unfences the partition
	sinceEpoch uint64    // epoch of the map under which prevOwner owned it
	deadline   time.Time // FailAfter fallback against a lost release
}

// releaseRec is one received release broadcast, kept so a release that
// arrives before the assignment map needing it still unfences.
type releaseRec struct {
	from  string
	epoch uint64
}

// applyAssignment diffs the new map against the owned store set:
// partitions lost are flushed and closed (their journal segments are the
// handoff medium), then announced in a release broadcast; partitions
// gained from a still-live previous owner are fenced until that owner's
// release (or its death, or FailAfter) before being recovered from their
// segments, so the old and new owner never append concurrently. Maps
// apply in epoch order; duplicates and stale epochs are ignored.
func (n *Node) applyAssignment(a Assignment) {
	if a.Owner == nil {
		return
	}
	n.smu.Lock()
	if a.Epoch <= n.applied {
		n.smu.Unlock()
		return
	}
	n.applied = a.Epoch
	prev := n.prev
	if prev.Owner == nil && len(n.opts.Join) > 0 {
		// A joiner's first map: the cluster it joined was running the map
		// over the view without it. Assign is a pure function of the
		// member set, so that previous map — and each gained partition's
		// previous owner — is recomputable locally.
		var ids []string
		for _, p := range n.mem.Peers() {
			ids = append(ids, p.ID)
		}
		prev = Assign(0, n.opts.Parts, ids)
	}
	n.prev = a
	owned := make(map[int]bool, len(a.Owner))
	for _, p := range a.Owned(n.opts.ID) {
		owned[p] = true
	}
	var released []int
	for p, st := range n.stores {
		if owned[p] {
			continue
		}
		if err := st.Close(); err != nil {
			n.slog.Error("closing released partition", "partition", p, "err", err)
		}
		delete(n.stores, p)
		released = append(released, p)
		n.slog.Info("partition released", "partition", p, "epoch", a.Epoch, "owner", a.OwnerOf(p))
	}
	for p := range n.pending {
		if !owned[p] {
			delete(n.pending, p)
		}
	}
	n.checkPendingLocked()
	for p := range owned {
		if n.stores[p] != nil {
			continue
		}
		if _, fenced := n.pending[p]; fenced {
			continue
		}
		prevOwner := prev.OwnerOf(p)
		if rel, ok := n.relLog[p]; ok && rel.from == prevOwner && rel.epoch >= prev.Epoch {
			prevOwner = "" // already released by the old owner
		}
		if prevOwner == "" || prevOwner == n.opts.ID || !n.mem.Alive(prevOwner) {
			n.openPartitionLocked(p, a.Epoch)
			continue
		}
		n.pending[p] = pendingAcquire{
			prevOwner:  prevOwner,
			sinceEpoch: prev.Epoch,
			deadline:   time.Now().Add(n.mem.FailAfter()),
		}
		n.slog.Info("partition acquisition fenced on old owner", "partition", p, "epoch", a.Epoch, "old_owner", prevOwner)
	}
	n.boot = true
	n.smu.Unlock()
	// The broadcast happens after the stores are closed: receivers may
	// open the segments the moment they see it.
	if len(released) > 0 {
		n.mem.BroadcastRelease(a.Epoch, released)
	}
}

// openPartitionLocked recovers a gained partition from its journal
// segment and continues its sequence lane. Caller holds n.smu.
func (n *Node) openPartitionLocked(p int, epoch uint64) {
	st, err := eventstore.OpenPartitionStore(n.opts.Parts, p, n.opts.Store)
	if err != nil {
		n.slog.Error("opening acquired partition", "partition", p, "err", err)
		return
	}
	st.SetAudit(n.aud, p)
	n.stores[p] = st
	delete(n.pending, p)
	delete(n.relLog, p)
	if n.boot {
		n.handoffs.Add(1)
		n.slog.Info("partition acquired", "partition", p, "epoch", epoch, "last_seq", st.LastSeq())
	}
}

// checkPendingLocked promotes fenced acquisitions whose previous owner
// has died or whose FailAfter deadline has passed. Caller holds n.smu;
// callers on the store and ownership paths drive it, so a fence never
// outlives its condition by more than one access.
func (n *Node) checkPendingLocked() {
	if len(n.pending) == 0 {
		return
	}
	for p, pa := range n.pending {
		if !n.mem.Alive(pa.prevOwner) || time.Now().After(pa.deadline) {
			n.openPartitionLocked(p, n.applied)
		}
	}
}

// onRelease consumes a peer's release broadcast: fenced partitions
// waiting on that owner open immediately; others are logged so a release
// arriving before the assignment map that needs it still counts.
func (n *Node) onRelease(from string, epoch uint64, parts []int) {
	n.smu.Lock()
	defer n.smu.Unlock()
	for _, p := range parts {
		if p < 0 || p >= n.opts.Parts {
			continue
		}
		if pa, fenced := n.pending[p]; fenced && pa.prevOwner == from && epoch >= pa.sinceEpoch {
			n.openPartitionLocked(p, epoch)
			continue
		}
		if rel, ok := n.relLog[p]; !ok || epoch >= rel.epoch {
			n.relLog[p] = releaseRec{from: from, epoch: epoch}
		}
	}
}

// nodeBatch is one routed message: partition parsed from the topic, plus
// the wire payload or the shared in-process block.
type nodeBatch struct {
	part    int
	payload []byte
	blk     *events.Block
}

// intakeLoop receives routed batches. The partition rides in the topic,
// so no decode is needed to shard; messages outside the routed namespace
// (malformed or misaddressed) are dropped with a log line.
func (n *Node) intakeLoop(ctx context.Context, emit func(nodeBatch) bool) error {
	for {
		m, ok := n.sub.Recv(ctx)
		if !ok {
			return nil
		}
		id, part, ok := msgq.ParseNodeTopic(m.Topic)
		if !ok || id != n.opts.ID || part >= n.opts.Parts {
			n.slog.Warn("dropping misaddressed batch", "topic", m.Topic)
			continue
		}
		if !emit(nodeBatch{part: part, payload: m.Payload, blk: m.Block}) {
			return nil
		}
	}
}

// store returns the owned store for a partition (nil when not owned).
// Each access also advances pending fenced acquisitions, so the store
// path promotes a fence the moment its deadline or owner-death condition
// holds rather than waiting for the next membership event.
func (n *Node) store(part int) *eventstore.Store {
	n.smu.Lock()
	defer n.smu.Unlock()
	n.checkPendingLocked()
	return n.stores[part]
}

// storeLane persists one routed batch into its partition's store,
// assigning the lane's sequence numbers, or forwards it to the current
// owner when this node does not (or no longer does) own the partition.
// ShardN guarantees one lane per partition, so within-partition order is
// preserved through the store.
func (n *Node) storeLane(ctx context.Context, pb nodeBatch) (repBatch, bool) {
	blk := pb.blk
	if blk == nil {
		blk = n.pool.Get()
		if err := events.DecodeBlockInto(blk, pb.payload); err != nil {
			n.pool.Put(blk)
			n.slog.Warn("dropping undecodable batch", "partition", pb.part, "bytes", len(pb.payload), "err", err)
			return repBatch{}, false
		}
	} else {
		// In-process pointer fast path: the received block is frozen, so
		// sequence assignment works on a clone — seqs copied, every other
		// column, the arena and the wire image shared.
		c := n.pool.Get()
		c.CloneFrom(blk)
		blk = c
	}
	cnt := blk.Len()
	if cnt == 0 {
		n.pool.Put(blk)
		return repBatch{}, false
	}
	n.received.Add(uint64(cnt))
	hopStamped := false
	for {
		if st := n.store(pb.part); st != nil {
			n.throttle.Spend(time.Duration(cnt) * n.opts.EventOverhead)
			if _, err := st.AppendBlock(blk); err == nil {
				n.stored.Add(uint64(cnt))
				if tr := blk.Trace(); tr != nil {
					// The span carries the owning node's ID, so a traced
					// event that crossed a handoff or stray-forward renders
					// as one chain with each hop attributed to its node.
					tr.AppendNode(events.TierStore, time.Now().UnixNano(), n.opts.ID)
					blk.MarkTraceDirty()
				}
				return repBatch{part: pb.part, blk: blk, n: cnt}, true
			} else if n.store(pb.part) == st {
				// Still the owner: a real store failure, not a handoff
				// race. Same policy as the classic aggregator — drop the
				// batch, keep the service.
				n.slog.Error("store append failed, dropping batch", "partition", pb.part, "events", cnt, "err", err)
				n.pool.Put(blk)
				return repBatch{}, false
			}
			continue // lost the partition mid-append: re-route
		}
		// Not the owner: forward to whoever is. The routed topic goes out
		// on our own pub — every member's intake is subscribed to its
		// inbox on every peer pub, so the forward is one hop.
		if topic, ok := n.mem.OwnerTopic(pb.part); ok && topic != msgq.NodeTopic(n.opts.ID, pb.part) {
			if tr := blk.Trace(); tr != nil && !hopStamped {
				// Record the forward hop under this node's identity once —
				// the receiving owner adds its own store span next.
				tr.AppendNode(events.TierPartition, time.Now().UnixNano(), n.opts.ID)
				blk.MarkTraceDirty()
				hopStamped = true
			}
			if delivered, shared := n.pub.PublishBlockCtx(ctx, topic, blk); delivered > 0 {
				n.strays.Add(uint64(cnt))
				if !shared {
					n.pool.Put(blk)
				}
				return repBatch{}, false
			}
		}
		// Owner unknown, not yet subscribed, or it is us but the store
		// has not opened yet (assignment in flight): wait and re-check.
		select {
		case <-ctx.Done():
			n.pool.Put(blk)
			return repBatch{}, false
		case <-time.After(time.Millisecond):
		}
	}
}

// repBatch is a sequenced batch ready to republish.
type repBatch struct {
	part int
	blk  *events.Block
	n    int
}

// republishBatch mirrors the classic aggregator's republish stage: the
// partition's own topic when the tier is partitioned, the bare base
// topic when Parts == 1 — byte-identical to the single aggregator.
func (n *Node) republishBatch(ctx context.Context, rb repBatch) {
	topic := n.opts.RepublishTopic
	if n.opts.Parts > 1 {
		topic = msgq.PartitionTopic(n.opts.RepublishTopic, rb.part)
	}
	if tr := rb.blk.Trace(); tr != nil {
		tr.AppendNode(events.TierRepublish, time.Now().UnixNano(), n.opts.ID)
		rb.blk.MarkTraceDirty()
	}
	_, shared := n.pub.PublishBlockCtx(ctx, topic, rb.blk)
	n.published.Add(uint64(rb.n))
	n.aud.Republished(rb.part, rb.n)
	if !shared {
		n.pool.Put(rb.blk)
	}
}

// OwnedPartitions returns the sorted partitions this node currently
// owns. The recovery server sends it alongside query results so the
// fan-out client can verify cluster-wide coverage.
func (n *Node) OwnedPartitions() []int {
	n.smu.Lock()
	defer n.smu.Unlock()
	n.checkPendingLocked()
	out := make([]int, 0, len(n.stores))
	for p := range n.stores {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Snapshot is one atomic capture of the node's owned store set. The
// recovery server derives the coverage frame and the query results from
// the same snapshot, so a partition released between the two cannot be
// claimed as covered while its events are missing — if a captured store
// closes mid-query, Since fails with ErrClosed, the round errors, and
// the fan-out client retries against the new owner.
type Snapshot struct {
	parts  int
	owned  []int
	stores []*eventstore.Store
}

// RecoverySnapshot captures the current owned store set.
func (n *Node) RecoverySnapshot() *Snapshot {
	n.smu.Lock()
	defer n.smu.Unlock()
	n.checkPendingLocked()
	s := &Snapshot{parts: n.opts.Parts}
	for p := range n.stores {
		s.owned = append(s.owned, p)
	}
	sort.Ints(s.owned)
	s.stores = make([]*eventstore.Store, 0, len(s.owned))
	for _, p := range s.owned {
		s.stores = append(s.stores, n.stores[p])
	}
	return s
}

// OwnedPartitions returns the partitions captured in the snapshot.
func (s *Snapshot) OwnedPartitions() []int { return s.owned }

// Partitions returns the global partition count.
func (s *Snapshot) Partitions() int { return s.parts }

// Since queries the captured stores with one cursor for every partition.
func (s *Snapshot) Since(seq uint64, max int) ([]events.Event, error) {
	cursors := make([]uint64, s.parts)
	for i := range cursors {
		cursors[i] = seq
	}
	return s.SinceVector(cursors, max)
}

// SinceVector queries the captured stores past the per-partition
// cursors, merged in global seq order. A store closed since the capture
// returns its error — the caller's retry loop re-snapshots.
func (s *Snapshot) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != s.parts {
		return nil, fmt.Errorf("cluster: cursor vector has %d partitions, snapshot has %d", len(cursors), s.parts)
	}
	lists := make([][]events.Event, 0, len(s.stores))
	for i, st := range s.stores {
		l, err := st.Since(cursors[s.owned[i]], max)
		if err != nil {
			return nil, err
		}
		lists = append(lists, l)
	}
	return eventstore.MergeBySeq(lists, max), nil
}

// Partitions returns the global partition count (recovery contract).
func (n *Node) Partitions() int { return n.opts.Parts }

// Since returns up to max events with Seq > seq from the node's owned
// partitions, merged in global seq order.
func (n *Node) Since(seq uint64, max int) ([]events.Event, error) {
	cursors := make([]uint64, n.opts.Parts)
	for i := range cursors {
		cursors[i] = seq
	}
	return n.SinceVector(cursors, max)
}

// SinceVector returns up to max events past the per-partition cursors,
// from owned partitions only, merged in global seq order.
func (n *Node) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	if len(cursors) != n.opts.Parts {
		return nil, fmt.Errorf("cluster: cursor vector has %d partitions, node has %d", len(cursors), n.opts.Parts)
	}
	n.smu.Lock()
	type owned struct {
		part int
		st   *eventstore.Store
	}
	stores := make([]owned, 0, len(n.stores))
	for p, st := range n.stores {
		stores = append(stores, owned{p, st})
	}
	n.smu.Unlock()
	lists := make([][]events.Event, 0, len(stores))
	for _, o := range stores {
		l, err := o.st.Since(cursors[o.part], max)
		if err != nil {
			return nil, err
		}
		lists = append(lists, l)
	}
	return eventstore.MergeBySeq(lists, max), nil
}

// LastSeqVector returns the highest stored seq per partition, zero for
// partitions this node does not own.
func (n *Node) LastSeqVector() []uint64 {
	out := make([]uint64, n.opts.Parts)
	n.smu.Lock()
	for p, st := range n.stores {
		out[p] = st.LastSeq()
	}
	n.smu.Unlock()
	return out
}

// AckVector flags, per owned partition i, events up to cursors[i] as
// reported.
func (n *Node) AckVector(cursors []uint64) error {
	if len(cursors) != n.opts.Parts {
		return fmt.Errorf("cluster: cursor vector has %d partitions, node has %d", len(cursors), n.opts.Parts)
	}
	n.smu.Lock()
	defer n.smu.Unlock()
	for p, st := range n.stores {
		if err := st.MarkReported(cursors[p]); err != nil {
			return err
		}
	}
	return nil
}

// Purge removes reported events from every owned partition.
func (n *Node) Purge() (int, error) {
	n.smu.Lock()
	defer n.smu.Unlock()
	total := 0
	for _, st := range n.stores {
		c, err := st.Purge()
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	n.smu.Lock()
	ownedN := len(n.stores)
	n.smu.Unlock()
	return NodeStats{
		Received:        n.received.Load(),
		Stored:          n.stored.Load(),
		Published:       n.published.Load(),
		StraysForwarded: n.strays.Load(),
		Handoffs:        n.handoffs.Load(),
		PartitionsOwned: ownedN,
		Members:         n.mem.Members(),
		Epoch:           n.mem.Epoch(),
	}
}

// registerTelemetry mirrors the node into reg under "fsmon.cluster.<id>"
// — the per-node cluster surface the watchdog and /healthz read.
func (n *Node) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := "fsmon.cluster." + n.opts.ID
	reg.GaugeFunc(prefix+".members", func() float64 { return float64(n.mem.Members()) })
	reg.GaugeFunc(prefix+".epoch", func() float64 { return float64(n.mem.Epoch()) })
	reg.GaugeFunc(prefix+".partitions_owned", func() float64 {
		n.smu.Lock()
		defer n.smu.Unlock()
		return float64(len(n.stores))
	})
	reg.GaugeFunc(prefix+".handoffs_total", func() float64 { return float64(n.handoffs.Load()) })
	reg.GaugeFunc(prefix+".heartbeat_age_ms", func() float64 {
		return float64(n.mem.HeartbeatAge()) / float64(time.Millisecond)
	})
	reg.GaugeFunc(prefix+".strays_forwarded", func() float64 { return float64(n.strays.Load()) })
	reg.GaugeFunc(prefix+".received", func() float64 { return float64(n.received.Load()) })
	reg.GaugeFunc(prefix+".stored", func() float64 { return float64(n.stored.Load()) })
}

// shutdown is the shared teardown; graceful controls the leave
// broadcast.
func (n *Node) shutdown(graceful bool) {
	n.closeOnce.Do(func() {
		n.sub.Close()
		if n.pipe != nil {
			n.pipe.Drain(pipeline.DefaultDrainGrace)
		}
		n.smu.Lock()
		for p, st := range n.stores {
			if err := st.Close(); err != nil {
				n.slog.Error("closing partition store", "partition", p, "err", err)
			}
			delete(n.stores, p)
		}
		n.smu.Unlock()
		if graceful {
			n.mem.Close()
		} else {
			n.mem.Kill()
		}
		n.pub.Close()
	})
}

// Close stops the node gracefully: the intake drains, owned partitions
// flush and close, and a leave broadcast lets peers take the partitions
// over immediately.
func (n *Node) Close() { n.shutdown(true) }

// Kill stops the node abruptly — no leave broadcast, peers must detect
// the silence. Tests use it to exercise failure-driven handoff; the
// partitions' durability is whatever the journal Sync policy guaranteed
// at the moment of death.
func (n *Node) Kill() { n.shutdown(false) }
