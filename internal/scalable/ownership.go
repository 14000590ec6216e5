package scalable

import (
	"encoding/json"
	"sync"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/telemetry"
)

// This file is what a cluster member adds to the aggregator: membership,
// and the fenced movement of partitions in and out of its engine as the
// assignment map changes. None of it runs for a classic aggregator, whose
// engine holds every partition from start to finish.

// ownership is a member's partition acquire/release state, guarded by mu.
// Which partitions are held right now is the engine's own state
// (eventstore.Sharded.OwnedPartitions); this is what decides when one may
// be opened.
type ownership struct {
	mu      sync.Mutex
	pending map[int]pendingAcquire // gained partitions fenced on the old owner's release
	relLog  map[int]releaseRec     // releases received (possibly before the map that needs them)
	prev    cluster.Assignment     // the previously applied map (previous owners for fencing)
	applied uint64                 // highest assignment epoch applied to the engine
	boot    bool                   // first assignment applied (its acquisitions are not handoffs)
}

// pendingAcquire fences a gained partition until its previous owner has
// provably stopped appending: a release broadcast from that owner, its
// death, or a full FailAfter window — whichever comes first — orders the
// old owner's segment close before the new owner's replay, so two live
// members never append to the same segment concurrently.
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

// joinCluster binds the member's join inbox and prepares (but does not
// start) its membership. The observability plane hangs off the registry:
// the federated cluster view is an idempotent attach — in-process members
// share one — and its dead-member window matches the membership failure
// detector so both flip within the same heartbeat budget.
func (a *Aggregator) joinCluster() error {
	a.own.pending = make(map[int]pendingAcquire)
	a.own.relLog = make(map[int]releaseRec)
	opts := a.opts
	fa := opts.FailAfter
	if fa <= 0 {
		iv := opts.HeartbeatInterval
		if iv <= 0 {
			iv = cluster.DefaultHeartbeatInterval
		}
		fa = cluster.DefaultFailFactor * iv
	}
	fed := opts.Telemetry.EnableFederation(fa)
	var snapshot func() []byte
	if fed != nil {
		snapshot = a.telemetryFrame
	}
	mem, err := cluster.NewMembership(cluster.MembershipOptions{
		Self:              cluster.MemberInfo{ID: opts.ID, Endpoint: cluster.AdvertiseEndpoint(a.pub.Addr(), opts.Advertise), Ctl: opts.Ctl},
		Pub:               a.pub,
		Join:              opts.Join,
		Parts:             a.parts,
		Interval:          opts.HeartbeatInterval,
		FailAfter:         opts.FailAfter,
		Advertise:         opts.Advertise,
		OnChange:          a.applyAssignment,
		OnPeer:            func(p cluster.MemberInfo) { _ = a.sub.Connect(p.Endpoint) },
		OnRelease:         a.onRelease,
		Federation:        fed,
		TelemetrySnapshot: snapshot,
		// A peer's incident declaration goes to the registry's flight
		// recorder. The recorder is looked up per frame, so one armed after
		// the member started still hears the cluster; CaptureRemote dedups by
		// incident ID, so N in-process memberships delivering the same frame
		// capture once.
		OnIncident: func(id, from, reason string) { opts.Telemetry.Flight().CaptureRemote(id, from, reason) },
		Logger:     opts.Logger,
	})
	if err != nil {
		return err
	}
	a.mem = mem
	return nil
}

// telemetryFrame builds this member's published federation frame: its
// membership state plus its own registry slice (everything under
// "fsmon.cluster.<id>."), JSON-encoded for the cluster.telemetry topic.
func (a *Aggregator) telemetryFrame() []byte {
	s := telemetry.BuildNodeSnapshot(a.opts.Telemetry, a.opts.ID, a.mem.Epoch(),
		a.mem.Assignment().Owned(a.opts.ID), a.mem.HeartbeatAge())
	frame, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	return frame
}

// SetRecovery records the member's advertised recovery-server address.
// Must be called before Start.
func (a *Aggregator) SetRecovery(addr string) { a.mem.SetRecovery(addr) }

// ID returns the member ID ("" for a classic aggregator).
func (a *Aggregator) ID() string { return a.opts.ID }

// CtlEndpoint returns the member's join inbox address — what other members
// pass as Join.
func (a *Aggregator) CtlEndpoint() string { return a.mem.Self().Ctl }

// Membership exposes the member's membership view (nil for a classic
// aggregator).
func (a *Aggregator) Membership() *cluster.Membership { return a.mem }

// applyAssignment diffs the new map against the held partitions:
// partitions lost are flushed and closed (their journal segments are the
// handoff medium), then announced in a release broadcast; partitions
// gained from a still-live previous owner are fenced until that owner's
// release (or its death, or FailAfter) before being recovered from their
// segments, so the old and new owner never append concurrently. Maps
// apply in epoch order; duplicates and stale epochs are ignored.
func (a *Aggregator) applyAssignment(as cluster.Assignment) {
	if as.Owner == nil {
		return
	}
	o := &a.own
	o.mu.Lock()
	if as.Epoch <= o.applied {
		o.mu.Unlock()
		return
	}
	o.applied = as.Epoch
	prev := o.prev
	if prev.Owner == nil && len(a.opts.Join) > 0 {
		// A joiner's first map: the cluster it joined was running the map
		// over the view without it. Assign is a pure function of the
		// member set, so that previous map — and each gained partition's
		// previous owner — is recomputable locally.
		var ids []string
		for _, p := range a.mem.Peers() {
			ids = append(ids, p.ID)
		}
		prev = cluster.Assign(0, a.parts, ids)
	}
	o.prev = as
	owned := make(map[int]bool, len(as.Owner))
	for _, p := range as.Owned(a.opts.ID) {
		owned[p] = true
	}
	var released []int
	for _, p := range a.engine.OwnedPartitions() {
		if owned[p] {
			continue
		}
		if err := a.engine.ClosePartition(p); err != nil {
			a.slog.Error("closing released partition", "partition", p, "err", err)
		}
		released = append(released, p)
		a.slog.Info("partition released", "partition", p, "epoch", as.Epoch, "owner", as.OwnerOf(p))
	}
	for p := range o.pending {
		if !owned[p] {
			delete(o.pending, p)
		}
	}
	a.checkPendingLocked()
	for p := range owned {
		if a.engine.Partition(p) != nil {
			continue
		}
		if _, fenced := o.pending[p]; fenced {
			continue
		}
		prevOwner := prev.OwnerOf(p)
		if rel, ok := o.relLog[p]; ok && rel.from == prevOwner && rel.epoch >= prev.Epoch {
			prevOwner = "" // already released by the old owner
		}
		if prevOwner == "" || prevOwner == a.opts.ID || !a.mem.Alive(prevOwner) {
			a.openPartitionLocked(p, as.Epoch)
			continue
		}
		o.pending[p] = pendingAcquire{
			prevOwner:  prevOwner,
			sinceEpoch: prev.Epoch,
			deadline:   time.Now().Add(a.mem.FailAfter()),
		}
		a.slog.Info("partition acquisition fenced on old owner", "partition", p, "epoch", as.Epoch, "old_owner", prevOwner)
	}
	o.boot = true
	o.mu.Unlock()
	// The broadcast happens after the stores are closed: receivers may
	// open the segments the moment they see it.
	if len(released) > 0 {
		a.mem.BroadcastRelease(as.Epoch, released)
	}
}

// openPartitionLocked recovers a gained partition from its journal
// segment and continues its sequence lane. Caller holds own.mu.
func (a *Aggregator) openPartitionLocked(p int, epoch uint64) {
	if err := a.engine.OpenPartition(p); err != nil {
		a.slog.Error("opening acquired partition", "partition", p, "err", err)
		return
	}
	delete(a.own.pending, p)
	delete(a.own.relLog, p)
	if a.own.boot {
		a.handoffs.Add(1)
		a.slog.Info("partition acquired", "partition", p, "epoch", epoch, "last_seq", a.engine.Partition(p).LastSeq())
	}
}

// checkPendingLocked promotes fenced acquisitions whose previous owner
// has died or whose FailAfter deadline has passed. Caller holds own.mu.
func (a *Aggregator) checkPendingLocked() {
	for p, pa := range a.own.pending {
		if !a.mem.Alive(pa.prevOwner) || time.Now().After(pa.deadline) {
			a.openPartitionLocked(p, a.own.applied)
		}
	}
}

// onRelease consumes a peer's release broadcast: fenced partitions
// waiting on that owner open immediately; others are logged so a release
// arriving before the assignment map that needs it still counts.
func (a *Aggregator) onRelease(from string, epoch uint64, parts []int) {
	o := &a.own
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range parts {
		if p < 0 || p >= a.parts {
			continue
		}
		if pa, fenced := o.pending[p]; fenced && pa.prevOwner == from && epoch >= pa.sinceEpoch {
			a.openPartitionLocked(p, epoch)
			continue
		}
		if rel, ok := o.relLog[p]; !ok || epoch >= rel.epoch {
			o.relLog[p] = releaseRec{from: from, epoch: epoch}
		}
	}
}

// advanceFences promotes fenced acquisitions whose condition now holds. The
// store path and the coverage reads below all pass through it, so a fence
// opens the moment its deadline or owner-death condition holds rather than
// waiting for the next membership event.
func (a *Aggregator) advanceFences() {
	a.own.mu.Lock()
	a.checkPendingLocked()
	a.own.mu.Unlock()
}

// store returns the held store for a partition (nil when not held).
func (a *Aggregator) store(part int) *eventstore.Store {
	if a.mem != nil {
		a.advanceFences()
	}
	return a.engine.Partition(part)
}

// OwnedPartitions returns the sorted partitions this aggregator currently
// holds (every one, for a classic aggregator).
func (a *Aggregator) OwnedPartitions() []int {
	a.advanceFences()
	return a.engine.OwnedPartitions()
}

// RecoverySnapshot implements RecoverySnapshotter for a cluster member:
// one atomic capture of the held partitions, from which the recovery server
// derives both the coverage frame and the query results. A classic
// aggregator answers for every partition and returns nil — no coverage
// frame, the classic recovery wire.
func (a *Aggregator) RecoverySnapshot() RecoverySourceSnapshot {
	if a.mem == nil {
		return nil
	}
	a.advanceFences()
	return a.engine.Snapshot()
}

// releaseAll flushes and closes every held partition (shutdown).
func (a *Aggregator) releaseAll() {
	a.own.mu.Lock()
	defer a.own.mu.Unlock()
	for _, p := range a.engine.OwnedPartitions() {
		if err := a.engine.ClosePartition(p); err != nil {
			a.slog.Error("closing partition store", "partition", p, "err", err)
		}
	}
}
