package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fsmonitor/internal/msgq"
	"fsmonitor/internal/telemetry"
)

// Membership defaults.
const (
	// DefaultHeartbeatInterval is how often a member broadcasts a
	// heartbeat on MembershipTopic.
	DefaultHeartbeatInterval = 250 * time.Millisecond
	// DefaultFailFactor: a peer is declared dead after this many missed
	// heartbeat intervals.
	DefaultFailFactor = 4
	// helloTimeout bounds a join hello to an unreachable ctl inbox.
	helloTimeout = 5 * time.Second
)

// MembershipOptions configures one member's (or observer's) view of the
// cluster.
type MembershipOptions struct {
	// Self describes this member. ID is required (ValidID); Endpoint and
	// Ctl must be the already-bound addresses of Pub and the ctl inbox.
	// Observers leave Endpoint empty.
	Self MemberInfo
	// Observer makes this a receive-only participant: it sends join
	// hellos and tracks the member set, but broadcasts no heartbeats and
	// is excluded from views (and so owns no partitions). Collectors and
	// consumers use an observer to resolve partition owners.
	Observer bool
	// Pub is the member's bound publisher, shared with the event path;
	// membership broadcasts ride on it. Required unless Observer.
	Pub *msgq.Pub
	// Join lists ctl inboxes of known members to announce ourselves to.
	// The transitive gossip in heartbeats completes the mesh from any
	// single live seed.
	Join []string
	// Parts is the global store-partition count assignments map over.
	Parts int
	// Interval is the heartbeat period (default
	// DefaultHeartbeatInterval); FailAfter is the silence after which a
	// peer is expired (default 4×Interval).
	Interval  time.Duration
	FailAfter time.Duration
	// Advertise, when non-empty, is the externally reachable host
	// substituted into the advertised ctl address — required when the ctl
	// inbox binds a wildcard address (0.0.0.0) that peers cannot dial.
	Advertise string
	// OnChange is called (from the membership goroutine) with each new
	// assignment map. Callbacks must apply maps idempotently and in
	// epoch order — stale epochs may be delivered and must be ignored.
	OnChange func(Assignment)
	// OnPeer is called once per newly discovered peer.
	OnPeer func(MemberInfo)
	// OnRelease is called (from the membership goroutine) when a peer
	// broadcasts that it has closed the given partitions' stores — the
	// handoff fence a new owner waits on before opening them.
	OnRelease func(from string, epoch uint64, parts []int)
	// Federation, when non-nil, receives the telemetry snapshots peers
	// publish on TelemetryTopic (and our own, fed locally — a pub is not
	// self-subscribed). A graceful leave removes the member from the view;
	// silent death does not, so the federation's age-based dead-member
	// detection stays visible.
	Federation *telemetry.Federation
	// TelemetrySnapshot, when non-nil on a non-observer, builds this
	// member's published telemetry frame (a JSON-encoded NodeSnapshot);
	// beat broadcasts it on TelemetryTopic at the heartbeat cadence.
	TelemetrySnapshot func() []byte
	// OnIncident is called (from the membership goroutine) when a peer
	// declares an incident on TelemetryTopic — the cluster-coordinated
	// capture hook: the receiver snapshots its own diagnostic bundle
	// stamped with the shared incident ID. Callbacks must dedup by ID
	// (the declarer may be heard through several in-process memberships).
	OnIncident func(id, from, reason string)
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

// peerState tracks one remote member.
type peerState struct {
	info     MemberInfo
	lastSeen time.Time
	epoch    uint64
}

// ctrlMsg is the JSON control frame for both the heartbeat topic and the
// ctl hello inbox. Heartbeats gossip the sender's live peer list, which
// is what completes the mesh: a node that learns an unknown member from
// gossip connects to its endpoint and hellos its ctl so the link becomes
// mutual.
type ctrlMsg struct {
	Kind  string       `json:"k"` // "hello", "hb", "leave", "release"
	Epoch uint64       `json:"e,omitempty"`
	From  MemberInfo   `json:"from"`
	Peers []MemberInfo `json:"peers,omitempty"`
	// Parts carries a release broadcast's closed partitions.
	Parts []int `json:"parts,omitempty"`
}

// incidentFrame is the incident-declaration control frame broadcast on
// TelemetryTopic: the tripping member announces an incident ID so every
// member captures a diagnostic bundle over the same window and stamps
// the shared ID into it. The "k" discriminator separates it from the
// NodeSnapshot frames riding the same topic — a federation fed one by
// mistake would decode an empty Node and drop it, so coexistence is
// safe in both directions.
type incidentFrame struct {
	Kind   string `json:"k"` // "incident"
	ID     string `json:"id"`
	From   string `json:"from"`
	Reason string `json:"reason,omitempty"`
}

// decodeIncidentFrame parses a TelemetryTopic payload as an incident
// declaration; ok is false for any other frame shape.
func decodeIncidentFrame(payload []byte) (incidentFrame, bool) {
	var f incidentFrame
	if err := json.Unmarshal(payload, &f); err != nil {
		return f, false
	}
	return f, f.Kind == "incident" && f.ID != ""
}

// pendingRelease is one release broadcast rebroadcast with heartbeats
// until it expires: the first publish races the new owner's subscription
// to our pub, so a lost frame must heal before the FailAfter fallback.
type pendingRelease struct {
	epoch uint64
	parts []int
	until time.Time
}

// pendingIncident is one incident declaration rebroadcast with
// heartbeats until it expires, for the same reason releases are: the
// first publish races still-connecting peer subscriptions, and a member
// that misses the frame would capture nothing for the shared window.
// Receivers dedup by incident ID, so repeats cost nothing.
type pendingIncident struct {
	payload []byte
	until   time.Time
}

// Membership maintains the live member set and the derived assignment
// map. The protocol is deliberately consensus-free: views converge
// because heartbeats gossip the full peer list, and assignments converge
// because Assign is a pure function of the view. Epochs give handoff an
// order, not agreement.
type Membership struct {
	opts MembershipOptions

	sub *msgq.Sub  // membership broadcasts from every connected peer pub
	ctl *msgq.Pull // join hellos

	mu       sync.Mutex
	peers    map[string]*peerState
	dead     map[string]time.Time // tombstones: recently expired/left members
	helloed  map[string]time.Time // ctl addr -> last hello sent
	epoch    uint64
	maxSeen  uint64
	assign   Assignment
	viewKey  string        // member IDs of the last computed view
	viewCh   chan struct{} // closed and replaced on every peer add/remove
	conflict *MemberInfo   // another live participant claiming our ID
	relOut   []pendingRelease
	incOut   []pendingIncident
	started  bool
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NewMembership creates an unstarted membership participant. The ctl
// inbox is bound here (at Self.Ctl); Start begins the protocol.
func NewMembership(opts MembershipOptions) (*Membership, error) {
	if !ValidID(opts.Self.ID) {
		return nil, fmt.Errorf("cluster: invalid member ID %q", opts.Self.ID)
	}
	if opts.Parts < 1 {
		return nil, errors.New("cluster: MembershipOptions.Parts must be >= 1")
	}
	if !opts.Observer && (opts.Pub == nil || opts.Self.Endpoint == "") {
		return nil, errors.New("cluster: members need a bound Pub and Self.Endpoint")
	}
	if opts.Self.Ctl == "" {
		return nil, errors.New("cluster: MembershipOptions.Self.Ctl is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultHeartbeatInterval
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = DefaultFailFactor * opts.Interval
	}
	opts.Logger = telemetry.ComponentLogger(opts.Logger, "cluster."+opts.Self.ID)
	ctl := msgq.NewPull(0)
	if err := ctl.Bind(opts.Self.Ctl); err != nil {
		return nil, err
	}
	// Resolve tcp://:0 binds to the real port, then substitute the
	// advertised host: a wildcard bind (0.0.0.0) is reachable but not
	// dialable, so peers must be told the external address.
	opts.Self.Ctl = AdvertiseEndpoint(ctl.Addr(), opts.Advertise)
	m := &Membership{
		opts:    opts,
		ctl:     ctl,
		sub:     msgq.NewSub(),
		peers:   make(map[string]*peerState),
		dead:    make(map[string]time.Time),
		helloed: make(map[string]time.Time),
		viewCh:  make(chan struct{}),
		stopped: make(chan struct{}),
	}
	m.sub.Subscribe(MembershipTopic)
	if opts.Federation != nil || opts.OnIncident != nil {
		m.sub.Subscribe(TelemetryTopic)
	}
	m.recompute() // initial single-member (or empty, for observers) view
	return m, nil
}

// Self returns this participant's info (with resolved addresses).
func (m *Membership) Self() MemberInfo { return m.opts.Self }

// SetRecovery records the member's advertised recovery-server address, set
// by the deployment after it wraps the member in a server. Must be called
// before Start: hellos and heartbeats carry Self unsynchronized.
func (m *Membership) SetRecovery(addr string) { m.opts.Self.Recovery = addr }

// Start begins heartbeating and announces to the Join seeds.
func (m *Membership) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	for _, ctl := range m.opts.Join {
		m.hello(ctl)
	}
	m.wg.Add(3)
	go m.ctlLoop()
	go m.subLoop()
	go m.tickLoop()
}

// hello announces ourselves to a peer's ctl inbox (bounded by
// helloTimeout; an unreachable inbox is abandoned, and gossip retries
// later). Caller must not hold m.mu... it may, actually: the send happens
// on a fresh goroutine.
func (m *Membership) hello(ctlAddr string) {
	if ctlAddr == "" || ctlAddr == m.opts.Self.Ctl {
		return
	}
	payload, err := json.Marshal(ctrlMsg{Kind: "hello", From: m.opts.Self, Epoch: m.epochNow()})
	if err != nil {
		return
	}
	push, err := msgq.NewPush(ctlAddr)
	if err != nil {
		m.opts.Logger.Warn("bad ctl endpoint", "ctl", ctlAddr, "err", err)
		return
	}
	go func() {
		t := time.AfterFunc(helloTimeout, push.Close)
		defer t.Stop()
		defer push.Close()
		_ = push.Send(msgq.Message{Topic: "cluster.hello", Payload: payload})
	}()
}

func (m *Membership) epochNow() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// ctlLoop serves the join inbox: a hello makes the sender a known peer
// (connecting to its pub) and is answered with a hello back so the
// sender learns our pub too — the two-way handshake PUB/SUB alone cannot
// bootstrap.
func (m *Membership) ctlLoop() {
	defer m.wg.Done()
	for msg := range m.ctl.C() {
		var c ctrlMsg
		if err := json.Unmarshal(msg.Payload, &c); err != nil || c.Kind != "hello" {
			continue
		}
		if c.From.Endpoint == "" {
			// Observer hello: it has no pub to track, but it needs our
			// info to connect — answer and move on.
			m.hello(c.From.Ctl)
			continue
		}
		m.observe(c.From, c.Epoch, true)
		if c.From.ID == m.opts.Self.ID && c.From.Ctl != "" && c.From.Ctl != m.opts.Self.Ctl {
			// A hello claiming our own ID from another address: observe
			// recorded the conflict on our side; answer it (gated like any
			// hello) so the sender hears our claim and can abort too.
			m.mu.Lock()
			last, ok := m.helloed[c.From.Ctl]
			gate := !ok || time.Since(last) >= m.opts.FailAfter
			if gate {
				m.helloed[c.From.Ctl] = time.Now()
			}
			m.mu.Unlock()
			if gate {
				m.hello(c.From.Ctl)
			}
		}
	}
}

// subLoop consumes membership broadcasts from every peer pub we are
// connected to.
func (m *Membership) subLoop() {
	defer m.wg.Done()
	for msg := range m.sub.C() {
		if msg.Topic == TelemetryTopic {
			// Two frame shapes share the topic: incident declarations
			// (discriminated by the "k" key, which NodeSnapshot frames
			// lack) and federated telemetry snapshots.
			if f, ok := decodeIncidentFrame(msg.Payload); ok {
				if m.opts.OnIncident != nil {
					m.opts.OnIncident(f.ID, f.From, f.Reason)
				}
				continue
			}
			m.opts.Federation.UpdateJSON(msg.Payload)
			continue
		}
		var c ctrlMsg
		if err := json.Unmarshal(msg.Payload, &c); err != nil {
			continue
		}
		switch c.Kind {
		case "hb":
			// The sender itself is firsthand contact; only the gossiped
			// peer list is secondhand.
			m.observe(c.From, c.Epoch, true)
			for _, p := range c.Peers {
				m.observe(p, c.Epoch, false)
			}
		case "leave":
			m.drop(c.From.ID, "leave")
		case "release":
			// A release is also a liveness signal from its sender.
			m.observe(c.From, c.Epoch, true)
			if m.opts.OnRelease != nil && len(c.Parts) > 0 {
				m.opts.OnRelease(c.From.ID, c.Epoch, c.Parts)
			}
		}
	}
}

// observe folds a member sighting into the peer table. Direct sightings
// (a heartbeat from the member itself, or its hello) refresh liveness;
// gossiped ones only introduce unknown members — a gossiper's stale
// entry must not keep a dead peer alive, so only firsthand contact
// resets the expiry clock. replyHello answers a ctl hello so the link
// becomes mutual.
func (m *Membership) observe(info MemberInfo, epoch uint64, direct bool) {
	if info.ID == m.opts.Self.ID {
		// Traffic claiming our own ID from different addresses means two
		// live participants share one ID — routed topics and the
		// assignment map would interleave them. Record it so a joining
		// deployment can abort instead of corrupting sequence lanes.
		if (info.Endpoint != "" && info.Endpoint != m.opts.Self.Endpoint) ||
			(info.Ctl != "" && info.Ctl != m.opts.Self.Ctl) {
			m.mu.Lock()
			first := m.conflict == nil
			c := info
			m.conflict = &c
			m.mu.Unlock()
			if first {
				m.opts.Logger.Error("member ID conflict: another live participant claims this ID",
					"id", info.ID, "their_endpoint", info.Endpoint, "their_ctl", info.Ctl)
			}
		}
		return
	}
	if !ValidID(info.ID) || info.Endpoint == "" {
		return
	}
	m.mu.Lock()
	if epoch > m.maxSeen {
		m.maxSeen = epoch
	}
	if died, entombed := m.dead[info.ID]; entombed {
		if direct {
			// The member itself is talking again — it's back.
			delete(m.dead, info.ID)
		} else if time.Since(died) < m.opts.FailAfter {
			// Gossip listing a member we just expired is almost always
			// the gossiper's stale view of the same death. Without this
			// tombstone two surviving members resurrect a dead peer off
			// each other's heartbeats forever.
			m.mu.Unlock()
			return
		} else {
			delete(m.dead, info.ID)
		}
	}
	p, known := m.peers[info.ID]
	if known {
		p.info = info
		if direct {
			p.lastSeen = time.Now()
		}
		if epoch > p.epoch {
			p.epoch = epoch
		}
		m.mu.Unlock()
		return
	}
	sendHello := false
	if last, ok := m.helloed[info.Ctl]; !ok || time.Since(last) >= m.opts.FailAfter {
		sendHello = true
		m.helloed[info.Ctl] = time.Now()
	}
	m.mu.Unlock()
	// Hear the new peer's broadcasts BEFORE it becomes countable in the
	// view: a WaitMembers return implies the links to every counted peer
	// exist, so a broadcast sent right after (e.g. an immediate leave)
	// cannot be lost to a still-connecting subscription.
	_ = m.sub.Connect(info.Endpoint)
	m.mu.Lock()
	if _, raced := m.peers[info.ID]; raced {
		// A concurrent observe (ctl and sub loops race) registered it
		// while we were connecting; Connect is idempotent, nothing to do.
		m.mu.Unlock()
		return
	}
	m.peers[info.ID] = &peerState{info: info, lastSeen: time.Now(), epoch: epoch}
	m.signalViewLocked()
	m.mu.Unlock()
	// Hello it so it hears ours (the helloed map gates repeats —
	// receivers are idempotent anyway).
	if sendHello {
		m.hello(info.Ctl)
	}
	if m.opts.OnPeer != nil {
		m.opts.OnPeer(info)
	}
	m.changed()
}

// drop removes a peer (leaving a tombstone against gossip resurrection)
// and recomputes the view.
func (m *Membership) drop(id, why string) {
	m.mu.Lock()
	_, known := m.peers[id]
	delete(m.peers, id)
	if known {
		m.dead[id] = time.Now()
		m.signalViewLocked()
	}
	for tid, t := range m.dead {
		if time.Since(t) > 10*m.opts.FailAfter {
			delete(m.dead, tid)
		}
	}
	m.mu.Unlock()
	if known {
		if why == "leave" {
			// Only a graceful leave forgets the member's telemetry; a
			// silent death must keep aging in the federation until the
			// rollup reports it dead.
			m.opts.Federation.Remove(id)
		}
		m.opts.Logger.Info("member removed", "peer", id, "reason", why)
		m.changed()
	}
}

// tickLoop broadcasts heartbeats and expires silent peers.
func (m *Membership) tickLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopped:
			return
		case <-t.C:
		}
		m.beat()
		var expired []string
		m.mu.Lock()
		for id, p := range m.peers {
			if time.Since(p.lastSeen) > m.opts.FailAfter {
				expired = append(expired, id)
			}
		}
		m.mu.Unlock()
		for _, id := range expired {
			m.drop(id, "heartbeat lapsed")
		}
	}
}

// beat broadcasts one heartbeat carrying the gossip peer list, plus any
// outstanding release broadcasts (rebroadcast until they expire — the
// first release publish can race the new owner's subscription to this
// pub, and a lost frame would otherwise cost the full FailAfter fence).
func (m *Membership) beat() {
	if m.opts.Observer {
		return
	}
	m.mu.Lock()
	c := ctrlMsg{Kind: "hb", From: m.opts.Self, Epoch: m.epoch}
	for _, p := range m.peers {
		c.Peers = append(c.Peers, p.info)
	}
	var rel []pendingRelease
	if len(m.relOut) > 0 {
		kept := m.relOut[:0]
		for _, r := range m.relOut {
			if time.Now().Before(r.until) {
				kept = append(kept, r)
			}
		}
		m.relOut = kept
		rel = append(rel, kept...)
	}
	var inc []pendingIncident
	if len(m.incOut) > 0 {
		kept := m.incOut[:0]
		for _, i := range m.incOut {
			if time.Now().Before(i.until) {
				kept = append(kept, i)
			}
		}
		m.incOut = kept
		inc = append(inc, kept...)
	}
	m.mu.Unlock()
	if payload, err := json.Marshal(c); err == nil {
		m.opts.Pub.Publish(MembershipTopic, payload)
	}
	for _, r := range rel {
		m.publishRelease(r.epoch, r.parts)
	}
	for _, i := range inc {
		m.opts.Pub.Publish(TelemetryTopic, i.payload)
	}
	if m.opts.TelemetrySnapshot != nil {
		if frame := m.opts.TelemetrySnapshot(); len(frame) > 0 {
			m.opts.Pub.Publish(TelemetryTopic, frame)
			// A pub is not self-subscribed, so our own snapshot has to be
			// folded into the local federation directly.
			m.opts.Federation.UpdateJSON(frame)
		}
	}
}

// BroadcastIncident declares an incident to the cluster: the frame rides
// TelemetryTopic so every member (and observer router) already
// subscribed for federated telemetry hears it and captures its own
// bundle under the shared ID. Observers and pub-less participants cannot
// declare. Safe on a nil receiver.
func (m *Membership) BroadcastIncident(id, reason string) {
	if m == nil || m.opts.Observer || m.opts.Pub == nil || id == "" {
		return
	}
	payload, err := json.Marshal(incidentFrame{Kind: "incident", ID: id, From: m.opts.Self.ID, Reason: reason})
	if err != nil {
		return
	}
	// Rebroadcast with heartbeats for one FailAfter window (the
	// pendingRelease pattern): the first publish can race a peer's
	// still-connecting subscription, and receivers dedup by ID anyway.
	m.mu.Lock()
	m.incOut = append(m.incOut, pendingIncident{payload: payload, until: time.Now().Add(m.opts.FailAfter)})
	m.mu.Unlock()
	m.opts.Pub.Publish(TelemetryTopic, payload)
}

// publishRelease broadcasts one release frame.
func (m *Membership) publishRelease(epoch uint64, parts []int) {
	payload, err := json.Marshal(ctrlMsg{Kind: "release", Epoch: epoch, From: m.opts.Self, Parts: parts})
	if err != nil {
		return
	}
	m.opts.Pub.Publish(MembershipTopic, payload)
}

// BroadcastRelease announces that this member has closed the given
// partitions' stores under the given assignment epoch — the handoff
// fence the new owners wait on. The frame is rebroadcast with each
// heartbeat for one FailAfter window so a racing subscription cannot
// lose it.
func (m *Membership) BroadcastRelease(epoch uint64, parts []int) {
	if m.opts.Observer || m.opts.Pub == nil || len(parts) == 0 {
		return
	}
	m.mu.Lock()
	m.relOut = append(m.relOut, pendingRelease{epoch: epoch, parts: parts, until: time.Now().Add(m.opts.FailAfter)})
	m.mu.Unlock()
	m.publishRelease(epoch, parts)
}

// changed recomputes the view and, when it differs from the last one,
// bumps the epoch past everything seen and emits the new assignment.
func (m *Membership) changed() {
	if a, ok := m.recompute(); ok && m.opts.OnChange != nil {
		m.opts.OnChange(a)
	}
}

func (m *Membership) recompute() (Assignment, bool) {
	m.mu.Lock()
	ids := make([]string, 0, len(m.peers)+1)
	if !m.opts.Observer {
		ids = append(ids, m.opts.Self.ID)
	}
	for id := range m.peers {
		ids = append(ids, id)
	}
	a := Assign(0, m.opts.Parts, ids) // sorts + dedups ids internally
	key := fmt.Sprint(assignMembers(a))
	if m.viewKey == key && m.assign.Owner != nil {
		m.mu.Unlock()
		return Assignment{}, false
	}
	if m.maxSeen > m.epoch {
		m.epoch = m.maxSeen
	}
	m.epoch++
	if m.epoch > m.maxSeen {
		m.maxSeen = m.epoch
	}
	a.Epoch = m.epoch
	m.assign = a
	m.viewKey = key
	m.mu.Unlock()
	m.opts.Logger.Info("view changed", "epoch", a.Epoch, "members", key)
	return a, true
}

// assignMembers lists the distinct owners of an assignment (sorted —
// Assign iterates sorted IDs).
func assignMembers(a Assignment) []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range a.Owner {
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Assignment returns the current assignment map.
func (m *Membership) Assignment() Assignment {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.assign
}

// Epoch returns the current assignment epoch.
func (m *Membership) Epoch() uint64 { return m.epochNow() }

// Members returns the current live member count (including self for
// members).
func (m *Membership) Members() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.peers)
	if !m.opts.Observer {
		n++
	}
	return n
}

// Peers returns a snapshot of the known remote members.
func (m *Membership) Peers() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p.info)
	}
	return out
}

// Owner resolves the owning member of a partition. ok is false while the
// partition is unassigned or the owner is unknown.
func (m *Membership) Owner(part int) (MemberInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.assign.OwnerOf(part)
	if id == "" {
		return MemberInfo{}, false
	}
	if id == m.opts.Self.ID {
		return m.opts.Self, true
	}
	if p, ok := m.peers[id]; ok {
		return p.info, true
	}
	return MemberInfo{}, false
}

// OwnerTopic resolves the routed inbox topic for a partition: the
// collector-side routing hop. ok is false while no owner is known.
func (m *Membership) OwnerTopic(part int) (string, bool) {
	info, ok := m.Owner(part)
	if !ok {
		return "", false
	}
	return msgq.NodeTopic(info.ID, part), true
}

// Parts returns the partition count assignments map over.
func (m *Membership) Parts() int { return m.opts.Parts }

// HeartbeatAge returns the longest silence across live peers (zero with
// no peers) — the watchdog's lapse signal.
func (m *Membership) HeartbeatAge() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max time.Duration
	for _, p := range m.peers {
		if age := time.Since(p.lastSeen); age > max {
			max = age
		}
	}
	return max
}

// Alive reports whether id is this member itself or a currently live
// peer.
func (m *Membership) Alive(id string) bool {
	if !m.opts.Observer && id == m.opts.Self.ID {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.peers[id]
	return ok
}

// FailAfter returns the failure detector's expiry window.
func (m *Membership) FailAfter() time.Duration { return m.opts.FailAfter }

// Conflict returns the identity of another live participant observed
// claiming this member's ID, if any — a deployment joining an existing
// cluster must treat it as fatal (two nodes sharing an ID split the same
// routed topics and sequence lanes between them).
func (m *Membership) Conflict() (MemberInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conflict == nil {
		return MemberInfo{}, false
	}
	return *m.conflict, true
}

// signalViewLocked wakes WaitMembers blockers. Caller holds m.mu.
func (m *Membership) signalViewLocked() {
	close(m.viewCh)
	m.viewCh = make(chan struct{})
}

// WaitMembers blocks until the view holds at least n members. It wakes
// on view changes rather than polling, so convergence waits cost no CPU.
func (m *Membership) WaitMembers(n int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		m.mu.Lock()
		cnt := len(m.peers)
		if !m.opts.Observer {
			cnt++
		}
		ch := m.viewCh
		m.mu.Unlock()
		if cnt >= n {
			return nil
		}
		select {
		case <-ch:
		case <-m.stopped:
			return fmt.Errorf("cluster: membership stopped with %d/%d members", cnt, n)
		case <-timer.C:
			return fmt.Errorf("cluster: %d/%d members after %v", cnt, n, timeout)
		}
	}
}

// Close leaves gracefully: a leave broadcast lets peers reassign without
// waiting out the failure detector.
func (m *Membership) Close() {
	if !m.opts.Observer && m.opts.Pub != nil {
		if payload, err := json.Marshal(ctrlMsg{Kind: "leave", From: m.opts.Self, Epoch: m.epochNow()}); err == nil {
			m.opts.Pub.Publish(MembershipTopic, payload)
		}
	}
	m.Kill()
}

// Kill stops the participant without a leave broadcast — the crash path
// (tests use it to exercise the failure detector and handoff).
func (m *Membership) Kill() {
	m.stopOnce.Do(func() {
		close(m.stopped)
		m.ctl.Close()
		m.sub.Close()
		m.wg.Wait()
	})
}
