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
)

// MembershipOptions configures one member's (or observer's) view of the
// cluster.
type MembershipOptions struct {
	// Self describes this member. ID is required (ValidID); Endpoint must
	// be the already-bound address of Pub. Observers leave Endpoint empty.
	Self MemberInfo
	// Observer makes this a receive-only participant: it sends join
	// hellos and tracks the member set, but broadcasts no heartbeats and
	// is excluded from views (and so owns no partitions). Collectors and
	// consumers use an observer to resolve partition owners.
	Observer bool
	// Pub is the member's bound publisher, shared with the event path;
	// membership broadcasts ride on it, and peers' hellos arrive on its
	// inbox. Required unless Observer.
	Pub *msgq.Pub
	// Join lists publisher endpoints of known members to announce
	// ourselves to: the hello goes upstream on our link to each. The
	// transitive gossip in heartbeats completes the mesh from any single
	// live seed.
	Join []string
	// Parts is the global store-partition count assignments map over.
	Parts int
	// Interval is the heartbeat period (default
	// DefaultHeartbeatInterval); FailAfter is the silence after which a
	// peer is expired (default 4×Interval).
	Interval  time.Duration
	FailAfter time.Duration
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
	greeted  time.Time // counted, or last helloed (regreet)
}

// ctrlMsg is the JSON control frame of the membership protocol: broadcast
// on MembershipTopic, or a hello sent upstream to one peer's pub.
// Heartbeats, hellos and their answers gossip the sender's live peer list,
// which is what completes the mesh: a node that learns an unknown member
// from gossip connects to its endpoint and hellos it there, so the link
// becomes mutual.
type ctrlMsg struct {
	Kind  string       `json:"k"` // "hello", "answer", "hb", "leave", "release"
	Epoch uint64       `json:"e,omitempty"`
	From  MemberInfo   `json:"from"`
	Peers []MemberInfo `json:"peers,omitempty"`
	// Parts carries a release broadcast's closed partitions.
	Parts []int `json:"parts,omitempty"`
	// To is the address a hello was sent to, carried back by its answer,
	// so a joiner knows which of its seeds answered; For is the ID of the
	// hello's sender, since every subscriber of the seed hears the answer.
	To  string `json:"to,omitempty"`
	For string `json:"for,omitempty"`
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

// pendingFrame is one release or incident frame rebroadcast with
// heartbeats until it expires: the first publish races still-connecting
// peer subscriptions (a release, the new owner's), so a lost frame must heal
// before the FailAfter fallback. Releases apply idempotently and incidents
// dedup by ID, so repeats cost nothing.
type pendingFrame struct {
	topic   string
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

	sub *msgq.Sub // membership broadcasts from every connected peer pub; our hellos go up its links

	mu       sync.Mutex
	peers    map[string]*peerState
	coming   map[string]bool      // seen, counted once our link to them is ready (admit); true: hello it then too
	dead     map[string]time.Time // tombstones: recently expired/left members
	seeds    map[string]bool      // Join address -> its answer is folded in
	epoch    uint64
	maxSeen  uint64
	assign   Assignment
	viewKey  string        // member IDs of the last computed view
	viewCh   chan struct{} // closed and replaced on every peer add/remove and seed answer
	conflict *MemberInfo   // another live participant claiming our ID
	outbox   []pendingFrame
	started  bool
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NewMembership creates an unstarted membership participant; Start begins
// the protocol.
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
	if opts.Interval <= 0 {
		opts.Interval = DefaultHeartbeatInterval
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = DefaultFailFactor * opts.Interval
	}
	opts.Logger = telemetry.ComponentLogger(opts.Logger, "cluster."+opts.Self.ID)
	m := &Membership{
		opts:    opts,
		sub:     msgq.NewSub(),
		peers:   make(map[string]*peerState),
		coming:  make(map[string]bool),
		dead:    make(map[string]time.Time),
		seeds:   make(map[string]bool),
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
	for _, ep := range m.opts.Join {
		if _, dup := m.seeds[ep]; ep == "" || ep == m.opts.Self.Endpoint || dup {
			continue
		}
		m.seeds[ep] = false
		_ = m.sub.Connect(ep)
		m.wg.Add(1)
		go m.join(ep)
	}
	m.mu.Unlock()
	if !m.opts.Observer {
		m.wg.Add(1)
		go m.inboxLoop(m.opts.Pub.Inbox())
	}
	m.wg.Add(2)
	go m.subLoop()
	go m.tickLoop()
}

// join greets one Join seed: once our link to its pub is ready, the hello
// goes upstream on it, and again every FailAfter until the seed's answer is
// in — a hello lost with a link that dropped after the write is sent anew.
func (m *Membership) join(seed string) {
	defer m.wg.Done()
	unanswered := func() string {
		if m.seeds[seed] {
			return ""
		}
		return "unanswered"
	}
	for m.sub.WaitEndpointReady(seed, m.opts.FailAfter) != nil || m.hello(seed) != nil ||
		m.waitView(m.opts.FailAfter, unanswered) != nil {
		select {
		case <-m.stopped:
			return
		default:
		}
	}
}

// hello sends ourselves and our peer list upstream on our link to the pub
// at ep, whose owner answers on MembershipTopic (inboxLoop). None goes once
// Close has begun: it could reach the peer behind our leave and bring us
// back.
func (m *Membership) hello(ep string) error {
	select {
	case <-m.stopped:
		return errors.New("cluster: membership stopped")
	default:
	}
	return m.sub.Send(ep, msgq.Message{Topic: MembershipTopic, Payload: m.frame(ctrlMsg{Kind: "hello", To: ep})})
}

// frame encodes a heartbeat, hello or answer c as from us, with our peer
// list.
func (m *Membership) frame(c ctrlMsg) []byte {
	m.mu.Lock()
	c.From, c.Epoch, c.Peers = m.opts.Self, m.epoch, m.peerListLocked()
	m.mu.Unlock()
	payload, _ := json.Marshal(c) // a ctrlMsg always encodes
	return payload
}

// inboxLoop serves the hellos peers send upstream to our pub. Every hello
// is answered on MembershipTopic — the two-way handshake PUB/SUB alone
// cannot bootstrap — and the answer reaches the sender: our pub attached
// its link before it read the hello behind the link's echo. A hello makes
// its sender and the peers it lists known (connecting to their pubs); a
// sender claiming our own ID hears our claim in the answer and can abort
// too.
func (m *Membership) inboxLoop(inbox <-chan msgq.Message) {
	defer m.wg.Done()
	for {
		var msg msgq.Message
		var ok bool
		select {
		case msg, ok = <-inbox:
		case <-m.stopped:
		}
		if !ok {
			return
		}
		var c ctrlMsg
		if err := json.Unmarshal(msg.Payload, &c); err != nil || c.Kind != "hello" {
			continue
		}
		m.opts.Pub.Publish(MembershipTopic, m.frame(ctrlMsg{Kind: "answer", To: c.To, For: c.From.ID}))
		if c.From.Endpoint != "" { // an observer has no pub to track
			m.observe(c.From, c.Epoch, true)
		}
		for _, p := range c.Peers {
			m.observe(p, c.Epoch, false)
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
		case "hb", "answer":
			// The sender itself is firsthand contact; only the gossiped
			// peer list is secondhand. An answer to one of our join hellos
			// also marks that seed answered (WaitJoined), once what it
			// lists — any claim on our ID included — is folded in.
			m.observe(c.From, c.Epoch, true)
			for _, p := range c.Peers {
				m.observe(p, c.Epoch, false)
			}
			if c.Kind == "hb" {
				m.regreet(c.From, c.Peers)
			}
			if c.Kind == "answer" && c.For == m.opts.Self.ID {
				m.mu.Lock()
				if answered, seed := m.seeds[c.To]; seed && !answered {
					m.seeds[c.To] = true
					m.signalViewLocked()
				}
				m.mu.Unlock()
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
// (its hello, or a heartbeat, answer or release from the member itself)
// refresh liveness; gossiped ones only introduce unknown members — a
// gossiper's stale entry must not keep a dead peer alive, so only firsthand
// contact resets the expiry clock. An unknown member is counted once our
// link to it is ready (admit), and helloed then if gossip introduced it, so
// the link becomes mutual. One we first heard from directly knows us
// already (it helloed us, or answered our hello), and a hello it does not
// need could reach it behind our leave and bring us back; one whose
// heartbeats say otherwise is helloed then (regreet).
func (m *Membership) observe(info MemberInfo, epoch uint64, direct bool) {
	if info.ID == m.opts.Self.ID {
		// Traffic claiming our own ID from different addresses means two
		// live participants share one ID — routed topics and the
		// assignment map would interleave them. Record it so a joining
		// deployment can abort instead of corrupting sequence lanes.
		if info.Endpoint != "" && info.Endpoint != m.opts.Self.Endpoint {
			m.mu.Lock()
			first := m.conflict == nil
			c := info
			m.conflict = &c
			m.mu.Unlock()
			if first {
				m.opts.Logger.Error("member ID conflict: another live participant claims this ID",
					"id", info.ID, "their_endpoint", info.Endpoint)
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
	if p, known := m.peers[info.ID]; known {
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
	if hello, coming := m.coming[info.ID]; coming {
		m.coming[info.ID] = hello && !direct
		m.mu.Unlock()
		return
	}
	m.coming[info.ID] = !direct
	m.mu.Unlock()
	_ = m.sub.Connect(info.Endpoint)
	m.wg.Add(1)
	go m.admit(info, epoch)
}

// admit counts a newly seen member once our link to its pub is ready, then
// hellos it on that link if observe says to. A WaitMembers return implies
// every counted peer's broadcasts reach us, so one sent right after (an
// immediate leave) cannot be lost to a link still coming up. It waits off
// the inbox and sub loops, so an unreachable endpoint stalls neither; a
// wait that outlasts FailAfter leaves the member to its next sighting — its
// first heartbeat, once the link is up.
func (m *Membership) admit(info MemberInfo, epoch uint64) {
	defer m.wg.Done()
	err := m.sub.WaitEndpointReady(info.Endpoint, m.opts.FailAfter)
	m.mu.Lock()
	hello, coming := m.coming[info.ID]
	delete(m.coming, info.ID)
	if err != nil || !coming {
		m.mu.Unlock()
		return
	}
	m.peers[info.ID] = &peerState{info: info, lastSeen: time.Now(), epoch: epoch, greeted: time.Now()}
	m.signalViewLocked()
	m.mu.Unlock()
	if hello {
		_ = m.hello(info.Endpoint) // best effort: gossip makes the link mutual too
	}
	if m.opts.OnPeer != nil {
		m.opts.OnPeer(info)
	}
	m.changed()
}

// regreet hellos a counted peer whose heartbeat does not list us: it has
// told us it does not know us (it restarted on its address, or its wait for
// our link timed out), and nobody else will hello it. At most once per
// FailAfter, the first a FailAfter after we counted it — by then a peer that
// greeted or answered us has counted us too. No member needs to know an
// observer.
func (m *Membership) regreet(from MemberInfo, peers []MemberInfo) {
	for _, p := range peers {
		if p.ID == m.opts.Self.ID {
			return
		}
	}
	m.mu.Lock()
	p, known := m.peers[from.ID]
	due := known && !m.opts.Observer && time.Since(p.greeted) > m.opts.FailAfter
	if due {
		p.greeted = time.Now()
		m.wg.Add(1)
		go func() { defer m.wg.Done(); _ = m.hello(from.Endpoint) }() // in process it can wait on the peer's inbox
	}
	m.mu.Unlock()
}

// drop removes a peer (leaving a tombstone against gossip resurrection)
// and recomputes the view.
func (m *Membership) drop(id, why string) {
	m.mu.Lock()
	_, known := m.peers[id]
	_, coming := m.coming[id]
	delete(m.peers, id)
	delete(m.coming, id) // its admit finds it gone
	if known || coming {
		m.dead[id] = time.Now()
	}
	if known {
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
	hb := m.frame(ctrlMsg{Kind: "hb"})
	m.mu.Lock()
	kept := m.outbox[:0]
	for _, f := range m.outbox {
		if time.Now().Before(f.until) {
			kept = append(kept, f)
		}
	}
	m.outbox = kept
	out := append([]pendingFrame(nil), kept...)
	m.mu.Unlock()
	m.opts.Pub.Publish(MembershipTopic, hb)
	for _, f := range out {
		m.opts.Pub.Publish(f.topic, f.payload)
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
	m.broadcast(TelemetryTopic, payload)
}

// broadcast publishes a frame now and with each heartbeat for one
// FailAfter window (pendingFrame).
func (m *Membership) broadcast(topic string, payload []byte) {
	m.mu.Lock()
	m.outbox = append(m.outbox, pendingFrame{topic: topic, payload: payload, until: time.Now().Add(m.opts.FailAfter)})
	m.mu.Unlock()
	m.opts.Pub.Publish(topic, payload)
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
	payload, _ := json.Marshal(ctrlMsg{Kind: "release", Epoch: epoch, From: m.opts.Self, Parts: parts}) // a ctrlMsg always encodes
	m.broadcast(MembershipTopic, payload)
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
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

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
	return m.peerListLocked()
}

func (m *Membership) peerListLocked() []MemberInfo {
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
	return m.waitView(timeout, func() string {
		cnt := len(m.peers)
		if !m.opts.Observer {
			cnt++
		}
		if cnt >= n {
			return ""
		}
		return fmt.Sprintf("%d/%d members", cnt, n)
	})
}

// WaitJoined blocks until every Join seed has answered our hello and the
// answer — the seed and the peers it lists, with any of them claiming our
// ID (Conflict) — is folded in.
func (m *Membership) WaitJoined(timeout time.Duration) error {
	return m.waitView(timeout, func() string {
		var waiting []string
		for ctl, answered := range m.seeds {
			if !answered {
				waiting = append(waiting, ctl)
			}
		}
		if len(waiting) == 0 {
			return ""
		}
		return fmt.Sprintf("join seeds %v unanswered", waiting)
	})
}

// waitView waits until missing, called under m.mu, says nothing is.
func (m *Membership) waitView(timeout time.Duration, missing func() string) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		m.mu.Lock()
		miss, ch := missing(), m.viewCh
		m.mu.Unlock()
		if miss == "" {
			return nil
		}
		select {
		case <-ch:
		case <-m.stopped:
			return fmt.Errorf("cluster: membership stopped with %s", miss)
		case <-timer.C:
			return fmt.Errorf("cluster: %s after %v", miss, timeout)
		}
	}
}

// Close leaves gracefully: a leave broadcast lets peers reassign without
// waiting out the failure detector. It goes out after the heartbeats have
// stopped, so no heartbeat behind it brings us back into a peer's view.
func (m *Membership) Close() {
	m.Kill()
	if !m.opts.Observer && m.opts.Pub != nil {
		m.opts.Pub.Publish(MembershipTopic, m.frame(ctrlMsg{Kind: "leave"}))
	}
}

// Kill stops the participant without a leave broadcast — the crash path
// (tests use it to exercise the failure detector and handoff).
func (m *Membership) Kill() {
	m.stopOnce.Do(func() {
		close(m.stopped)
		m.sub.Close()
		m.wg.Wait()
	})
}
