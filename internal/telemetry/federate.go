package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Federated telemetry: every cluster member periodically publishes a
// compact snapshot of its own registry slice on the cluster.telemetry
// msgq topic (piggybacking the membership heartbeat cadence), and any
// member or observer folds the snapshots it hears into a Federation — the
// merged cluster view served at /cluster/metrics (JSON, and Prometheus
// text with a "node" label) and /cluster/healthz (worst-of rollup across
// per-node watchdog verdicts, with dead-member detection by snapshot
// age). An operator of an N-node cluster gets one answer instead of N
// process-local half-truths.

// NodeSnapshot is one member's published telemetry frame: identity and
// membership state (epoch, owned partitions, peer-heartbeat age), the
// member's local watchdog verdict, and its registry slice flattened to
// scalars.
type NodeSnapshot struct {
	Node           string             `json:"node"`
	Epoch          uint64             `json:"epoch"`
	Partitions     []int              `json:"partitions,omitempty"`
	HeartbeatAgeMS float64            `json:"heartbeat_age_ms"`
	Status         Status             `json:"status"`
	Values         map[string]float64 `json:"values,omitempty"`
}

// fedEntry is one member's latest snapshot plus the local receipt time
// (dead-member detection uses the receiver's clock, immune to skew).
type fedEntry struct {
	snap NodeSnapshot
	seen time.Time
}

// Federation merges NodeSnapshots into the cluster view. All methods are
// safe for concurrent use and safe on a nil receiver.
type Federation struct {
	failAfter time.Duration

	mu    sync.Mutex
	nodes map[string]fedEntry
}

// NewFederation creates an empty federation. failAfter is the snapshot
// age after which a member is considered dead (<= 0 selects 4× the
// default heartbeat interval, matching the membership failure detector).
func NewFederation(failAfter time.Duration) *Federation {
	if failAfter <= 0 {
		failAfter = 4 * 250 * time.Millisecond
	}
	return &Federation{failAfter: failAfter, nodes: make(map[string]fedEntry)}
}

// Update folds one member snapshot into the view. Safe on nil (no-op).
func (f *Federation) Update(s NodeSnapshot) {
	if f == nil || s.Node == "" {
		return
	}
	f.mu.Lock()
	f.nodes[s.Node] = fedEntry{snap: s, seen: time.Now()}
	f.mu.Unlock()
}

// UpdateJSON decodes a published snapshot frame and folds it in — the
// receive side of the cluster.telemetry topic. Malformed frames are
// dropped. Safe on nil.
func (f *Federation) UpdateJSON(payload []byte) {
	if f == nil {
		return
	}
	var s NodeSnapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return
	}
	f.Update(s)
}

// Remove forgets a member — the graceful-leave path. A member that dies
// silently is NOT removed: its snapshot ages past failAfter and the
// rollup reports it dead until it rejoins. Safe on nil.
func (f *Federation) Remove(node string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.nodes, node)
	f.mu.Unlock()
}

// ClusterMember is one member's state in the merged view.
type ClusterMember struct {
	Node           string  `json:"node"`
	Epoch          uint64  `json:"epoch"`
	Partitions     []int   `json:"partitions,omitempty"`
	HeartbeatAgeMS float64 `json:"heartbeat_age_ms"`
	Status         Status  `json:"status"`
	// SnapshotAgeMS is how long ago this member's last snapshot arrived
	// (by the serving process's clock). Dead is true once it exceeds the
	// federation's failAfter — the member stopped publishing without a
	// graceful leave.
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
	Dead          bool    `json:"dead,omitempty"`
}

// ClusterReport is the merged cluster health view served at
// /cluster/healthz: the worst-of rollup across member verdicts (a dead
// member counts as stalled, so the endpoint flips to 503 within one
// failure-detector window of a silent death) plus every member's state.
type ClusterReport struct {
	Status    Status          `json:"status"`
	Members   []ClusterMember `json:"members"`
	SampledAt time.Time       `json:"sampled_at"`
}

// Report computes the merged view. Safe on nil (empty, ok report).
func (f *Federation) Report() ClusterReport {
	rep := ClusterReport{SampledAt: time.Now()}
	if f == nil {
		return rep
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.nodes {
		m := ClusterMember{
			Node:           e.snap.Node,
			Epoch:          e.snap.Epoch,
			Partitions:     e.snap.Partitions,
			HeartbeatAgeMS: e.snap.HeartbeatAgeMS,
			Status:         e.snap.Status,
			SnapshotAgeMS:  float64(time.Since(e.seen).Milliseconds()),
		}
		if time.Since(e.seen) > f.failAfter {
			m.Dead = true
			m.Status = StatusStalled
		}
		if m.Status > rep.Status {
			rep.Status = m.Status
		}
		rep.Members = append(rep.Members, m)
	}
	sort.Slice(rep.Members, func(i, j int) bool { return rep.Members[i].Node < rep.Members[j].Node })
	return rep
}

// Snapshots returns every member's latest snapshot, sorted by node ID.
// Safe on nil (nil slice).
func (f *Federation) Snapshots() []NodeSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]NodeSnapshot, 0, len(f.nodes))
	for _, e := range f.nodes {
		out = append(out, e.snap)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// clusterMetrics is the /cluster/metrics JSON document: the merged member
// states with their metric slices, plus the serving process's local
// conservation-audit snapshot when one is attached.
type clusterMetrics struct {
	Status    Status         `json:"status"`
	Nodes     []NodeSnapshot `json:"nodes"`
	Audit     *AuditSnapshot `json:"audit,omitempty"`
	SampledAt time.Time      `json:"sampled_at"`
}

// WriteClusterMetrics renders the merged view as JSON (the
// /cluster/metrics document). aud may be nil. Safe on a nil federation
// (empty document).
func (f *Federation) WriteClusterMetrics(w io.Writer, aud *Audit) error {
	doc := clusterMetrics{
		Status:    f.Report().Status,
		Nodes:     f.Snapshots(),
		SampledAt: time.Now(),
	}
	if doc.Nodes == nil {
		doc.Nodes = []NodeSnapshot{}
	}
	if aud != nil {
		s := aud.Snapshot()
		doc.Audit = &s
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WritePrometheus renders every member's metric slice in the Prometheus
// text exposition format, the member as each sample's "node" label, plus per-member
// fsmon_cluster_member_* meta gauges (heartbeat age, snapshot age,
// up/dead, status) so a scrape stack sees the whole cluster through one
// endpoint. Safe on nil (renders nothing).
func (f *Federation) WritePrometheus(w io.Writer) error {
	if f == nil {
		return nil
	}
	rep := f.Report()
	snaps := f.Snapshots()
	// Meta families first, one sample per member.
	if len(rep.Members) > 0 {
		meta := []struct {
			name string
			val  func(ClusterMember) float64
		}{
			{"fsmon_cluster_member_up", func(m ClusterMember) float64 {
				if m.Dead {
					return 0
				}
				return 1
			}},
			{"fsmon_cluster_member_status", func(m ClusterMember) float64 { return float64(m.Status) }},
			{"fsmon_cluster_member_heartbeat_age_ms", func(m ClusterMember) float64 { return m.HeartbeatAgeMS }},
			{"fsmon_cluster_member_snapshot_age_ms", func(m ClusterMember) float64 { return m.SnapshotAgeMS }},
			{"fsmon_cluster_member_partitions_owned", func(m ClusterMember) float64 { return float64(len(m.Partitions)) }},
		}
		for _, fam := range meta {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", fam.name); err != nil {
				return err
			}
			for _, m := range rep.Members {
				if _, err := fmt.Fprintf(w, "%s{node=%q} %s\n", fam.name, m.Node, promFloat(fam.val(m))); err != nil {
					return err
				}
			}
		}
	}
	// Then every member's slice, its ID moved into the node label
	// (fsmon.cluster.<id>.X → fsmon_cluster_X{node="<id>"}). Sorted lines
	// keep each family's samples adjacent, as the text format requires.
	var lines []string
	for _, s := range snaps {
		prefix := "fsmon.cluster." + s.Node + "."
		for n, v := range s.Values {
			if rest, ok := strings.CutPrefix(n, prefix); ok {
				n = "fsmon.cluster." + rest
			}
			lines = append(lines, fmt.Sprintf("%s{node=%q} %s\n", MangleName(n), s.Node, promFloat(v)))
		}
	}
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, ""))
	return err
}

// BuildNodeSnapshot assembles one member's publishable frame: membership
// state from the caller plus the member's own registry slice — every
// metric under "fsmon.cluster.<node>." flattened to scalars. Restricting
// the slice to the member's own namespace keeps in-process multi-node
// deployments (which share one registry) from publishing each other's
// numbers N times. The local watchdog verdict rides along when a health
// model is attached; without one the member reports ok.
func BuildNodeSnapshot(reg *Registry, node string, epoch uint64, parts []int, hbAge time.Duration) NodeSnapshot {
	s := NodeSnapshot{
		Node:           node,
		Epoch:          epoch,
		Partitions:     parts,
		HeartbeatAgeMS: float64(hbAge.Milliseconds()),
	}
	if reg == nil {
		return s
	}
	prefix := "fsmon.cluster." + node + "."
	flat := flattenSnapshot(reg.Snapshot())
	vals := make(map[string]float64)
	for name, v := range flat {
		if strings.HasPrefix(name, prefix) {
			vals[name] = v
		}
	}
	if len(vals) > 0 {
		s.Values = vals
	}
	if h := reg.Health(); h != nil {
		s.Status = h.Evaluate().Status
	}
	return s
}

// EnableFederation attaches a federation to the registry (served at
// /cluster/metrics and /cluster/healthz by a telemetry Server over this
// registry). failAfter is the dead-member snapshot-age threshold.
// Repeated calls return the existing federation; nil registries return
// nil.
func (r *Registry) EnableFederation(failAfter time.Duration) *Federation {
	if r == nil {
		return nil
	}
	f, _ := attach(&r.federation, func() *Federation { return NewFederation(failAfter) })
	return f
}

// Federation returns the attached federation (nil until
// EnableFederation). Safe on a nil registry.
func (r *Registry) Federation() *Federation {
	if r == nil {
		return nil
	}
	return r.federation.Load()
}
