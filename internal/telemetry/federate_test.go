package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestFederationNil(t *testing.T) {
	var f *Federation
	f.Update(NodeSnapshot{Node: "n0"})
	f.UpdateJSON([]byte(`{"node":"n0"}`))
	f.Remove("n0")
	if rep := f.Report(); rep.Status != StatusOK || len(rep.Members) != 0 {
		t.Errorf("nil federation report = %+v", rep)
	}
	if f.Snapshots() != nil {
		t.Error("nil federation not inert")
	}
	var buf bytes.Buffer
	if err := f.WriteClusterMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestFederationReport: the rollup is worst-of across member verdicts,
// members sort by node ID, and a malformed frame is dropped.
func TestFederationReport(t *testing.T) {
	f := NewFederation(time.Minute)
	f.Update(NodeSnapshot{Node: "n1", Epoch: 3, Partitions: []int{1}, Status: StatusDegraded})
	frame, _ := json.Marshal(NodeSnapshot{Node: "n0", Epoch: 3, Partitions: []int{0}, HeartbeatAgeMS: 12})
	f.UpdateJSON(frame)
	f.UpdateJSON([]byte("not json"))

	rep := f.Report()
	if len(rep.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(rep.Members))
	}
	if rep.Members[0].Node != "n0" || rep.Members[1].Node != "n1" {
		t.Errorf("members not sorted: %s, %s", rep.Members[0].Node, rep.Members[1].Node)
	}
	if rep.Status != StatusDegraded {
		t.Errorf("rollup = %v, want degraded (worst-of)", rep.Status)
	}
	if rep.Members[0].Dead || rep.Members[1].Dead {
		t.Error("fresh members reported dead")
	}
	if rep.Members[0].HeartbeatAgeMS != 12 {
		t.Errorf("frame fields lost: %+v", rep.Members[0])
	}
}

// TestFederationDeadMember: a member that stops publishing without a
// graceful leave ages past failAfter and flips the rollup to stalled; a
// fresh snapshot (rejoin) revives it. A graceful leave removes the member
// entirely instead.
func TestFederationDeadMember(t *testing.T) {
	f := NewFederation(30 * time.Millisecond)
	f.Update(NodeSnapshot{Node: "n0"})
	f.Update(NodeSnapshot{Node: "n1"})

	time.Sleep(60 * time.Millisecond) // both silent past failAfter
	f.Update(NodeSnapshot{Node: "n0"})
	rep := f.Report()
	if rep.Status != StatusStalled {
		t.Fatalf("silent member rollup = %v, want stalled", rep.Status)
	}
	for _, m := range rep.Members {
		wantDead := m.Node == "n1"
		if m.Dead != wantDead {
			t.Errorf("member %s dead=%v, want %v", m.Node, m.Dead, wantDead)
		}
		if wantDead && m.Status != StatusStalled {
			t.Errorf("dead member status = %v", m.Status)
		}
	}

	f.Update(NodeSnapshot{Node: "n1"}) // rejoin: fresh frame revives it
	if rep := f.Report(); rep.Status != StatusOK {
		t.Fatalf("rejoined member rollup = %v: %+v", rep.Status, rep.Members)
	}

	f.Remove("n1") // graceful leave: gone, not dead
	rep = f.Report()
	if len(rep.Members) != 1 || rep.Status != StatusOK {
		t.Fatalf("after leave: %+v", rep)
	}
}

// TestBuildNodeSnapshot: a member publishes only its own registry slice —
// in-process deployments share one registry and must not republish each
// other's numbers.
func TestBuildNodeSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("fsmon.cluster.n0.heartbeat_age_ms").Set(7)
	reg.Gauge("fsmon.cluster.n1.heartbeat_age_ms").Set(9)
	reg.Counter("fsmon.aggregator.published").Add(3)

	s := BuildNodeSnapshot(reg, "n0", 5, []int{0, 2}, 7*time.Millisecond)
	if s.Node != "n0" || s.Epoch != 5 || len(s.Partitions) != 2 || s.HeartbeatAgeMS != 7 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Values) != 1 || s.Values["fsmon.cluster.n0.heartbeat_age_ms"] != 7 {
		t.Fatalf("snapshot values not filtered to own slice: %v", s.Values)
	}
	// Without a health model the member reports ok.
	if s.Status != StatusOK {
		t.Errorf("status = %v", s.Status)
	}
}

// promLine matches one Prometheus text sample with a node label:
// name{node="..."} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*\{node="[^"]+"\} [0-9.eE+-]+$`)

// TestWritePrometheus: the federated exposition parses line by line, every
// sample carries the node label, and both members' slices appear.
func TestWritePrometheus(t *testing.T) {
	f := NewFederation(time.Minute)
	f.Update(NodeSnapshot{Node: "n0", Values: map[string]float64{"fsmon.cluster.n0.aggregator.stored": 42}})
	f.Update(NodeSnapshot{Node: "n1", Partitions: []int{0, 1}})

	var buf bytes.Buffer
	if err := f.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples rendered")
	}
	for _, want := range []string{
		`fsmon_cluster_member_up{node="n0"} 1`,
		`fsmon_cluster_member_partitions_owned{node="n1"} 2`,
		`fsmon_cluster_aggregator_stored{node="n0"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

// TestWritePrometheusNodeFamilies: the member ID leaves the metric name for
// the node label, so two members' values of one name are one family, and
// that family's samples sit on adjacent lines.
func TestWritePrometheusNodeFamilies(t *testing.T) {
	f := NewFederation(time.Minute)
	f.Update(NodeSnapshot{Node: "n0", Values: map[string]float64{
		"fsmon.cluster.n0.aggregator.stored": 40,
		"fsmon.cluster.n0.epoch":             2,
	}})
	f.Update(NodeSnapshot{Node: "n1", Values: map[string]float64{
		"fsmon.cluster.n1.aggregator.stored": 41,
		"fsmon.cluster.n1.epoch":             2,
	}})
	var buf bytes.Buffer
	if err := f.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	const fam = "fsmon_cluster_aggregator_stored{"
	first, last, n := -1, -1, 0
	for i, l := range lines {
		if strings.HasPrefix(l, "fsmon_cluster_n") {
			t.Errorf("member ID left in a family name: %q", l)
		}
		if strings.HasPrefix(l, fam) {
			if first < 0 {
				first = i
			}
			last, n = i, n+1
		}
	}
	if n != 2 || last-first != 1 {
		t.Fatalf("family %s has %d samples on lines %d..%d, want 2 adjacent:\n%s", fam, n, first, last, buf.String())
	}
	for _, want := range []string{
		`fsmon_cluster_aggregator_stored{node="n0"} 40`,
		`fsmon_cluster_aggregator_stored{node="n1"} 41`,
	} {
		if lines[first] != want && lines[last] != want {
			t.Errorf("family lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestClusterEndpoints: without a federation the /cluster/* surface
// answers 404 (not clustered must not read as an empty healthy cluster);
// with one it serves the merged JSON view, the node-labeled Prometheus
// text, and the worst-of rollup that flips 503 on a dead member.
func TestClusterEndpoints(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for _, path := range []string{"/cluster/metrics", "/cluster/metrics/prom", "/cluster/healthz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without federation = %d, want 404", path, resp.StatusCode)
		}
	}

	fed := reg.EnableFederation(40 * time.Millisecond)
	aud := reg.EnableAudit(1)
	aud.Captured(3)
	fed.Update(NodeSnapshot{Node: "n0", Values: map[string]float64{"fsmon.cluster.n0.stored": 1}})
	fed.Update(NodeSnapshot{Node: "n1"})

	var doc struct {
		Status Status         `json:"status"`
		Nodes  []NodeSnapshot `json:"nodes"`
		Audit  *AuditSnapshot `json:"audit"`
	}
	if _, err := fetch(base+"/cluster/metrics", &doc, false); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 2 || doc.Status != StatusOK {
		t.Fatalf("/cluster/metrics = %+v", doc)
	}
	if doc.Audit == nil || doc.Audit.Captured != 3 {
		t.Fatalf("/cluster/metrics audit = %+v", doc.Audit)
	}

	resp, err := http.Get(base + "/cluster/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(prom.String(), `fsmon_cluster_member_up{node="n1"} 1`) {
		t.Errorf("/cluster/metrics/prom lacks member sample:\n%s", prom.String())
	}

	rep, ok, err := FetchClusterHealth(base + "/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || rep.Status != StatusOK || len(rep.Members) != 2 {
		t.Fatalf("healthy rollup: ok=%v %+v", ok, rep)
	}

	// n1 falls silent; within one failure-detector window the rollup 503s.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fed.Update(NodeSnapshot{Node: "n0"}) // n0 keeps beating
		rep, ok, err = FetchClusterHealth(base + "/cluster/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead member never flipped /cluster/healthz to 503")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Status != StatusStalled {
		t.Fatalf("dead-member rollup = %v", rep.Status)
	}
}
