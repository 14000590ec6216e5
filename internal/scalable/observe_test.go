package scalable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/telemetry"
)

// waitBalanced polls the conservation audit until every tier boundary
// balances to zero for one attached consumer — the quiesced steady state
// — or fails the test with the offending snapshot.
func waitBalanced(t *testing.T, aud *telemetry.Audit) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for aud.Balance(1) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("audit never balanced: %+v", aud.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamFiles drives count creates through the cluster client and returns
// after the consumer delivered them all.
func streamFiles(t *testing.T, lc *lustre.Cluster, con *Consumer, count int) {
	t.Helper()
	cl := lc.Client()
	for i := 0; i < count; i++ {
		if err := cl.Create(fmt.Sprintf("/audit-f%03d.dat", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainConsumer(con, time.Second); len(got) != count {
		t.Fatalf("delivered %d events, want %d", len(got), count)
	}
}

// TestAuditSteadyStateClassic: the classic single-aggregator deployment
// with a partitioned store balances to zero after a drained workload —
// every captured event was published, stored, republished, and delivered
// exactly once, with no sequence-lane violations. The mounts case feeds the
// same tier from two DSI-source collectors: their events enter the audit at
// the same seal, so the balance holds there too.
func TestAuditSteadyStateClassic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parts  int
		mounts bool
	}{{"parts=1", 1, false}, {"parts=2", 2, false}, {"mounts", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			opts := DeployOptions{
				CacheSize:       100,
				PollInterval:    time.Millisecond,
				StorePartitions: tc.parts,
				Telemetry:       reg,
			}
			var lc *lustre.Cluster
			var fakes []*fakeDSI
			if tc.mounts {
				fakes = []*fakeDSI{newFakeDSI(), newFakeDSI()}
				opts.Mounts = []MountSource{{Prefix: "/a", DSI: fakes[0]}, {Prefix: "/b", DSI: fakes[1]}}
			} else {
				lc = testCluster(1)
			}
			m, err := Deploy(lc, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			aud := reg.Audit()
			if aud == nil {
				t.Fatal("deploy did not enable the conservation audit")
			}
			if aud.Parts() != tc.parts {
				t.Fatalf("audit parts = %d, want %d", aud.Parts(), tc.parts)
			}
			con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer con.Close()

			if tc.mounts {
				for i := 0; i < 40; i++ {
					fakes[i%2].Emit(fakeCreate(fmt.Sprintf("/audit-f%03d.dat", i)))
				}
				if got := drainConsumer(con, time.Second); len(got) != 40 {
					t.Fatalf("delivered %d events, want 40", len(got))
				}
			} else {
				streamFiles(t, lc, con, 40)
			}
			waitBalanced(t, aud)
			s := aud.Snapshot()
			if s.Captured != 40 {
				t.Errorf("captured = %d, want 40", s.Captured)
			}
			if s.Violations != 0 {
				t.Errorf("clean run recorded %d violations (gaps=%d dups=%d)", s.Violations, s.Gaps, s.Dups)
			}
		})
	}
}

// auditSmokeDoc is the decoded /cluster/metrics document the smoke gate
// archives as its CI artifact.
type auditSmokeDoc struct {
	Status telemetry.Status         `json:"status"`
	Nodes  []telemetry.NodeSnapshot `json:"nodes"`
	Audit  *telemetry.AuditSnapshot `json:"audit"`
}

var smokePromLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{node="[^"]+"\})? [0-9.eE+-]+$`)

// TestAuditSmoke is the make audit-smoke gate: a two-node clustered
// deployment with the observability plane served over HTTP, a streamed
// workload, and three assertions — the delivery-conservation audit
// balances to zero, /cluster/metrics reflects every member, and the
// node-labeled Prometheus exposition parses. With FSMON_AUDIT_SMOKE_OUT
// set, the merged /cluster/metrics document is written there as the CI
// artifact.
func TestAuditSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := testCluster(1)
	m, err := Deploy(lc, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 4,
		Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
		Telemetry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// One telemetry endpoint per node, as an operator would run them: each
	// serves the shared registry and with it the /cluster/* plane.
	var srvs []*telemetry.Server
	for range m.Nodes {
		srv, err := telemetry.Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs = append(srvs, srv)
	}
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	const events = 80
	streamFiles(t, lc, con, events)
	waitBalanced(t, reg.Audit())
	s := reg.Audit().Snapshot()
	if s.Captured != events || s.Delivered != events {
		t.Errorf("audit flow = %+v, want %d end to end", s, events)
	}
	if s.Violations != 0 {
		t.Errorf("smoke run recorded %d violations", s.Violations)
	}

	// Every per-node endpoint serves the same federated plane; members
	// publish at heartbeat cadence, so wait for both to appear.
	base := "http://" + srvs[0].Addr()
	deadline := time.Now().Add(5 * time.Second)
	var rep telemetry.ClusterReport
	for {
		var ok bool
		rep, ok, err = telemetry.FetchClusterHealth(base + "/cluster/healthz")
		if err == nil && ok && len(rep.Members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster rollup never settled: ok=%v err=%v %+v", ok, err, rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
	owned := 0
	for _, mb := range rep.Members {
		if mb.Dead {
			t.Errorf("member %s reported dead: %+v", mb.Node, mb)
		}
		owned += len(mb.Partitions)
	}
	if owned != 4 {
		t.Errorf("members own %d partitions in the rollup, want 4", owned)
	}

	// The merged metrics document carries every member and the audit.
	resp, err := http.Get(base + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, doc := new(bytes.Buffer), auditSmokeDoc{}
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw.Bytes(), &doc); err != nil {
		t.Fatalf("decode /cluster/metrics: %v\n%s", err, raw.String())
	}
	if len(doc.Nodes) != 2 {
		t.Fatalf("/cluster/metrics nodes = %d, want 2", len(doc.Nodes))
	}
	if doc.Audit == nil || doc.Audit.Delivered != events {
		t.Fatalf("/cluster/metrics audit = %+v", doc.Audit)
	}

	// The Prometheus exposition parses and labels every sample by node.
	resp, err = http.Get(base + "/cluster/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	labeled := 0
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !smokePromLine.MatchString(line) {
			t.Errorf("unparseable Prometheus line: %q", line)
		}
		if strings.Contains(line, `node="`) {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no node-labeled Prometheus samples")
	}

	// Both per-node servers answer.
	if _, ok, err := telemetry.FetchClusterHealth("http://" + srvs[1].Addr() + "/cluster/healthz"); err != nil || !ok {
		t.Errorf("second telemetry server: ok=%v err=%v", ok, err)
	}

	if out := os.Getenv("FSMON_AUDIT_SMOKE_OUT"); out != "" {
		if err := os.WriteFile(out, raw.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("cluster metrics artifact: %s", out)
	}
}

// TestClusterTraceStitching: on a clustered deployment the store and
// republish hops carry the recording node's ID, so a sampled event's span
// chain stitches across processes — and the Chrome trace render groups
// those hops under per-node processes while node-less tiers stay in the
// shared pipeline process.
func TestClusterTraceStitching(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(1, 0) // before Deploy: the trace ring must exist when collectors start
	lc := testCluster(1)
	m, err := Deploy(lc, DeployOptions{
		CacheSize:       100,
		PollInterval:    time.Millisecond,
		ClusterNodes:    2,
		StorePartitions: 4,
		Store:           eventstore.Options{JournalPath: filepath.Join(t.TempDir(), "journal")},
		Telemetry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	streamFiles(t, lc, con, 20)
	traces := reg.Traces().Snapshot()
	if len(traces) == 0 {
		t.Fatal("no traces completed")
	}
	nodeIDs := map[string]bool{}
	for _, n := range m.Nodes {
		nodeIDs[n.ID()] = true
	}
	for _, tr := range traces {
		spans := map[string]telemetry.TraceSpan{}
		for _, sp := range tr.Spans {
			spans[sp.Tier] = sp
		}
		for _, tier := range []string{"store", "republish"} {
			sp, ok := spans[tier]
			if !ok {
				t.Fatalf("trace %#x lacks a %s span: %+v", tr.ID, tier, tr.Spans)
			}
			if !nodeIDs[sp.Node] {
				t.Fatalf("trace %#x %s span node = %q, want a cluster node ID", tr.ID, tier, sp.Node)
			}
		}
		for _, tier := range []string{"collect", "deliver"} {
			if sp, ok := spans[tier]; ok && sp.Node != "" {
				t.Errorf("trace %#x %s span carries node %q, want none (recorded outside the cluster)", tr.ID, tier, sp.Node)
			}
		}
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[string]int{} // process name → pid
	nodePIDs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			procs[name] = ev.PID
			if strings.HasPrefix(name, "node ") {
				nodePIDs[ev.PID] = true
			}
		}
	}
	if procs["pipeline"] != 1 {
		t.Errorf("pipeline process metadata missing: %v", procs)
	}
	storedNodes := 0
	for id := range nodeIDs {
		if pid, ok := procs["node "+id]; ok {
			if pid <= 1 {
				t.Errorf("node %s shares the pipeline pid", id)
			}
			storedNodes++
		}
	}
	if storedNodes == 0 {
		t.Fatalf("no per-node processes in the Chrome trace: %v", procs)
	}
	// Node-attributed spans must render in their node's process, and the
	// node-less hops in the shared pipeline process.
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if node, ok := ev.Args["node"].(string); ok && node != "" {
			if !nodePIDs[ev.PID] {
				t.Errorf("span %s attributed to node %q rendered under pid %d", ev.Name, node, ev.PID)
			}
		} else if ev.PID != 1 {
			t.Errorf("node-less span %s rendered under pid %d", ev.Name, ev.PID)
		}
	}
}
