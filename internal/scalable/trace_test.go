package scalable

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/telemetry"
)

// fullChain asserts a trace is the complete collect→deliver span chain:
// every tier exactly once, in pipeline order, with non-decreasing
// timestamps.
func fullChain(t *testing.T, tr telemetry.Trace) {
	t.Helper()
	if tr.ID == 0 {
		t.Error("trace ID is zero")
	}
	if len(tr.Spans) != events.NumTiers {
		names := make([]string, len(tr.Spans))
		for i, sp := range tr.Spans {
			names[i] = sp.Tier
		}
		t.Fatalf("trace %#x has %d spans %v, want the %d-tier chain", tr.ID, len(tr.Spans), names, events.NumTiers)
	}
	for i, sp := range tr.Spans {
		if want := events.TierName(uint8(i)); sp.Tier != want {
			t.Errorf("span %d tier = %q, want %q", i, sp.Tier, want)
		}
		if sp.TS <= 0 {
			t.Errorf("span %d (%s) has no timestamp", i, sp.Tier)
		}
		if i > 0 && sp.TS < tr.Spans[i-1].TS {
			t.Errorf("span %d (%s) at %d precedes span %d at %d",
				i, sp.Tier, sp.TS, i-1, tr.Spans[i-1].TS)
		}
	}
}

// TestTraceSpanChain is the acceptance test for span tracing: with 1-in-1
// sampling armed before deployment, every delivered batch completes a full
// collect → resolve → publish → partition → store → republish → deliver
// chain — at one partition (the MDT fast path re-decoded on the store
// lane), at two (partition routing plus per-partition republish topics),
// and when the chain opens at a DSI-source collector (the shared seal; the
// collector's path-hash split carries it on).
func TestTraceSpanChain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parts  int
		mounts bool
	}{{"parts=1", 1, false}, {"parts=2", 2, false}, {"mounts", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			reg.EnableTracing(1, 0) // before Deploy: collectors read the rate at startup
			opts := DeployOptions{
				CacheSize:       100,
				PollInterval:    time.Millisecond,
				StorePartitions: tc.parts,
				Telemetry:       reg,
			}
			cluster, fake := testCluster(1), newFakeDSI()
			if tc.mounts {
				cluster = nil
				opts.Mounts = []MountSource{{Prefix: "/m", DSI: fake}}
			}
			m, err := Deploy(cluster, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			con, err := m.NewConsumer(iface.Filter{Recursive: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer con.Close()

			for _, p := range []string{"/t1.txt", "/t2.txt", "/t3.txt"} {
				if tc.mounts {
					fake.Emit(fakeCreate(p))
				} else if err := cluster.Client().Create(p); err != nil {
					t.Fatal(err)
				}
			}
			if got := drainConsumer(con, 300*time.Millisecond); len(got) != 3 {
				t.Fatalf("delivered %d events, want 3", len(got))
			}

			traces := reg.Traces().Snapshot()
			if len(traces) == 0 {
				t.Fatal("no traces completed")
			}
			for _, tr := range traces {
				fullChain(t, tr)
			}
		})
	}
}

// TestTraceFollowsEventAcrossSplit exercises the collector's path-hash
// split (a 2-part route in front of a 2-partition aggregator): the trace
// must follow the slice carrying its sampled event — identified by
// EventKey, not batch identity — and still complete the full chain at the
// consumer.
func TestTraceFollowsEventAcrossSplit(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(1, 0) // the first event of each batch opens its chain

	// Written before the collector starts, so its first Changelog read
	// takes them as one batch; enough distinct paths that both partitions
	// receive events, so the trace's slice is a strict subset of it. The
	// route is held until the consumer is attached: events it recovered
	// from the store instead would complete no trace.
	cluster := testCluster(1)
	const files = 8
	for i := 0; i < files; i++ {
		if err := cluster.Client().Create(fmt.Sprintf("/f%d.txt", i)); err != nil {
			t.Fatal(err)
		}
	}
	released := new(atomic.Bool)
	col, err := NewCollector(CollectorOptions{
		Cluster: cluster, MountPoint: "/mnt/lustre", CacheSize: 100,
		Endpoint:     fmt.Sprintf("inproc://trace-split-col-%p", reg),
		Router:       heldRoute{topics: partitionRoute(TopicPrefix+"mdt0", 2), released: released},
		PollInterval: time.Millisecond,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	con := tracedTier(t, reg, col.Endpoint())
	released.Store(true)

	got := drainUntil(con, files, 10*time.Second)
	if len(got) != files {
		t.Fatalf("delivered %d events, want %d", len(got), files)
	}
	if v := con.Stats().LastSeqVector; v[0] == 0 || v[1] == 0 {
		t.Fatalf("partition cursors %v: the batch was not split across both partitions", v)
	}
	var sampled events.Event
	for _, e := range got {
		if e.Path == "/f0.txt" {
			sampled = e
		}
	}
	traces := reg.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("completed traces = %d, want exactly 1 (the chain follows one slice)", len(traces))
	}
	if traces[0].ID != events.EventKey(sampled) {
		t.Errorf("trace ID %#x, want the sampled event's key %#x", traces[0].ID, events.EventKey(sampled))
	}
	fullChain(t, traces[0])
}

// TestForeignTopicDeliveredWhole: a batch on a topic that names neither an
// MDT nor a partition — a source the aggregator knows nothing about — is
// not split: a 2-partition aggregator stores it whole in one partition and
// delivers it from there, its trace intact.
func TestForeignTopicDeliveredWhole(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(1, 0)

	// A stand-in collector: a bare publisher on a topic outside the
	// "events.mdt<N>" and "<topic>.p<k>" schemes.
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind(fmt.Sprintf("inproc://foreign-topic-%p", reg)); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	con := tracedTier(t, reg, pub.Addr())

	// Distinct paths that a path-hash split would spread over both
	// partitions.
	now := time.Now()
	var evs []events.Event
	for i := 0; i < 8; i++ {
		evs = append(evs, events.Event{
			Root:   "/mnt/lustre",
			Op:     events.OpCreate,
			Path:   fmt.Sprintf("/split/f%d.txt", i),
			Source: "lustre",
			Time:   now.Add(time.Duration(i)),
		})
	}
	sampled := evs[5]
	tr := &events.BatchTrace{ID: events.EventKey(sampled)}
	tr.Append(events.TierCollect, now.UnixNano())
	tr.Append(events.TierResolve, now.UnixNano())
	tr.Append(events.TierPublish, now.UnixNano())
	const topic = TopicPrefix + "external"
	pub.Publish(topic, eventstest.WireBatch(t, evs, now.UnixNano(), tr))

	got := drainUntil(con, len(evs), 10*time.Second)
	if len(got) != len(evs) {
		t.Fatalf("delivered %d events, want %d", len(got), len(evs))
	}
	want := uint64(topicPartition(topic, 2))
	for i, e := range got {
		if e.Path != evs[i].Path || e.Seq%2 != want {
			t.Fatalf("event %d is %q from partition %d, want %q from partition %d: the batch was split or reordered",
				i, e.Path, e.Seq%2, evs[i].Path, want)
		}
	}
	traces := reg.Traces().Snapshot()
	if len(traces) != 1 || traces[0].ID != events.EventKey(sampled) {
		t.Fatalf("completed traces %v, want the one sampled chain %#x", traces, events.EventKey(sampled))
	}
	fullChain(t, traces[0])
}

// tracedTier starts a traced 2-partition aggregator over one collector
// endpoint and returns a consumer of it; both close at the end of the test.
func tracedTier(t *testing.T, reg *telemetry.Registry, collector string) *Consumer {
	t.Helper()
	agg, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{collector},
		Endpoint:           fmt.Sprintf("inproc://traced-tier-%p", reg),
		StorePartitions:    2,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Close)
	con, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoint: agg.Endpoint(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            agg,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(con.Close)
	return con
}

// TestUntracedDeploymentAddsNoTraces: telemetry on but sampling off — the
// PR-4 configuration — must complete zero traces and leave the registry's
// ring unallocated.
func TestUntracedDeploymentAddsNoTraces(t *testing.T) {
	cluster := testCluster(1)
	reg := telemetry.NewRegistry()
	m, err := Deploy(cluster, DeployOptions{
		CacheSize:    100,
		PollInterval: time.Millisecond,
		Telemetry:    reg,
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
	if err := cluster.Client().Create("/plain.txt"); err != nil {
		t.Fatal(err)
	}
	if got := drainConsumer(con, 200*time.Millisecond); len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
	if ring := reg.Traces(); ring != nil {
		t.Errorf("trace ring allocated without EnableTracing (len %d)", ring.Len())
	}
}
