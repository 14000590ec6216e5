package scalable

import (
	"fmt"
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
// aggregator's path-hash split carries it on).
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

// TestTraceFollowsEventAcrossSplit exercises the aggregator's path-hash
// split (a batch arriving on a topic that names no MDT): the trace must
// follow the sub-batch carrying its sampled event — identified by
// EventKey, not batch identity — and still complete the full chain at the
// consumer.
func TestTraceFollowsEventAcrossSplit(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(1, 0)

	// A stand-in collector: a bare publisher on a topic outside the
	// "events.mdt<N>" scheme, forcing the aggregator's split path.
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	if err := pub.Bind("inproc://trace-split-test"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	agg, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{pub.Addr()},
		Endpoint:           "inproc://trace-split-agg",
		StorePartitions:    2,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	con, err := NewConsumer(ConsumerOptions{
		AggregatorEndpoint: agg.Endpoint(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            agg,
		Telemetry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	// Enough distinct paths that both partitions receive events, so the
	// trace's sub-batch is a strict subset of the original.
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
	pub.Publish(TopicPrefix+"external", eventstest.WireBatch(t, evs, now.UnixNano(), tr))

	if got := drainConsumer(con, 300*time.Millisecond); len(got) != len(evs) {
		t.Fatalf("delivered %d events, want %d", len(got), len(evs))
	}
	traces := reg.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("completed traces = %d, want exactly 1 (the chain follows one sub-batch)", len(traces))
	}
	if traces[0].ID != events.EventKey(sampled) {
		t.Errorf("trace ID %#x, want the sampled event's key %#x", traces[0].ID, events.EventKey(sampled))
	}
	fullChain(t, traces[0])
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
