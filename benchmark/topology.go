package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
)

// The unpaced configuration: the modeled per-event costs are set to the
// smallest value the options accept (zero would select the paper-parity
// defaults of 3µs/500ns/200ns), and the cluster has no Fid2PathCost and no
// OpLatency. What remains is the code's own cost.
const (
	numMDS     = 2
	cacheSize  = 5000
	unpaced    = time.Nanosecond
	mountPoint = "/mnt/lustre"
)

func newCluster() *lustre.Cluster {
	return lustre.NewCluster(lustre.Config{NumMDS: numMDS})
}

// workload is one benchmark configuration. The streaming workloads differ in
// transport, journal, partition count and op stream; crash_recovery has no
// live pipeline at all.
type workload struct {
	name     string
	why      string
	churn    bool // op stream: churn (create/write/rename/unlink) or hot (write/close)
	tcp      bool // tcp://127.0.0.1:0 on both hops instead of inproc
	journal  bool // JSONL journal with SyncEveryN
	parts    int  // store partitions
	recovery bool // crash_recovery: reopen + replay instead of drain + open loop
}

var workloads = []workload{
	{name: "hot_inproc", parts: 1,
		why: "best case: every FID cached, pointer hand-off between tiers, journal off; codec, TCP and journal should be idle"},
	{name: "hot_tcp_journal", parts: 1, tcp: true, journal: true,
		why: "real-cost cell: same op stream over TCP on both hops with the JSONL journal on (page-cache cost, no fsync)"},
	{name: "churn_cold_4part", parts: 4, churn: true,
		why: "miss path: 20000 dirs (4x the cache), create/write/rename/unlink with stale FIDs, cross-MDT renames, 4 store partitions"},
	{name: "crash_recovery", parts: 2, journal: true, recovery: true,
		why: "reads beside writes: journal reload, SinceVector, the recovery wire and consumer replay after a restart"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topology is collectors x2 MDTs -> aggregator -> consumer, composed by hand
// because scalable.Deploy does not thread EventOverhead.
type topology struct {
	cols   []*scalable.Collector
	agg    *scalable.Aggregator
	cons   *scalable.Consumer
	engine *eventstore.Sharded // set when the benchmark owns the engine (journal on)
	dir    string              // journal directory, removed on close
}

var topoSerial atomic.Int64 // keeps inproc endpoint names unique across rounds

// gate is the scalable.Router a collector is started with: the partition's
// owner stays "unassigned" — the collector holds its resolved batches and
// purges nothing, as during a cluster handoff — until the consumer is
// attached. With Parts() == 1 the collector then publishes whole batches on
// its classic per-MDT topic, byte for byte what an unrouted collector sends.
//
// Without it the consumer joins a pipeline already running flat out, and on
// TCP that loses events: msgq.Sub declares a link ready 5 ms after sending
// its SUB frames, a saturated 2-core host can take longer than that to accept
// the connection and read them, and whatever the aggregator republishes
// between the consumer's recovery snapshot and the late registration reaches
// nobody (seen as a 50 688-event seq gap in 1 of ~60 rounds).
type gate struct {
	topic string
	open  *atomic.Bool
}

func (g gate) Parts() int { return 1 }

func (g gate) OwnerTopic(int) (string, bool) { return g.topic, g.open.Load() }

func storeOptions(w workload, dir string) eventstore.Options {
	if !w.journal {
		return eventstore.Options{}
	}
	return eventstore.Options{JournalPath: filepath.Join(dir, "journal"), Sync: eventstore.SyncEveryN}
}

// buildTopology starts the pipeline and returns once events flow: collectors
// (gated), aggregator, consumer, then the gate opens.
func buildTopology(cluster *lustre.Cluster, w workload) (*topology, error) {
	t := &topology{}
	open := new(atomic.Bool)
	id := topoSerial.Add(1)
	endpoint := func(role string) string {
		if w.tcp {
			return "tcp://127.0.0.1:0"
		}
		return fmt.Sprintf("inproc://bench%d-%s", id, role)
	}
	var eps []string
	for mdt := 0; mdt < numMDS; mdt++ {
		col, err := scalable.NewCollector(scalable.CollectorOptions{
			Cluster:         cluster,
			MDT:             mdt,
			MountPoint:      mountPoint,
			CacheSize:       cacheSize,
			Endpoint:        endpoint(fmt.Sprintf("mdt%d", mdt)),
			Router:          gate{topic: fmt.Sprintf("%smdt%d", scalable.TopicPrefix, mdt), open: open},
			EventOverhead:   unpaced,
			CacheLookupCost: unpaced,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.cols = append(t.cols, col)
		eps = append(eps, col.Endpoint())
	}
	aggOpts := scalable.AggregatorOptions{
		CollectorEndpoints: eps,
		Endpoint:           endpoint("agg"),
		StorePartitions:    w.parts,
		EventOverhead:      unpaced,
	}
	if w.journal {
		dir, err := os.MkdirTemp("", "fsmon-bench-journal-")
		if err != nil {
			t.close()
			return nil, err
		}
		t.dir = dir
		t.engine, err = eventstore.NewSharded(w.parts, storeOptions(w, dir))
		if err != nil {
			t.close()
			return nil, err
		}
		aggOpts.Engine = t.engine
	}
	agg, err := scalable.NewAggregator(aggOpts)
	if err != nil {
		t.close()
		return nil, err
	}
	t.agg = agg
	t.cons, err = scalable.NewConsumer(scalable.ConsumerOptions{
		AggregatorEndpoint: agg.Endpoint(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            agg,
		StorePartitions:    w.parts,
		EventOverhead:      unpaced,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	open.Store(true)
	return t, nil
}

// journalBytes is the size of the journal segments on disk; call it after
// the engine is closed so buffered lines are counted.
func journalBytes(dir string) int64 {
	var total int64
	matches, _ := filepath.Glob(filepath.Join(dir, "journal*"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// close tears the pipeline down consumer-first (so the aggregator's
// republish never blocks on a consumer nobody reads) and returns the journal
// bytes written, if any.
func (t *topology) close() int64 {
	if t.cons != nil {
		t.cons.Close()
	}
	for _, c := range t.cols {
		c.Close()
	}
	if t.agg != nil {
		t.agg.Close()
	}
	var jb int64
	if t.engine != nil {
		_ = t.engine.Close() // the journal is scratch; its size is read next and a short count shows there
		jb = journalBytes(t.dir)
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return jb
}
