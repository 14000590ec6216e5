package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/scalable"
)

// The traced pass replays a seeded record stream stage by stage in one
// goroutine, holding the data between stages itself, with a span around each
// call into a layer. Span names are the layer metric names without the
// _ns_per_event suffix; spans inside the program are a later issue, which
// should reuse them.
const (
	spanBatch       = "batch" // root of one Changelog read's journey
	spanRead        = "lustre.changelog_read"
	spanTranslate   = "resolve.translate"
	spanEncode      = "events.wire_encode"
	spanDecode      = "events.wire_decode"
	spanInprocHop   = "msgq.inproc_hop"
	spanTCPHop      = "msgq.tcp_hop"
	spanSplit       = "scalable.partition_split"
	spanAppend      = "eventstore.append"
	spanJournal     = "eventstore.journal_append"
	spanMaterialize = "events.materialize"
	spanOpen        = "eventstore.open"
	spanSince       = "eventstore.since"
	spanWire        = "scalable.recovery_wire"
)

// offPath spans are timed but are not part of the workload's journey, so
// they stay out of the budget sum (see README: the classic topology routes
// per-MDT topics by MDT index and never splits; SinceVector is what the
// recovery wire calls server-side, so adding both would count it twice).
var offPath = map[string]bool{spanBatch: true, spanSplit: true, spanSince: true}

type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the causing span, -1 for a root
	batch      int           // shared by the spans of one batch
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, batch: batch, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.origin) }

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	byName := map[string]time.Duration{}
	for i, s := range t.spans {
		byName[s.name] += self[i]
	}
	return byName
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): one complete event per span, ts/dur in microseconds, the batch
// id and parent span in args.
func (t *tracer) writeChrome(path string) error {
	type chromeEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	out := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		out[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"batch": s.batch, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageSource is the capture half of the journey driven by hand: one reader
// and one resolver per MDT, configured as the collectors configure theirs.
type stageSource struct {
	logs    []*lustre.Changelog
	readers []string
	since   []uint64
	res     []*resolve.Resolver
	turn    int
}

func newStageSource(cluster *lustre.Cluster, logs []*lustre.Changelog) (*stageSource, error) {
	s := &stageSource{logs: logs, since: make([]uint64, len(logs))}
	for _, log := range logs {
		res, err := resolve.New(resolve.Options{
			Backend:         cluster,
			MountPoint:      mountPoint,
			CacheSize:       cacheSize,
			EventOverhead:   unpaced,
			CacheLookupCost: unpaced,
		})
		if err != nil {
			return nil, err
		}
		s.res = append(s.res, res)
		s.readers = append(s.readers, log.Register())
	}
	return s, nil
}

// read is one collector read: up to a batch of records, then the purge.
func (s *stageSource) read(mdt int) []lustre.Record {
	recs := s.logs[mdt].Read(s.since[mdt], pipeline.DefaultChangelogBatch)
	if len(recs) > 0 {
		s.since[mdt] = recs[len(recs)-1].Index
		_ = s.logs[mdt].Clear(s.readers[mdt], s.since[mdt]) // fails only for an unregistered reader
	}
	return recs
}

// nextMDT picks the MDT to read next, alternating while both have records;
// false once every Changelog is drained.
func (s *stageSource) nextMDT() (int, bool) {
	for range s.logs {
		mdt := s.turn % len(s.logs)
		s.turn++
		if s.logs[mdt].Len() > 0 {
			return mdt, true
		}
	}
	return 0, false
}

// next fills blk with the next resolved batch, untraced.
func (s *stageSource) next(blk *events.Block) (mdt int, ok bool) {
	mdt, ok = s.nextMDT()
	if !ok {
		return 0, false
	}
	blk.Reset()
	s.res[mdt].TranslateBlock(blk, s.read(mdt))
	return mdt, true
}

func newBlock() *events.Block { return events.NewBlock(pipeline.DefaultChangelogBatch, 32<<10) }

// hop is one msgq publisher/subscriber pair over the workload's transport.
type hop struct {
	pub *msgq.Pub
	sub *msgq.Sub
}

const hopTopic = "bench.hop"

func newHop(tcp bool) (*hop, error) {
	ep := fmt.Sprintf("inproc://bench%d-hop", topoSerial.Add(1))
	if tcp {
		ep = "tcp://127.0.0.1:0"
	}
	h := &hop{pub: msgq.NewPub(msgq.WithBlockOnFull()), sub: msgq.NewSub()}
	if err := h.pub.Bind(ep); err != nil {
		return nil, err
	}
	h.sub.Subscribe(hopTopic)
	if err := h.sub.Connect(h.pub.Addr()); err != nil {
		h.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.pub.WaitSubscribed(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// send publishes blk and receives it back: one block's trip across the
// transport. A fresh TCP link may not have registered its topic yet, in
// which case the publish reaches nobody and is retried.
func (h *hop) send(ctx context.Context, blk *events.Block) (msgq.Message, error) {
	for {
		if n, _ := h.pub.PublishBlockCtx(ctx, hopTopic, blk); n > 0 {
			break
		}
		select {
		case <-ctx.Done():
			return msgq.Message{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	m, ok := h.sub.Recv(ctx)
	if !ok {
		return msgq.Message{}, fmt.Errorf("hop: receive: %w", ctx.Err())
	}
	return m, nil
}

func (h *hop) close() {
	h.sub.Close()
	h.pub.Close()
}

// tracedPass produces the *_ns_per_event layer metrics and the budget.
func (r *runner) tracedPass(seed int64, traceOut string) error {
	tr := &tracer{origin: time.Now()}
	var nEvents, nRecords int
	var err error
	if r.w.recovery {
		nEvents, err = r.traceRecovery(tr, seed)
	} else {
		nEvents, nRecords, err = r.traceJourney(tr, seed)
	}
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return fmt.Errorf("traced pass: write %s: %w", traceOut, err)
		}
	}
	layer := r.res.layer
	var sum float64
	for name, self := range tr.selfTimes() {
		per := float64(self.Nanoseconds()) / float64(nEvents)
		if !offPath[name] {
			sum += per
		}
		switch name {
		case spanBatch:
			continue // the harness's own time between stages
		case spanRead:
			layer[name+"_ns_per_record"] = float64(self.Nanoseconds()) / float64(nRecords)
		case spanInprocHop, spanTCPHop, spanEncode, spanDecode:
			layer[name+"_ns_per_event"] = per / 2 // the journey crosses two hops; report one
		default:
			layer[name+"_ns_per_event"] = per
		}
	}
	total := r.res.e2e["cpu_us_per_event"].value * 1000
	layer["budget.sum_ns_per_event"] = sum
	layer["budget.unattributed_ns_per_event"] = total - sum
	if total > 0 && total-sum > total/2 {
		r.res.warnings = append(r.res.warnings, fmt.Sprintf(
			"budget: %.0f of %.0f ns/event (%.0f%%) is owned by no layer call: out-of-program timing no longer explains the end-to-end number",
			total-sum, total, 100*(total-sum)/total))
	}
	return nil
}

// traceJourney replays capture -> deliver for a streaming workload.
func (r *runner) traceJourney(tr *tracer, seed int64) (nEvents, nRecords int, err error) {
	w := r.w
	cluster := newCluster()
	gen, err := newGenerator(cluster, w.churn, seed)
	if err != nil {
		return 0, 0, err
	}
	src, err := newStageSource(cluster, gen.logs)
	if err != nil {
		return 0, 0, err
	}
	gen.beginPhase(r.sz.traceEvents)
	expected := gen.preload(r.sz.traceEvents)

	dir, err := os.MkdirTemp("", "fsmon-bench-journal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	engine, err := eventstore.NewSharded(w.parts, storeOptions(w, dir))
	if err != nil {
		return 0, 0, err
	}
	defer engine.Close()
	h, err := newHop(w.tcp)
	if err != nil {
		return 0, 0, err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), phaseLimit)
	defer cancel()

	hopSpan, appendSpan := spanInprocHop, spanAppend
	if w.tcp {
		hopSpan = spanTCPHop
	}
	if w.journal {
		appendSpan = spanJournal
	}
	o := newOracle(w, gen)
	blk, atAgg, atCons := newBlock(), newBlock(), newBlock()
	views := make([]*events.Block, w.parts)
	for i := range views {
		views[i] = newBlock()
	}
	var delivered []events.Event
	var wireBytes, tcpBytes int

	// cross is one hop: publish, receive, and over TCP decode into dst.
	cross := func(root, batch int, cur, dst *events.Block) (*events.Block, error) {
		s := tr.begin(spanEncode, root, batch)
		wire := cur.Wire()
		tr.end(s)
		wireBytes += len(wire)
		s = tr.begin(hopSpan, root, batch)
		m, err := h.send(ctx, cur)
		tr.end(s)
		if err != nil || !w.tcp {
			return cur, err // in process the pointer itself crossed: decode-never
		}
		tcpBytes += len(m.Topic) + len(m.Payload)
		s = tr.begin(spanDecode, root, batch)
		err = events.DecodeBlockInto(dst, m.Payload)
		tr.end(s)
		return dst, err
	}

	for batch := 0; ; batch++ {
		mdt, ok := src.nextMDT()
		if !ok {
			break
		}
		root := tr.begin(spanBatch, -1, batch)

		s := tr.begin(spanRead, root, batch)
		recs := src.read(mdt)
		tr.end(s)
		nRecords += len(recs)

		blk.Reset()
		s = tr.begin(spanTranslate, root, batch)
		src.res[mdt].TranslateBlock(blk, recs)
		tr.end(s)

		cur, err := cross(root, batch, blk, atAgg) // collector -> aggregator
		if err != nil {
			return 0, 0, err
		}
		if w.parts > 1 {
			for _, v := range views {
				v.Reset()
			}
			s = tr.begin(spanSplit, root, batch)
			for i := 0; i < cur.Len(); i++ {
				views[eventstore.PartitionForPathBytes(cur.PathBytes(i), w.parts)].AppendFrom(cur, i)
			}
			tr.end(s)
		}
		s = tr.begin(appendSpan, root, batch)
		_, err = engine.AppendBlockPartition(mdt%w.parts, cur) // the aggregator routes per-MDT topics by MDT index
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		cur, err = cross(root, batch, cur, atCons) // aggregator -> consumer
		if err != nil {
			return 0, 0, err
		}
		s = tr.begin(spanMaterialize, root, batch)
		cur.Intern()
		delivered = cur.AppendEventsTo(delivered[:0])
		tr.end(s)

		tr.end(root)
		o.observe(delivered)
	}
	r.phaseDone("traced pass", o, tierCounts{expected: expected, published: uint64(expected), appended: engine.Stats().Appended, backlog: gen.backlog()}, gen)

	ev := float64(expected)
	r.res.layer["events.wire_bytes_per_event"] = float64(wireBytes) / 2 / ev
	if w.tcp {
		r.res.layer["msgq.tcp_bytes_per_event"] = float64(tcpBytes) / 2 / ev
	}
	return expected, nRecords, nil
}

// traceRecovery replays restart -> replay for crash_recovery: reopen the
// journal, query the store directly, then the same query over the recovery
// wire against a live server.
func (r *runner) traceRecovery(tr *tracer, seed int64) (int, error) {
	dir, expected, err := ingestJournal(r.w, r.sz.traceEvents, seed)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	root := tr.begin(spanBatch, -1, 0)

	s := tr.begin(spanOpen, root, 0)
	engine, err := eventstore.OpenSharded(r.w.parts, storeOptions(r.w, dir))
	tr.end(s)
	if err != nil {
		return 0, err
	}
	defer engine.Close()

	s = tr.begin(spanSince, root, 0)
	direct, err := engine.SinceVector(make([]uint64, r.w.parts), 0)
	tr.end(s)
	if err != nil {
		return 0, err
	}

	srv, err := scalable.NewRecoveryServer(engine, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	s = tr.begin(spanWire, root, 0)
	wired, err := scalable.NewRecoveryClient(srv.Addr()).SinceVector(make([]uint64, r.w.parts), 0)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	tr.end(root)

	o := newOracle(r.w, nil)
	o.observe(wired)
	r.phaseDone("traced pass", o, tierCounts{expected: expected, published: uint64(len(direct)), appended: engine.Stats().Appended}, nil)
	return expected, nil
}
