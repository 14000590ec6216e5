package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/pipeline"
	"fsmonitor/internal/scalable"
)

// sizing is how much work one run measures.
type sizing struct {
	roundEvents int           // events per drain (or recovery) round
	minRounds   int           // timed rounds at least; one untimed warm-up round precedes them
	budget      time.Duration // keep adding timed rounds while the next one still fits in this much
	openLoop    time.Duration // open-loop segment that follows every drain
	discard     time.Duration // leading part of a segment that is not sampled
	traceEvents int           // events the traced pass replays stage by stage
}

// Open-loop schedule: events per second, issued regardless of delivery. The
// rate is a tenth of the slowest streaming workload's drain rate: generator
// and pipeline together keep about an eighth of this host's two cores busy, so
// a neighbour that takes CPU away delays wake-ups but starts no queue. (At
// 200 000/s churn_cold_4part needs a whole core, a second process on the host
// takes its median latency from 3 ms to 13 ms, and ten same-code runs spread
// 9% in a quiet hour and 34% in a busy one.)
const (
	openLoopRate = 50000
	openLoopTick = 500 * time.Microsecond // generator wake-up period; this host rounds it up to ~1.1 ms
	phaseLimit   = 30 * time.Second       // a phase still short of its events after this long has lost them
)

// sizeFor gives every round a fixed amount of work — a drain of roundEvents,
// then a 1.2 s open-loop segment whose first 0.2 s is not sampled — and the
// run as many rounds as fit in the measured seconds, 5 at least: a slower host
// measures fewer rounds, not smaller ones. Below 10 seconds (tests, smoke
// runs) the rounds shrink as well.
func sizeFor(w workload, seconds int) sizing {
	sz := sizing{roundEvents: 1000000, minRounds: 5, traceEvents: 300000,
		openLoop: 1200 * time.Millisecond, discard: 200 * time.Millisecond}
	if w.churn || w.recovery {
		sz.roundEvents = 500000 // slower paths: the same wall clock per round
	}
	if seconds < 10 {
		sz.roundEvents = max(sz.roundEvents*seconds/10, 20000)
		sz.traceEvents = max(sz.traceEvents*seconds/10, 20000)
		sz.openLoop = sz.openLoop * time.Duration(seconds) / 10
		sz.discard = sz.discard * time.Duration(seconds) / 10
		sz.minRounds = 2
	}
	sz.budget = time.Duration(seconds) * time.Second
	return sz
}

// quickSizing is the -quick mode the package test runs: 1 warm-up + 2 rounds
// of 50k events, each followed by 0.3 s of open loop.
var quickSizing = sizing{roundEvents: 50000, minRounds: 2, openLoop: 300 * time.Millisecond, discard: 50 * time.Millisecond, traceEvents: 20000}

type metrics map[string]float64

// spread is one end-to-end metric over the timed rounds; value is the one the
// run reports: the median, or for a metricDef marked best the better quartile.
type spread struct {
	value          float64
	q1, median, q3 float64
	n              int
}

// result is what one workload run reports.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  []string // first violation of each failed phase
	warnings  []string
	e2e       map[string]spread
	layer     metrics
}

// resources is the process-wide cost snapshot a timed window is bracketed
// with: user+sys CPU from getrusage and the allocator's lifetime counters.
type resources struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// costMetrics turns a timed window into the per-event end-to-end metrics.
func costMetrics(m metrics, n int, wall time.Duration, before, after resources) {
	ev := float64(n)
	m["events_per_s"] = ev / wall.Seconds()
	m["cpu_us_per_event"] = float64(after.cpu-before.cpu) / float64(time.Microsecond) / ev
	m["allocs_per_event"] = float64(after.mallocs-before.mallocs) / ev
	m["alloc_bytes_per_event"] = float64(after.bytes-before.bytes) / ev
}

// runner carries one workload run.
type runner struct {
	w       workload
	sz      sizing
	res     *result
	growing int // open-loop segments whose Changelog backlog was still growing when they ended
}

func runWorkload(w workload, sz sizing, seed int64, traced bool, traceOut string) (*result, error) {
	r := &runner{w: w, sz: sz, res: &result{workload: w.name, seed: seed, e2e: map[string]spread{}, layer: metrics{}}}
	var rounds []metrics
	var err error
	if w.recovery {
		rounds, err = r.recoveryRounds(seed)
	} else {
		rounds, err = r.streamingRounds(seed)
	}
	if err != nil {
		return nil, err
	}
	r.summarize(rounds)
	if traced {
		if err := r.tracedPass(seed, traceOut); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// summarize reduces the timed rounds: end-to-end metrics to their quartiles
// and the reported value, layer metrics to the median.
func (r *runner) summarize(rounds []metrics) {
	byName := map[string][]float64{}
	for _, m := range rounds {
		for k, v := range m {
			byName[k] = append(byName[k], v)
		}
	}
	for k, vals := range byName {
		if d, ok := endToEndDef(k); ok {
			q1, q2, q3 := quartiles(vals)
			s := spread{value: q2, q1: q1, median: q2, q3: q3, n: len(vals)}
			if d.best {
				s.value = q1
				if d.better == "higher" {
					s.value = q3
				}
			}
			r.res.e2e[k] = s
		} else {
			r.res.layer[k] = median(vals)
		}
	}
}

// phaseDone books one phase's oracle verdict and, for phases with a
// generator, the generator's own: no operation failed and the namespace is
// the size it was built.
func (r *runner) phaseDone(phase string, o *oracle, tc tierCounts, gen *generator) {
	if gen != nil && gen.opErrs > 0 {
		o.failN(gen.opErrs, "%d generator operations failed", gen.opErrs)
	}
	if gen != nil && gen.live != gen.built {
		o.fail("namespace changed size: %d live files built, %d after the phase", gen.built, gen.live)
	}
	failed := o.finish(tc)
	r.res.attempted += tc.expected
	r.res.failed += failed
	if failed > 0 {
		r.res.failures = append(r.res.failures, fmt.Sprintf("%s: %d failed: %s", phase, failed, o.first))
	}
}

// streamingRounds runs the rounds of a streaming workload: one warm-up, then
// the timed ones. Every round is a complete set-up of its own — fresh cluster,
// namespace build, preload — then a timed drain and, on the same warm
// topology, an open-loop segment. So rounds start from identical state,
// setup_s is a median of whole set-ups, and the latency samples are spread
// over the whole run instead of sitting in whichever seconds the host gave its
// last phase.
func (r *runner) streamingRounds(seed int64) ([]metrics, error) {
	var rounds []metrics
	began := time.Now()
	for i := 0; r.moreRounds(i, began); i++ {
		phase := fmt.Sprintf("round %d", i)
		ts := time.Now()
		cluster := newCluster()
		gen, err := newGenerator(cluster, r.w.churn, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: namespace build: %w", phase, err)
		}
		gen.beginPhase(r.sz.roundEvents + int(r.sz.openLoop.Seconds()*openLoopRate)) // a step is at least 2 events, so this is ample
		gen.preload(r.sz.roundEvents)
		setup := time.Since(ts)
		m, err := r.round(phase, cluster, gen)
		if err != nil {
			return nil, err
		}
		if i > 0 { // round 0 warms up
			m["setup_s"] = setup.Seconds()
			rounds = append(rounds, m)
		}
	}
	if r.growing > 0 {
		r.res.warnings = append(r.res.warnings, fmt.Sprintf("open loop: Changelog backlog still growing at the end of %d segments", r.growing))
	}
	if p99 := median(column(rounds, "generator.late_p99_ms")); p99 > 5 {
		r.res.warnings = append(r.res.warnings, fmt.Sprintf("open loop: generator p99 lateness %.1f ms: stalls of that length hit the whole process", p99))
	}
	return rounds, nil
}

func column(rounds []metrics, name string) []float64 {
	var vals []float64
	for _, m := range rounds {
		vals = append(vals, m[name])
	}
	return vals
}

// moreRounds decides whether round i (0 = warm-up) runs: always up to the
// minimum, then while one more round as long as the mean so far still fits in
// the budget.
func (r *runner) moreRounds(i int, began time.Time) bool {
	if i <= r.sz.minRounds {
		return true
	}
	spent := time.Since(began)
	return spent+spent/time.Duration(i) <= r.sz.budget
}

// receive reads delivered batches into the oracle until the count sent on
// total has arrived, calling each (when non-nil) with the batch and its
// receive time. total may be sent late: the open loop only knows how many
// events it issued once its schedule ends.
func receive(cons *scalable.Consumer, o *oracle, total <-chan int, each func([]events.Event, time.Time)) error {
	limit := time.NewTimer(phaseLimit)
	defer limit.Stop()
	want := math.MaxInt
	for o.received < want {
		select {
		case want = <-total:
		case batch, ok := <-cons.C():
			if !ok {
				return errors.New("consumer closed early")
			}
			if each != nil {
				each(batch, time.Now())
			}
			o.observe(batch)
		case <-limit.C:
			return fmt.Errorf("gave up after %v: %d events delivered", phaseLimit, o.received)
		}
	}
	return nil
}

// fixed is a total known up front.
func fixed(n int) <-chan int {
	c := make(chan int, 1)
	c <- n
	return c
}

// awaitDrained waits for the collectors' purge to catch up with delivery: a
// collector clears its Changelog only after the publish that carried the
// last event, so the consumer can see that event first.
func awaitDrained(gen *generator) int {
	deadline := time.Now().Add(2 * time.Second)
	for gen.backlog() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return gen.backlog()
}

// round times one unpaced drain — the records are already in the Changelogs;
// the clock covers building the topology and delivering the round's last
// event — and then runs the open-loop segment on the topology the drain left
// warm. One oracle follows the stream through both.
func (r *runner) round(phase string, cluster *lustre.Cluster, gen *generator) (metrics, error) {
	o := newOracle(r.w, gen)
	expected := gen.events
	runtime.GC() // the previous round's cluster and store are garbage: start every round from the same heap
	before := readResources()
	start := time.Now()
	topo, err := buildTopology(cluster, r.w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	rerr := receive(topo.cons, o, fixed(expected), nil)
	wall := time.Since(start)
	after := readResources()
	if rerr != nil {
		topo.close()
		return nil, fmt.Errorf("%s: drain: %w", phase, rerr)
	}
	m := metrics{}
	costMetrics(m, expected, wall, before, after)
	left := awaitDrained(gen) // the segment starts from empty Changelogs
	r.pipelineStats(m, topo, o, wall, &tierCounts{expected: expected})
	if err := r.openLoop(m, cluster, topo, gen, o); err != nil {
		topo.close()
		return nil, fmt.Errorf("%s: open loop: %w", phase, err)
	}
	tc := tierCounts{expected: gen.events, backlog: left + awaitDrained(gen)}
	r.pipelineStats(metrics{}, topo, o, wall, &tc) // the layer metrics are the drain's; the counters are read again for the oracle
	jb := topo.close()
	if r.w.journal {
		m["eventstore.journal_bytes_per_event"] = float64(jb) / float64(tc.expected)
	}
	r.phaseDone(phase, o, tc, gen)
	return m, nil
}

// pipelineStats reads every tier's public Stats after a phase: the counters
// the oracle balances (into tc), and the per-layer metrics that need no
// tracing (into m).
func (r *runner) pipelineStats(m metrics, topo *topology, o *oracle, wall time.Duration, tc *tierCounts) {
	ev := float64(tc.expected)
	var calls, stale, hits, misses, evictions uint64
	stages := map[string]pipeline.Stats{} // "<tier>.<stage>", Blocked summed and QueuePeak maxed over collectors
	add := func(tier string, ps []pipeline.Stats) {
		for _, s := range ps {
			k := tier + "." + s.Name
			acc := stages[k]
			acc.Blocked += s.Blocked
			acc.QueuePeak = max(acc.QueuePeak, s.QueuePeak)
			stages[k] = acc
		}
	}
	for _, c := range topo.cols {
		st := c.Stats()
		tc.published += st.EventsPublished
		calls += st.Fid2PathCalls
		stale += st.Fid2PathStale
		hits += st.Cache.Hits
		misses += st.Cache.Misses
		evictions += st.Cache.Evictions
		add("collector", st.Pipeline)
	}
	as := topo.agg.Stats()
	tc.appended = as.Store.Appended
	add("aggregator", as.Pipeline)
	cs := topo.cons.Stats()
	add("consumer", cs.Pipeline)

	m["resolve.fid2path_calls_per_event"] = float64(calls) / ev
	m["resolve.stale_per_event"] = float64(stale) / ev
	if hits+misses > 0 {
		m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["cache.evictions_per_event"] = float64(evictions) / ev
	m["eventstore.evicted_per_event"] = float64(as.Store.Evicted) / ev
	m["consumer.recovered_events"] = float64(cs.Recovered)
	for _, k := range blockedStages {
		m["scalable."+k+".blocked_share"] = stages[k].Blocked.Seconds() / wall.Seconds()
		m["scalable."+k+".queue_peak"] = float64(stages[k].QueuePeak)
	}
	if r.w.parts > 1 {
		var most, total uint64
		for _, c := range o.perLane {
			most = max(most, c)
			total += c
		}
		if total > 0 {
			m["scalable.partition_skew"] = float64(most) * float64(r.w.parts) / float64(total)
		}
	}
}

// blockedStages are the stages with a downstream queue, named as the code
// registers them. The stage that is busy while those before it are blocked
// is the bottleneck.
var blockedStages = []string{
	"collector.changelog-read", "collector.resolve",
	"aggregator.subscribe", "aggregator.partition", "aggregator.store",
	"consumer.subscribe",
}

// openLoop runs one latency segment on a topology that is up and drained: the
// generator issues steps on a fixed schedule of openLoopRate events/s
// regardless of delivery. The cluster clock returns each step's due time, so
// Event.Time is the due time and latency = receive time - Event.Time counts
// every stall.
//
// The generator sleeps between bursts instead of spinning: a spinning
// generator holds one of the host's two cores and makes the median latency a
// property of the scheduler (it moved 15% between identical runs). The price
// is that up to one tick of schedule quantization is part of every latency,
// the same on every commit.
//
// A segment reports its own percentiles; the run reports the median over the
// rounds' segments, so a GC stall or a busy neighbour moves some segments, not
// the result.
func (r *runner) openLoop(m metrics, cluster *lustre.Cluster, topo *topology, gen *generator, o *oracle) error {
	base := gen.events
	sampled := r.sz.openLoop - r.sz.discard
	lat := make([]int64, 0, int(sampled.Seconds()*openLoopRate)+16)
	late := make([]int64, 0, int(r.sz.openLoop.Seconds()*openLoopRate)/2)

	var due time.Time
	cluster.SetClock(func() time.Time { return due })
	start := time.Now()
	sampleFrom := start.Add(r.sz.discard).UnixNano() // the drain's events carry earlier times

	// The consumer side runs beside the generator.
	total := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		done <- receive(topo.cons, o, total, func(batch []events.Event, now time.Time) {
			t := now.UnixNano()
			for i := range batch {
				if at := batch[i].Time.UnixNano(); at >= sampleFrom {
					lat = append(lat, t-at)
				}
			}
		})
	}()

	// The backlog is sampled every tick, by halves of the sampled part, so
	// growth across the segment is visible.
	var backlog [2][]float64
	for {
		elapsed := time.Since(start)
		if elapsed >= r.sz.openLoop {
			break
		}
		target := int(elapsed.Seconds() * openLoopRate)
		for gen.events-base < target {
			due = start.Add(time.Duration(float64(gen.events-base) / openLoopRate * float64(time.Second)))
			late = append(late, time.Since(due).Nanoseconds())
			gen.issue()
		}
		if elapsed >= r.sz.discard {
			h := int((elapsed - r.sz.discard) * 2 / sampled)
			backlog[h] = append(backlog[h], float64(gen.backlog()))
		}
		time.Sleep(openLoopTick)
	}
	genWall := time.Since(start)
	total <- gen.events
	if err := <-done; err != nil {
		return err
	}

	m["deliver_p50_ms"] = percentile(lat, 50) / 1e6
	m["consumer.deliver_p99_ms"] = percentile(lat, 99) / 1e6
	m["consumer.latency_samples"] = float64(len(lat))
	m["generator.late_p99_ms"] = percentile(late, 99) / 1e6
	m["generator.ops_per_s"] = float64(gen.events-base) / genWall.Seconds()
	m["lustre.changelog_backlog_peak"] = max(percentile(backlog[0], 100), percentile(backlog[1], 100))
	// Unsustainable rate: the typical backlog of the second half stands clear
	// of the first's. (The peaks would not do: one GC stall makes a peak.)
	if median(backlog[1]) > 2*median(backlog[0])+2*pipeline.DefaultChangelogBatch {
		r.growing++
	}
	return nil
}

// recoveryRounds measures crash recovery. Every round first ingests
// roundEvents hot events into a fresh journalled engine and closes it (set-up,
// untimed), then times the restart: OpenSharded -> RecoveryServer ->
// Consumer{Recover: RecoveryClient, SinceVector: zeros} against an idle
// publisher, until every event is delivered.
func (r *runner) recoveryRounds(seed int64) ([]metrics, error) {
	var rounds []metrics
	began := time.Now()
	for i := 0; r.moreRounds(i, began); i++ {
		phase := fmt.Sprintf("recovery round %d", i)
		ts := time.Now()
		dir, n, err := ingestJournal(r.w, r.sz.roundEvents, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: ingest: %w", phase, err)
		}
		setup := time.Since(ts)
		m, err := r.recoveryRound(phase, dir, n)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			m["setup_s"] = setup.Seconds()
			rounds = append(rounds, m)
		}
	}
	return rounds, nil
}

// ingestJournal builds the journal a crashed aggregator leaves behind: hot
// events resolved from a fresh cluster and appended block by block, MDT i
// into partition i, then the engine is closed. The caller removes dir.
func ingestJournal(w workload, want int, seed int64) (dir string, n int, err error) {
	cluster := newCluster()
	gen, err := newGenerator(cluster, false, seed)
	if err != nil {
		return "", 0, err
	}
	src, err := newStageSource(cluster, gen.logs)
	if err != nil {
		return "", 0, err
	}
	n = gen.preload(want)
	dir, err = os.MkdirTemp("", "fsmon-bench-journal-")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	engine, err := eventstore.NewSharded(w.parts, storeOptions(w, dir))
	if err != nil {
		return "", 0, err
	}
	blk := newBlock()
	for {
		mdt, ok := src.next(blk)
		if !ok {
			break
		}
		if _, err = engine.AppendBlockPartition(mdt%w.parts, blk); err != nil {
			engine.Close()
			return "", 0, err
		}
	}
	if err = engine.Close(); err != nil {
		return "", 0, err
	}
	return dir, n, nil
}

func (r *runner) recoveryRound(phase, dir string, expected int) (metrics, error) {
	o := newOracle(r.w, nil)
	runtime.GC()
	before := readResources()
	start := time.Now()

	engine, err := eventstore.OpenSharded(r.w.parts, storeOptions(r.w, dir))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	defer engine.Close()
	srv, err := scalable.NewRecoveryServer(engine, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	defer srv.Close()
	idle := msgq.NewPub(msgq.WithBlockOnFull()) // the restarted aggregator's publisher: bound, silent
	if err := idle.Bind(fmt.Sprintf("inproc://bench%d-idle", topoSerial.Add(1))); err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	defer idle.Close()
	cons, err := scalable.NewConsumer(scalable.ConsumerOptions{
		AggregatorEndpoint: idle.Addr(),
		Filter:             iface.Filter{Recursive: true},
		Recover:            scalable.NewRecoveryClient(srv.Addr()),
		SinceVector:        make([]uint64, r.w.parts),
		EventOverhead:      unpaced,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	defer cons.Close()
	// The consumer hands the whole replay over as one batch, so with nothing
	// recovered there is nothing to wait for.
	if recovered := int(cons.Stats().Recovered); recovered > 0 {
		if err := receive(cons, o, fixed(min(recovered, expected)), nil); err != nil {
			return nil, fmt.Errorf("%s: %w", phase, err)
		}
	}
	wall := time.Since(start)
	after := readResources()

	m := metrics{}
	costMetrics(m, expected, wall, before, after)
	// Every replayed event becomes available at the same instant — the end of
	// the replay — so the median restart-to-delivery time is the whole window.
	m["deliver_p50_ms"] = float64(wall) / float64(time.Millisecond)
	m["consumer.recovered_events"] = float64(cons.Stats().Recovered)
	r.phaseDone(phase, o, tierCounts{expected: expected, published: uint64(expected), appended: engine.Stats().Appended}, nil)
	return m, nil
}
