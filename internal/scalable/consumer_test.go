package scalable

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
	"fsmonitor/internal/telemetry"
)

// historySource is a RecoverySource over a fixed event list, paged as a
// store pages; it ignores the cursors, leaving the dedup to the consumer.
type historySource []events.Event

func (h historySource) RecoverPages(_ []uint64, page func(*events.Block) error) error {
	blk := events.NewBlock(recoveryBatchMax, 0)
	for at := 0; at < len(h); at += recoveryBatchMax {
		blk.Reset()
		for _, e := range h[at:min(len(h), at+recoveryBatchMax)] {
			if err := blk.AppendEvent(e); err != nil {
				return err
			}
		}
		if err := page(blk); err != nil {
			return err
		}
	}
	return nil
}

// recoverAll is every event src holds, materialized in one slice.
func recoverAll(t testing.TB, src RecoverySource) []events.Event {
	t.Helper()
	var evs []events.Event
	if err := src.RecoverPages([]uint64{0}, func(blk *events.Block) error {
		blk.Intern()
		evs = blk.AppendEventsTo(evs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// seqBlock builds a block of n events with seqs first..first+n-1, every
// other one under /keep and the rest under /skip.
func seqBlock(t testing.TB, first uint64, n int) *events.Block {
	t.Helper()
	blk := events.NewBlock(n, 0)
	for i := 0; i < n; i++ {
		seq := first + uint64(i)
		dir := "/keep"
		if seq%2 == 1 {
			dir = "/skip"
		}
		e := events.Event{Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("%s/f%06d", dir, seq),
			Time: time.Unix(0, int64(seq)), Seq: seq, Source: "lustre-mdt0"}
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return blk
}

// attachConsumer attaches a consumer to a fresh in-process publisher.
func attachConsumer(t testing.TB, opts ConsumerOptions) (*msgq.Pub, *Consumer) {
	t.Helper()
	pub := msgq.NewPub(msgq.WithBlockOnFull())
	opts.AggregatorEndpoint = fmt.Sprintf("inproc://consumer-%p-%d", t, time.Now().UnixNano())
	if err := pub.Bind(opts.AggregatorEndpoint); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Close)
	con, err := NewConsumer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(con.Close)
	return pub, con
}

// TestConsumerPacesPerBatch pins the consumer's accounting now that it paces
// once per batch: busy time is still exactly EventOverhead for every event
// that survives cursor dedup — filtered out or not — on the live path and on
// the replay path, so Tables IV/VII's consumer rows are the same sums.
func TestConsumerPacesPerBatch(t *testing.T) {
	const n, batch, overhead = 2048, 256, 200 * time.Nanosecond
	keep := iface.Filter{Under: "/keep", Recursive: true}
	waitDelivered := func(con *Consumer, want uint64) ConsumerStats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for got := uint64(0); got < want; {
			select {
			case b := <-con.C():
				got += uint64(len(b))
			case <-time.After(time.Until(deadline)):
				t.Fatalf("delivered %d of %d events", got, want)
			}
		}
		return con.Stats()
	}

	t.Run("live", func(t *testing.T) {
		pub, con := attachConsumer(t, ConsumerOptions{Filter: keep})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for first := uint64(1); first <= n; first += batch {
			if delivered, _ := pub.PublishBlockCtx(ctx, AggTopic, seqBlock(t, first, batch)); delivered != 1 {
				t.Fatalf("batch at seq %d reached %d consumers", first, delivered)
			}
		}
		// An overlap batch (the recovery/live window): received, deduplicated,
		// and therefore neither paced nor delivered.
		pub.PublishBlockCtx(ctx, AggTopic, seqBlock(t, n-batch+1, batch))
		pub.PublishBlockCtx(ctx, AggTopic, seqBlock(t, n+1, 2))
		st := waitDelivered(con, n/2+1)
		if st.Received != n+batch+2 || st.Delivered != n/2+1 || st.BusyTime != (n+2)*overhead {
			t.Errorf("received %d delivered %d busy %v; want %d, %d, %v",
				st.Received, st.Delivered, st.BusyTime, n+batch+2, n/2+1, (n+2)*overhead)
		}
	})

	t.Run("replay", func(t *testing.T) {
		var history historySource
		history = seqBlock(t, 1, n+100).AppendEventsTo(history)
		_, con := attachConsumer(t, ConsumerOptions{Filter: keep, Recover: history, SinceSeq: 100})
		st := waitDelivered(con, n/2)
		if st.Received != 0 || st.Recovered != n/2 || st.Delivered != n/2 || st.BusyTime != n*overhead {
			t.Errorf("received %d recovered %d delivered %d busy %v; want 0, %d, %d, %v",
				st.Received, st.Recovered, st.Delivered, st.BusyTime, n/2, n/2, n*overhead)
		}
	})
}

// A delivered batch holds its root and source once: every event of it
// shares one Root backing and one Source backing, whether the consumer read
// the block an aggregator shares in process or one decoded over a payload.
func TestDeliveredPageSharesRootAndSource(t *testing.T) {
	built := seqBlock(t, 1, 512)
	decoded, err := events.DecodeBlock(built.Wire())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		blk  *events.Block
	}{{"pointer", built}, {"decoded", decoded}} {
		_, con := attachConsumer(t, ConsumerOptions{Filter: iface.Filter{Recursive: true}})
		go con.deliverBatch(context.Background(), conBatch{m: msgq.Message{Block: c.blk}, blk: c.blk})
		var page []events.Event
		select {
		case page = <-con.C():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: nothing delivered", c.name)
		}
		if len(page) != built.Len() {
			t.Fatalf("%s: %d events delivered, want %d", c.name, len(page), built.Len())
		}
		for i, e := range page {
			if e.Root != "/mnt/lustre" || e.Source != "lustre-mdt0" {
				t.Fatalf("%s: event %d is under %q from %q", c.name, i, e.Root, e.Source)
			}
			if unsafe.StringData(e.Root) != unsafe.StringData(page[0].Root) || unsafe.StringData(e.Source) != unsafe.StringData(page[0].Source) {
				t.Fatalf("%s: event %d has a root or source of its own", c.name, i)
			}
		}
	}
}

// unseqBlock builds a block of n creates under dir, all with seq 0: dedup
// lets such rows through every time, so one frozen block can be published
// again and again.
func unseqBlock(t testing.TB, dir string, n int) *events.Block {
	t.Helper()
	blk := events.NewBlock(n, 0)
	for i := 0; i < n; i++ {
		e := events.Event{Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("%s/f%06d", dir, i),
			Time: time.Unix(0, int64(i)), Source: "lustre-mdt0"}
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return blk
}

// checkBatch fails unless got is the events of blk, value for value.
func checkBatch(t testing.TB, name string, got []events.Event, blk *events.Block) {
	t.Helper()
	if len(got) != blk.Len() {
		t.Fatalf("%s: %d events, want %d", name, len(got), blk.Len())
	}
	for i := range got {
		if want := blk.Event(i); got[i] != want {
			t.Fatalf("%s: event %d is %+v, want %+v", name, i, got[i], want)
		}
	}
}

// TestConsumerHandOffFillsPages pins what the consumer's hand-off allocates
// and what it shares. A live 512-event batch costs its Events and its
// strings and no part-empty page: two batches' Events share a slab of 13
// heap pages, and every batch's strings come from one path arena, about one
// allocation per batch where there were two. A 1 024-event replay page,
// whose Events fill whole pages already, keeps a slice of its own. The
// sharing never shows: an append to a batch or a write to its events
// changes no other batch, and batches kept while 10 000 more pass through
// the slabs and the arena read back unchanged.
func TestConsumerHandOffFillsPages(t *testing.T) {
	const batch = 512
	ctx, cancel := context.WithTimeout(context.Background(), raceSlowdown*30*time.Second)
	defer cancel()
	pub, con := attachConsumer(t, ConsumerOptions{Filter: iface.Filter{Recursive: true}, EventOverhead: time.Nanosecond})
	next := func() []events.Event {
		t.Helper()
		select {
		case b := <-con.C():
			return b
		case <-ctx.Done():
			t.Fatal("no batch delivered")
			return nil
		}
	}
	// publish sends blks[i%len(blks)] for i < n from a goroutine of its own
	// and returns how many events the test must then drain.
	publish := func(n int, blks ...*events.Block) (evs int) {
		for i := 0; i < n; i++ {
			evs += blks[i%len(blks)].Len()
		}
		go func() {
			for i := 0; i < n; i++ {
				if got, _ := pub.PublishBlockCtx(ctx, AggTopic, blks[i%len(blks)]); got != 1 {
					t.Errorf("batch %d reached %d consumers", i, got)
					return
				}
			}
		}()
		return evs
	}
	// drain receives evs events and returns their path bytes.
	drain := func(evs int) (pathBytes int) {
		t.Helper()
		for evs > 0 {
			b := next()
			for i := range b {
				pathBytes += len(b[i].Path) + len(b[i].OldPath)
			}
			evs -= len(b)
		}
		return pathBytes
	}

	live := unseqBlock(t, "/live", batch)
	drain(publish(4, live)) // the first slab and arena
	// An arena that starts at either end of the window moves the figure
	// by 256 KiB over the window's events: 0.5 B/event over 1 000 batches.
	const batches = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pathBytes := drain(publish(batches, live))
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / (batches * batch)
	perBatch := float64(after.Mallocs-before.Mallocs) / batches
	bound := float64(eventBytes) + float64(pathBytes)/(batches*batch) + 2
	t.Logf("live: %.2f B/event (bound %.2f), %.2f allocs per batch", perEvent, bound, perBatch)
	if perEvent > bound {
		t.Errorf("live 512-event batches cost %.2f B/event, want <= %.2f: sizeof(Event) + their path bytes + 2", perEvent, bound)
	}
	if perBatch > 1 {
		t.Errorf("live 512-event batches cost %.2f allocations each, want about one", perBatch)
	}

	// A 1 024-event page fills 13 pages by itself: a slice of its own each
	// time, one allocation (and a share of an arena's).
	page := seqBlock(t, 1, recoveryBatchMax)
	takePage := func() {
		con.mu.Lock()
		con.cursors[0] = 0
		con.mu.Unlock()
		got := con.take(page, nil)
		if len(got) != recoveryBatchMax || cap(got) != recoveryBatchMax {
			t.Fatalf("a %d-event page came out as len %d cap %d", recoveryBatchMax, len(got), cap(got))
		}
	}
	takePage() // grows take's index scratch
	const pages = 16
	runtime.ReadMemStats(&before)
	for i := 0; i < pages; i++ {
		takePage()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.Mallocs-before.Mallocs) / pages
	t.Logf("a %d-event page: %.2f allocs", recoveryBatchMax, perPage)
	if perPage < 0.85 || perPage > 1.5 {
		t.Errorf("a %d-event page costs %.2f allocations, want one: its own slice and an arena's share", recoveryBatchMax, perPage)
	}
	con.mu.Lock()
	con.cursors[0] = 0 // the live blocks below carry seq 0 anyway
	con.mu.Unlock()

	// Two batches kept, taken from one fresh slab (the live batches above
	// filled theirs two by two); then two more that are appended to and
	// written to.
	keptA, keptB := unseqBlock(t, "/kept/a", batch), unseqBlock(t, "/kept/b", batch)
	publish(2, keptA, keptB)
	a, b := next(), next()
	checkBatch(t, "kept a", a, keptA)
	checkBatch(t, "kept b", b, keptB)
	if cap(a) != batch || cap(b) != batch {
		t.Fatalf("delivered batches have cap %d and %d, want %d each", cap(a), cap(b), batch)
	}
	if unsafe.Pointer(unsafe.SliceData(b)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), batch*eventBytes) {
		t.Error("two 512-event batches do not share a slab")
	}
	scratchA, scratchB := unseqBlock(t, "/scratch/a", batch), unseqBlock(t, "/scratch/b", batch)
	publish(2, scratchA, scratchB)
	x, y := next(), next()
	for _, c := range []struct {
		name         string
		batch, other []events.Event
		want         *events.Block
		from         int // the first event of other not written to by the test
	}{{"second", x, y, scratchB, 0}, {"first", y, x, scratchA, 1}} {
		grown := append(c.batch, events.Event{Op: events.OpDelete, Path: "/appended"})
		if unsafe.SliceData(grown) == unsafe.SliceData(c.batch) {
			t.Fatal("an append to a delivered batch did not reallocate")
		}
		c.batch[0].Path = "/written"
		for i := c.from; i < batch; i++ {
			if want := c.want.Event(i); c.other[i] != want {
				t.Fatalf("an append and a write to one batch changed the %s's event %d: %+v, want %+v", c.name, i, c.other[i], want)
			}
		}
	}

	// 10 000 later batches, every 100th a 512-event one from a slab, the
	// rest small: dozens of arenas and slabs come and go.
	small := unseqBlock(t, "/later/small", 32)
	later := make([]*events.Block, 100)
	for i := range later {
		later[i] = small
	}
	later[0] = unseqBlock(t, "/later/large", batch)
	drain(publish(10_000, later...))
	checkBatch(t, "kept a, 10 000 batches later", a, keptA)
	checkBatch(t, "kept b, 10 000 batches later", b, keptB)
}

// BenchmarkConsumerDeliver is the filter-deliver stage: one 512-row block
// through deliverBatch, pacing dialed to 1ns so the figure is the stage's own
// cost, the one string copy per block included. "pointer" is the block an
// aggregator shares in process, "decoded" the same rows decoded over a
// received payload, as the TCP path has them. Either way the copy holds the
// rows' strings alone, none of the payload's framing: the case fails above
// the []Event it hands over plus those bytes, plus 2 %, measured over 1 000
// blocks whatever b.N is: two blocks share a slab and about 39 an arena, so
// one block alone reads 0 or a whole slab. A per-event clock read shows
// here.
func BenchmarkConsumerDeliver(b *testing.B) {
	built := seqBlock(b, 1, 512)
	decoded, err := events.DecodeBlock(built.Wire())
	if err != nil {
		b.Fatal(err)
	}
	bound := 1.02 * float64(built.Len()*int(unsafe.Sizeof(events.Event{}))+built.StringBytes(0, built.Len()))
	for _, c := range []struct {
		name string
		blk  *events.Block
	}{{"pointer", built}, {"decoded", decoded}} {
		b.Run(c.name, func(b *testing.B) {
			_, con := attachConsumer(b, ConsumerOptions{Filter: iface.Filter{Recursive: true}, EventOverhead: time.Nanosecond})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range con.C() {
				}
			}()
			ctx := context.Background()
			deliver := func() {
				con.mu.Lock()
				con.cursors[0] = 0 // the same block again is new, not a duplicate
				con.mu.Unlock()
				con.deliverBatch(ctx, conBatch{m: msgq.Message{Block: c.blk}, blk: c.blk})
			}
			deliver() // grows the stage's index scratch, so -benchtime 1x reads steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliver()
			}
			b.StopTimer()
			const checked = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < checked; i++ {
				deliver()
			}
			runtime.ReadMemStats(&after)
			con.Close()
			<-done
			if got, want := con.Stats().Delivered, uint64(b.N+1+checked)*512; got != want {
				b.Fatalf("delivered %d events, want %d", got, want)
			}
			if perBlock := float64(after.TotalAlloc-before.TotalAlloc) / checked; perBlock > bound {
				b.Fatalf("%.0f B per block, want at most %.0f: the []Event and the rows' strings, plus 2 %%", perBlock, bound)
			}
		})
	}
}

// memberSource is a recovery source that answers, as a cluster member does,
// for just the partitions its engine holds: its server opens every answer
// with a coverage frame.
type memberSource struct{ *eventstore.Sharded }

func (m memberSource) RecoverySnapshot() RecoverySourceSnapshot { return m.Sharded }

// memberEngine is a cluster member's engine holding partition part of full,
// row for row.
func memberEngine(t *testing.T, full *eventstore.Sharded, part int) *eventstore.Sharded {
	t.Helper()
	eng, err := eventstore.NewShardedClosed(full.Partitions(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	evs, err := full.Partition(part).Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk := events.NewBlock(len(evs), 0)
	for _, e := range evs {
		if err := blk.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.OpenPartition(part); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AppendBlockPartition(part, blk); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestConsumerReplayPages runs one store through each recovery source — the
// wire client, the in-process aggregator, and a fan-out over two members
// holding one partition each — into a consumer that then takes live
// traffic, published before C() is read. Every source replays the same
// events, in batches of at most recoveryBatchMax, all ahead of the first
// live batch; Stats().Recovered is final when NewConsumer returns; and the
// replay is history, not delivery: neither the audit's Delivered nor e2e_us
// counts it, so with the upstream tiers' counts (the test stands in for
// them) the audit balances after recovery and live traffic. Receive buffers
// are poisoned as they return, so a replayed event that kept a frame's bytes
// shows.
func TestConsumerReplayPages(t *testing.T) {
	const stored, live, liveBatch = 3000, 300, 100
	msgq.PoisonReturnedPayloads(eventstest.PoisonByte)
	defer msgq.PoisonReturnedPayloads(0)
	full := bulkEngine(t, stored)
	want, err := full.SinceVector([]uint64{0, 0}, 0)
	if err != nil || len(want) != stored {
		t.Fatalf("store holds %d events (%v), want %d", len(want), err, stored)
	}
	serve := func(src RecoveryPager) string {
		srv, err := NewRecoveryServer(src, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv.Addr()
	}
	idle := msgq.NewPub()
	if err := idle.Bind(fmt.Sprintf("inproc://replay-idle-%p", t)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idle.Close)
	agg, err := NewAggregator(AggregatorOptions{CollectorEndpoints: []string{idle.Addr()}, Engine: full})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Close)
	head := full.LastSeqVector()

	for _, tc := range []struct {
		name string
		src  RecoverySource
	}{
		{"client", NewRecoveryClient(serve(full))},
		{"aggregator", agg},
		{"fanout", NewRecoveryFanout(2, serve(memberSource{memberEngine(t, full, 0)}), serve(memberSource{memberEngine(t, full, 1)}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			aud := reg.EnableAudit(2)
			upstream := func(evs []events.Event) {
				aud.Captured(len(evs))
				aud.Published(len(evs))
				for _, e := range evs {
					aud.Stored(int(e.Seq%2), 1)
					aud.Republished(int(e.Seq%2), 1)
				}
			}
			// The history reached a consumer before this one: it is in the
			// audit's every leg.
			upstream(want)
			for _, e := range want {
				aud.Delivered(int(e.Seq%2), 1)
			}
			pub, con := attachConsumer(t, ConsumerOptions{
				Filter: iface.Filter{Recursive: true}, Recover: tc.src, SinceVector: []uint64{0, 0}, Telemetry: reg,
			})
			if got := con.Stats().Recovered; got != stored {
				t.Fatalf("Recovered = %d when NewConsumer returned, want %d", got, stored)
			}

			var liveEvs []events.Event
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for at := 0; at < live; at += liveBatch {
				blk := events.NewBlock(liveBatch, 0)
				for i := at; i < at+liveBatch; i++ {
					p := i % 2
					e := events.Event{Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("/live/f%03d", i),
						Time: time.Unix(0, int64(i)), Seq: head[p] + uint64(2*(i/2+1)), Source: "mdt0"}
					if err := blk.AppendEvent(e); err != nil {
						t.Fatal(err)
					}
					liveEvs = append(liveEvs, e)
				}
				blk.SetStamp(telemetry.Stamp())
				if n, _ := pub.PublishBlockCtx(ctx, AggTopic, blk); n != 1 {
					t.Fatalf("live batch at %d reached %d consumers", at, n)
				}
			}
			upstream(liveEvs)

			var got []events.Event
			for len(got) < stored+live {
				select {
				case b := <-con.C():
					if len(got) < stored && (len(b) > recoveryBatchMax || len(got)+len(b) > stored) {
						t.Fatalf("replay batch of %d events after %d replayed: want at most %d, none mixed with live events",
							len(b), len(got), recoveryBatchMax)
					}
					got = append(got, b...)
				case <-ctx.Done():
					t.Fatalf("delivered %d of %d events", len(got), stored+live)
				}
			}
			for i, e := range append(want, liveEvs...) {
				if got[i].Seq != e.Seq || got[i].Path != e.Path || got[i].Op != e.Op {
					t.Fatalf("event %d: seq %d %s, want seq %d %s", i, got[i].Seq, got[i].Path, e.Seq, e.Path)
				}
			}
			if st := con.Stats(); st.Recovered != stored || st.Received != live || st.Delivered != stored+live {
				t.Errorf("recovered %d received %d delivered %d; want %d, %d, %d",
					st.Recovered, st.Received, st.Delivered, stored, live, stored+live)
			}
			waitBalanced(t, aud)
			if d := aud.Snapshot().Delivered; d != stored+live {
				t.Errorf("audit delivered %d, want %d: the replay is not a delivery", d, stored+live)
			}
			e2e := reg.Histogram("fsmon.consumer.e2e_us", nil)
			for deadline := time.Now().Add(5 * time.Second); e2e.Count() < live && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := e2e.Count(); n != live {
				t.Errorf("e2e_us observed %d events, want the %d live ones", n, live)
			}
		})
	}
}

// replayRig serves n events of a 2-partition store over loopback and
// returns the server's address and a replay through NewConsumer with a
// RecoveryClient, drained from C(): what a restarted remote consumer does.
func replayRig(tb testing.TB, n int) (string, func()) {
	srv, err := NewRecoveryServer(bulkEngine(tb, n), "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	idle := msgq.NewPub()
	if err := idle.Bind(fmt.Sprintf("inproc://replay-rig-%p-%d", tb, n)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(idle.Close)
	return srv.Addr(), func() {
		con, err := NewConsumer(ConsumerOptions{
			AggregatorEndpoint: idle.Addr(), Filter: iface.Filter{Recursive: true}, EventOverhead: time.Nanosecond,
			Recover: NewRecoveryClient(srv.Addr()), SinceVector: []uint64{0, 0},
		})
		if err != nil {
			tb.Fatal(err)
		}
		for got := 0; got < n; {
			got += len(<-con.C())
		}
		con.Close()
	}
}

// A replay through NewConsumer costs, per event, the Event it delivers and
// its share of each page's one string copy, and per page about one
// allocation — the page's slice; its string is cut from the consumer's path
// arena — with nothing made per frame: payloads come from the client's
// one-buffer free list. Everything in the process is
// counted, the server's paging too; allocations are counted per page as the
// difference between a replay of 2n events and one of n, so the fixed cost
// of a consumer and a connection drops out. The materializing client before
// it held every frame's payload until the end and then interned each page,
// the bytes twice over, and read each frame's topic into a new string:
// 246.3 B/event against a bound of 205.0 here, 3 allocations per page.
func TestConsumerRecoverAllocations(t *testing.T) {
	const n = 100_000
	measure := func(n int) (bytes, allocs uint64, wire, pages int) {
		addr, replay := replayRig(t, n)
		if err := NewRecoveryClient(addr).RecoverPages([]uint64{0, 0}, func(blk *events.Block) error {
			wire += len(blk.Wire()) // what the server sends: an upper bound on the string copies
			pages++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		replay() // warm: the lease pool, the first connection's code paths
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, wire, pages
	}
	bytes, allocs, wire, pages := measure(n)
	perEvent := float64(bytes) / n
	bound := float64(reflect.TypeOf(events.Event{}).Size()) + float64(wire)/n + 32
	if perEvent > bound {
		t.Errorf("replay of %d events: %.1f B/event, want <= %.1f: sizeof(Event) + the pages' string bytes + 32", n, perEvent, bound)
	}
	_, allocs2, _, pages2 := measure(2 * n)
	perPage := float64(allocs2-allocs) / float64(pages2-pages)
	t.Logf("%.1f B/event (bound %.1f); %.2f allocs per page (%d allocs over %d pages, %d over %d)", perEvent, bound, perPage, allocs, pages, allocs2, pages2)
	// One per page and an arena's share (1.00–1.10 here); the bound leaves
	// room for the lease records a sync.Pool drops under the race detector
	// (about one frame in four, 1.29–1.39 here), and fails a page whose
	// string is an allocation of its own again (2).
	if perPage > 1.6 {
		t.Errorf("replay: %.2f allocs per page, want about 1: the page's slice and a share of an arena", perPage)
	}
}

// BenchmarkConsumerRecover is a restarted remote consumer's replay: 100 000
// events over two partitions from a loopback RecoveryServer, through
// NewConsumer with a RecoveryClient, drained from C().
func BenchmarkConsumerRecover(b *testing.B) {
	const n = 100_000
	_, replay := replayRig(b, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/n, "B/event")
}

// TestConsumerJoinUnderLoad: a TCP consumer that joins while batches keep
// flowing misses none of them. Each of 200 consumers resumes from the
// store's last seq at the moment it is built, replays from there, then
// takes live batches: what it delivers must be every seq after that
// cursor, in order, with no gap and no repeat. A subscription the
// aggregator applies only after the consumer's replay loses whatever it
// republished in between.
func TestConsumerJoinUnderLoad(t *testing.T) {
	const joins, perJoin = 200, 64
	col := msgq.NewPub(msgq.WithBlockOnFull())
	if err := col.Bind(fmt.Sprintf("inproc://joinload-%p", t)); err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	agg, err := NewAggregator(AggregatorOptions{
		CollectorEndpoints: []string{col.Addr()},
		Endpoint:           "tcp://127.0.0.1:0",
		EventOverhead:      time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	loaded := make(chan struct{})
	go func() { // the load: a four-event batch a millisecond until the joins are done
		defer close(loaded)
		for i := 0; ctx.Err() == nil; i++ {
			blk := events.NewBlock(4, 0)
			for j := 0; j < 4; j++ {
				if err := blk.AppendEvent(events.Event{Root: "/mnt", Op: events.OpCreate, Path: fmt.Sprintf("/load/f%d", 4*i+j), Source: "mdt0"}); err != nil {
					t.Error(err)
					return
				}
			}
			col.PublishBlockCtx(ctx, TopicPrefix+"mdt0", blk)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { cancel(); <-loaded }()

	for j := 0; j < joins; j++ {
		since := agg.engine.Partition(0).LastSeq()
		con, err := NewConsumer(ConsumerOptions{
			AggregatorEndpoint: agg.Endpoint(),
			Filter:             iface.Filter{Recursive: true},
			Recover:            agg,
			SinceSeq:           since,
			EventOverhead:      time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for next := since + 1; next <= since+perJoin; {
			select {
			case evs := <-con.C():
				for _, e := range evs {
					if e.Seq != next {
						con.Close()
						t.Fatalf("join %d from seq %d: delivered seq %d where %d was due", j, since, e.Seq, next)
					}
					next++
				}
			case <-time.After(10 * time.Second):
				con.Close()
				t.Fatalf("join %d from seq %d: nothing after seq %d for 10s", j, since, next-1)
			}
		}
		con.Close()
	}
}
