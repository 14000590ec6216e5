package scalable

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/msgq"
)

// historySource is a RecoverySource over a fixed event list; like a scalar
// replay against a partitioned store it ignores the cursor, leaving the
// dedup to the consumer.
type historySource []events.Event

func (h historySource) Since(uint64, int) ([]events.Event, error) {
	return append([]events.Event(nil), h...), nil
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

// BenchmarkConsumerDeliver is the filter-deliver stage on the pointer path:
// one shared 512-row block through deliverBatch, pacing dialed to 1ns so the
// figure is the stage's own cost, the one string copy per block included. A
// per-event clock read shows here.
func BenchmarkConsumerDeliver(b *testing.B) {
	_, con := attachConsumer(b, ConsumerOptions{Filter: iface.Filter{Recursive: true}, EventOverhead: time.Nanosecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range con.C() {
		}
	}()
	blk := seqBlock(b, 1, 512)
	ctx := context.Background()
	deliver := func() {
		con.mu.Lock()
		con.cursors[0] = 0 // the same block again is new, not a duplicate
		con.mu.Unlock()
		con.deliverBatch(ctx, conBatch{m: msgq.Message{Block: blk}, blk: blk})
	}
	deliver() // grows the stage's index scratch, so -benchtime 1x reads steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
	b.StopTimer()
	con.Close()
	<-done
	if got, want := con.Stats().Delivered, uint64(b.N+1)*512; got != want {
		b.Fatalf("delivered %d events, want %d", got, want)
	}
}
