package scalable

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
)

// bulkEngine returns a 2-partition engine holding n events, appended in
// 500-event blocks that alternate between the partitions.
func bulkEngine(tb testing.TB, n int) *eventstore.Sharded {
	tb.Helper()
	const perBlock = 500
	eng, err := eventstore.NewSharded(2, eventstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	blk := events.NewBlock(perBlock, 0)
	for at := 0; at < n; at += perBlock {
		blk.Reset()
		for i := at; i < min(n, at+perBlock); i++ {
			e := events.Event{Root: "/mnt/lustre", Op: events.OpModify, Path: fmt.Sprintf("/dir%02d/file%04d", i%64, i%4096), Time: time.Unix(0, int64(i)), Source: "mdt0"}
			if err := blk.AppendEvent(e); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := eng.AppendBlockPartition(at/perBlock%2, blk); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// discardRecovery sends req and reads the response up to its end frame
// without keeping, or allocating for, any of it; it returns the number of
// batch frames. An error frame fails tb.
func discardRecovery(tb testing.TB, r *bufio.Reader, w *bufio.Writer, req msgq.Message) (pages int) {
	if err := msgq.WriteFrame(w, req); err != nil {
		tb.Fatal(err)
	}
	chunk := func() int {
		b, err := r.Peek(4)
		if err != nil {
			tb.Fatal(err)
		}
		n := int(binary.LittleEndian.Uint32(b))
		r.Discard(4)
		return n
	}
	for {
		topic, err := r.Peek(chunk())
		if err != nil {
			tb.Fatal(err)
		}
		end, batch, failed := string(topic) == recoveryEndTopic, string(topic) == recoveryBatchTopic, string(topic) == recoveryErrTopic
		r.Discard(len(topic))
		if failed {
			tb.Fatal("recovery server answered with an error frame")
		}
		if _, err := r.Discard(chunk()); err != nil {
			tb.Fatal(err)
		}
		switch {
		case end:
			return pages
		case batch:
			pages++
		}
	}
}

// Serving a recovery request costs the server a fixed handful of
// allocations — the request frame, its cursor vector — however many pages
// it sends: rows go from the store's segments into the connection's scratch
// blocks, and from there into its one page buffer. The reader discards every
// frame, so what is counted is the server.
func TestRecoveryServerAllocations(t *testing.T) {
	const n = 100_000
	srv, err := NewRecoveryServer(bulkEngine(t, n), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	req := msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector([]uint64{0, 0})}
	pages := discardRecovery(t, r, w, req) // the connection's first request sizes its buffers
	if want := (n + recoveryBatchMax - 1) / recoveryBatchMax; pages != want {
		t.Fatalf("%d pages, want %d", pages, want)
	}
	if got := testing.AllocsPerRun(5, func() { discardRecovery(t, r, w, req) }); got > 8 {
		t.Fatalf("a %d-page recovery request: %v allocs, want a handful whatever the page count", pages, got)
	}
}

// BenchmarkRecoveryServe is the server's side of a replay: 100 000 events
// over two partitions, paged to a reader that discards the frames.
func BenchmarkRecoveryServe(b *testing.B) {
	const n = 100_000
	srv, err := NewRecoveryServer(bulkEngine(b, n), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	req := msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector([]uint64{0, 0})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discardRecovery(b, r, w, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// partitionedEngine is the partitioned recovery stream's fixture: two
// partitions of uneven size, 2 000 and 1 400 events appended in 100-event
// blocks that alternate until the smaller one runs out, renames among them.
func partitionedEngine(t *testing.T) *eventstore.Sharded {
	t.Helper()
	eng, err := eventstore.NewSharded(2, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	base := time.Unix(1700000000, 0).UTC()
	blk := events.NewBlock(100, 0)
	sizes := [2]int{2000, 1400}
	var done [2]int
	for done[0] < sizes[0] || done[1] < sizes[1] {
		for p := range sizes {
			if done[p] == sizes[p] {
				continue
			}
			blk.Reset()
			for i := done[p]; i < done[p]+100; i++ {
				e := events.Event{
					Root: "/mnt/lustre", Op: events.OpCreate, Path: fmt.Sprintf("/part%d/f%04d", p, i),
					Time: base.Add(time.Duration(i) * time.Millisecond), Source: fmt.Sprintf("mdt%d", p),
				}
				if i%7 == 0 {
					e.Op, e.OldPath, e.Cookie = events.OpMovedTo, e.Path+".old", uint32(i)
				}
				if err := blk.AppendEvent(e); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.AppendBlockPartition(p, blk); err != nil {
				t.Fatal(err)
			}
			done[p] += 100
		}
	}
	return eng
}

// The partitioned recovery stream is pinned byte for byte: the "sincev"
// response of the uneven 2-partition engine from cursors {100, 301} — 1 950
// and 1 250 events past them, four pages. The digest is that of the server
// that materialized each partition's page as []events.Event, merged them
// and encoded the merged page through a block.
func TestPartitionedRecoveryStreamGoldenDigest(t *testing.T) {
	srv, err := NewRecoveryServer(partitionedEngine(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw := rawRecoveryResponse(t, srv.Addr(), msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector([]uint64{100, 301})})
	const want = "bf7fffa0a7c84b183fde38ccd2a71721e01a76ae5e1c87ac4fca3c376b7479b6"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); len(raw) != 192975 || got != want {
		t.Fatalf("partitioned recovery stream: %d bytes, sha256 %s; want 192975 bytes, %s", len(raw), got, want)
	}
}

// TestRecoveryPagingUnderDrops pages a live engine through a recovery server
// while a writer appends and the store drops its head: Purge of acked rows,
// the MaxEvents bound evicting the oldest, and — whenever a purge empties a
// shard — its last segment Reset in place and refilled by the next append.
// The server copies a shard's rows out under that shard's lock, so none of
// it may reach a page: every frame decodes, each lane's seqs advance by
// exactly the stride, and each row carries the bytes written with its seq.
// The writer keeps every lane within half the bound of what the reader has
// acked, so the bound only ever drops rows already paged out. make soak
// runs it under -race.
func TestRecoveryPagingUnderDrops(t *testing.T) {
	const (
		parts   = 2
		perLane = 3*8192 + 1000 // rows per partition: past three 8 192-row store segments
		block   = 256
		bound   = 4096 // rows per shard
	)
	eng, err := eventstore.NewSharded(parts, eventstore.Options{MaxEvents: parts * bound})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := NewRecoveryServer(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	row := func(part, k int) events.Event {
		return events.Event{Root: "/mnt/lustre", Op: events.OpModify, Path: fmt.Sprintf("/p%d/%08d", part, k),
			Time: time.Unix(0, int64(k)), Source: fmt.Sprintf("mdt%d", part)}
	}
	var acked [parts]atomic.Int64 // rows of each lane the reader has received and acked
	deadline := time.Now().Add(time.Minute)
	writer := make(chan error, 1)
	go func() {
		writer <- func() error {
			blk := events.NewBlock(block, 0)
			for b := 0; b*block < perLane; b++ {
				for part := 0; part < parts; part++ {
					// Every 24th block waits until everything is acked, so
					// that the purge empties the shard; the bound drops
					// rows in between.
					written, lag := b*block, int64(bound/2-block)
					if b%24 == 23 {
						lag = 0
					}
					for int64(written)-acked[part].Load() > lag {
						if time.Now().After(deadline) {
							return fmt.Errorf("lane %d: reader stuck at %d of %d rows", part, acked[part].Load(), written)
						}
						time.Sleep(50 * time.Microsecond)
					}
					if lag == 0 {
						if _, err := eng.Purge(); err != nil {
							return err
						}
					}
					blk.Reset()
					for k := written; k < min(perLane, written+block); k++ {
						if err := blk.AppendEvent(row(part, k)); err != nil {
							return err
						}
					}
					if _, err := eng.AppendBlockPartition(part, blk); err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	last := []uint64{0, 1} // partition p's first seq is p + parts
	var got [parts]int64
	blk := events.NewBlock(0, 0)
	for got[0] < perLane || got[1] < perLane {
		if time.Now().After(deadline) {
			t.Fatalf("received %v of %d rows per lane", got, perLane)
		}
		if err := msgq.WriteFrame(w, msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(last)}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := msgq.ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if f.Topic == recoveryEndTopic {
				break
			}
			if f.Topic != recoveryBatchTopic {
				t.Fatalf("%s frame: %s", f.Topic, f.Payload)
			}
			if err := events.DecodeBlockInto(blk, f.Payload); err != nil {
				t.Fatalf("a page does not decode: %v", err)
			}
			for i := 0; i < blk.Len(); i++ {
				seq := blk.Seq(i)
				part := int(seq % parts)
				if seq != last[part]+parts {
					t.Fatalf("lane %d: seq %d follows %d, want %d", part, seq, last[part], last[part]+parts)
				}
				want := row(part, int(got[part]))
				if blk.Path(i) != want.Path || blk.Root(i) != want.Root || blk.Source(i) != want.Source || blk.TimeNano(i) != want.Time.UnixNano() {
					t.Fatalf("lane %d seq %d carries %q %q %q @%d, want %q %q %q @%d", part, seq,
						blk.Root(i), blk.Path(i), blk.Source(i), blk.TimeNano(i), want.Root, want.Path, want.Source, want.Time.UnixNano())
				}
				last[part] = seq
				got[part]++
			}
			if err := eng.MarkReportedVector(last); err != nil {
				t.Fatal(err)
			}
			for p := range got {
				acked[p].Store(got[p])
			}
		}
	}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Evicted != 0 || st.Purged < uint64(parts*perLane-parts*bound) {
		t.Fatalf("store %+v: want every dropped row acked first, and most of %d dropped", st, parts*perLane)
	}
}
