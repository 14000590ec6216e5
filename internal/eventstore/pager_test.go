package eventstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// TestPagerMatchesMerge drives engines of 1 and 3 partitions — segments
// shrunk to 4 rows, a retention bound, acks and purges — through a seeded
// schedule, and after every step reads them through the Pager from random
// cursors. The reference is each shard's own Since, merged by MergeBySeq:
// SinceVector, capped and not, must return exactly it, and NextPage's pages
// must decode to it, every page but the last full, each one the bytes
// events.Block.Wire gives for its events.
func TestPagerMatchesMerge(t *testing.T) {
	defer func(n int) { segEvents = n }(segEvents)
	segEvents = 4
	for _, parts := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("parts=%d/seed%d", parts, seed), func(t *testing.T) {
				checkPagerAgainstMerge(t, parts, seed)
			})
		}
	}
}

func checkPagerAgainstMerge(t *testing.T, parts int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng, err := NewSharded(parts, Options{MaxEvents: 13 * parts})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	randomCursors := func() []uint64 {
		out := eng.LastSeqVector()
		for i, last := range out {
			out[i] = uint64(rng.Int63n(int64(last) + 2))
		}
		return out
	}
	p := NewPager()
	clock := int64(0)
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			blk := events.NewBlock(0, 0)
			for i, n := 0, 1+rng.Intn(9); i < n; i++ {
				clock++
				e := events.Event{Root: "/mnt", Op: events.OpCreate, Path: fmt.Sprintf("/f%d", clock), Time: time.Unix(0, clock), Source: "mdt"}
				if rng.Intn(3) == 0 {
					e.Op, e.OldPath, e.Cookie = events.OpMovedTo, e.Path+".old", uint32(clock)
				}
				if err := blk.AppendEvent(e); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.AppendBlockPartition(rng.Intn(parts), blk); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			if err := eng.MarkReportedVector(randomCursors()); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := eng.Purge(); err != nil {
				t.Fatal(err)
			}
		}

		cursors := randomCursors()
		lists := make([][]events.Event, parts)
		for i := range lists {
			if lists[i], err = eng.Partition(i).Since(cursors[i], 0); err != nil {
				t.Fatal(err)
			}
		}
		want := MergeBySeq(lists)
		what := fmt.Sprintf("step %d, cursors %v", step, cursors)
		got, err := eng.SinceVector(cursors, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, what, got, want)
		max := 1 + rng.Intn(9)
		if got, err = eng.SinceVector(cursors, max); err != nil {
			t.Fatal(err)
		}
		sameEvents(t, fmt.Sprintf("%s, max %d", what, max), got, want[:min(max, len(want))])

		p.Start(cursors)
		var paged []events.Event
		for {
			page, err := eng.NextPage(p, max)
			if err != nil {
				t.Fatal(err)
			}
			if page == nil {
				break
			}
			blk, err := events.DecodeBlock(page)
			if err != nil {
				t.Fatalf("%s: page does not decode: %v", what, err)
			}
			evs := blk.AppendEventsTo(nil)
			if len(evs) != max && len(paged)+len(evs) != len(want) {
				t.Fatalf("%s: a page of %d events before the last, want %d", what, len(evs), max)
			}
			ref := events.NewBlock(0, 0)
			for _, e := range evs {
				if err := ref.AppendEvent(e); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(ref.Wire(), page) {
				t.Fatalf("%s: page is not the wire image of its events", what)
			}
			paged = append(paged, evs...)
		}
		sameEvents(t, what+", paged", paged, want)
	}
}

var benchSince []events.Event

// BenchmarkShardedSinceVector is the in-process recovery read: 100 k events
// over 2 partitions (3:1, so the merge interleaves runs of unequal length),
// materialized whole from zero cursors and as one 1 024-event page.
func BenchmarkShardedSinceVector(b *testing.B) {
	eng, err := NewSharded(2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	const stored = 200 * 512
	blk := pipelineBlock(b, 512, 0)
	for i := 0; i < stored/512; i++ {
		if _, err := eng.AppendBlockPartition(min(i%4, 1), blk); err != nil {
			b.Fatal(err)
		}
	}
	for _, max := range []int{0, 1024} {
		n := stored
		if max > 0 {
			n = max
		}
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSince, err = eng.SinceVector([]uint64{0, 0}, max); err != nil || len(benchSince) != n {
					b.Fatalf("%d events, %v; want %d", len(benchSince), err, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}
