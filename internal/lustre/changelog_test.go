package lustre

import (
	"fmt"
	"sync"
	"testing"
)

// fillChangelog appends n CREAT records named f<base>..f<base+n-1>.
func fillChangelog(c *Changelog, base, n int) {
	for i := 0; i < n; i++ {
		c.append(Record{Type: RecCreat, Name: fmt.Sprintf("f%d", base+i), TFid: FID{Seq: 1, Oid: uint32(base + i)}})
	}
}

// TestChangelogReadIsView pins Read's contract: the result is a
// capacity-clipped view of the journal's own array — no allocation, no copy
// — that nothing the journal does afterwards can change.
func TestChangelogReadIsView(t *testing.T) {
	log := newChangelog(0)
	id := log.Register()
	fillChangelog(log, 0, 2000)

	if allocs := testing.AllocsPerRun(100, func() { _ = log.Read(100, 512) }); allocs != 0 {
		t.Errorf("Read allocates %v times per call, want 0", allocs)
	}
	view := log.Read(100, 512)
	if len(view) != 512 || cap(view) != len(view) {
		t.Fatalf("Read(100, 512): len %d cap %d, want 512/512", len(view), cap(view))
	}
	if unbounded := log.Read(100, 0); cap(unbounded) != len(unbounded) || len(unbounded) != 1900 {
		t.Fatalf("Read(100, 0): len %d cap %d, want 1900/1900", len(unbounded), cap(unbounded))
	}
	want := append([]Record(nil), view...)
	check := func(when string) {
		t.Helper()
		for i := range want {
			if view[i] != want[i] {
				t.Fatalf("%s: view[%d] = %v, want %v", when, i, view[i], want[i])
			}
		}
	}

	fillChangelog(log, 2000, 10000) // forces the journal's array to grow
	check("after 10000 appends")
	last := view[len(view)-1].Index
	if err := log.Clear(id, last+1000); err != nil {
		t.Fatal(err)
	}
	if got := log.Read(0, 1); len(got) != 1 || got[0].Index != last+1001 {
		t.Fatalf("journal not cleared past the view: Read(0,1) = %v", got)
	}
	check("after Clear past the view")
	fillChangelog(log, 12000, 2000)
	check("after appends that follow the Clear")
	if err := log.Deregister(id); err != nil {
		t.Fatal(err)
	}
	check("after Deregister")

	// Appending to a view must reallocate, never write the journal's next slot.
	tail := log.Read(0, 10)
	next := log.Read(tail[len(tail)-1].Index, 1)[0]
	_ = append(tail, Record{Name: "scribble"})
	if got := log.Read(tail[len(tail)-1].Index, 1)[0]; got != next {
		t.Errorf("append to a view overwrote the journal: %v, want %v", got, next)
	}
}

// TestChangelogViewRace runs an appender, a Read+Clear loop and a late
// reader that keeps an early view across all of it; under -race it proves
// handing out views needs no further synchronization.
func TestChangelogViewRace(t *testing.T) {
	const total = 20000
	log := newChangelog(0)
	id := log.Register()
	late := log.Register()
	fillChangelog(log, 0, 64)
	early := log.Read(0, 64)
	want := append([]Record(nil), early...)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // appender
		defer wg.Done()
		fillChangelog(log, 64, total-64)
	}()
	go func() { // the collector's loop: read a batch, purge it
		defer wg.Done()
		var since uint64
		for since < total {
			recs := log.Read(since, 512)
			for i, r := range recs {
				if r.Index != since+uint64(i)+1 {
					t.Errorf("record %d of a read after %d has index %d", i, since, r.Index)
					return
				}
			}
			if len(recs) > 0 {
				since = recs[len(recs)-1].Index
				if err := log.Clear(id, since); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // late reader: re-checks its early view while the journal churns
		defer wg.Done()
		for log.NextIndex() <= total {
			for i := range want {
				if early[i] != want[i] {
					t.Errorf("early view changed at %d: %v, want %v", i, early[i], want[i])
					return
				}
			}
		}
		if err := log.Deregister(late); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if n := log.Len(); n != 0 {
		t.Errorf("journal retains %d records after both readers finished", n)
	}
}

var viewSink []Record

// BenchmarkChangelogRead is one collector read — 512 records out of a 100 k
// backlog. A view costs no allocation (0 B/op); a copy would show 78 KB.
func BenchmarkChangelogRead(b *testing.B) {
	log := newChangelog(0)
	fillChangelog(log, 0, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	var since uint64
	for i := 0; i < b.N; i++ {
		viewSink = log.Read(since, 512)
		if since += 512; since+512 > 100000 {
			since = 0
		}
	}
}
