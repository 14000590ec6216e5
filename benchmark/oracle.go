package main

import (
	"fmt"

	"fsmonitor/internal/events"
)

// oracle checks one phase's delivered stream. The per-event checks run
// inline on the receiving goroutine, so they are a few compares each and
// never allocate; the end-of-phase checks compare the tiers' own counters.
// Every violation is one failed event out of the phase's attempted events.
type oracle struct {
	parts    uint64
	lastSeq  []uint64 // per store lane, the last seq delivered
	perLane  []uint64 // per store lane, events delivered
	checkFn  func(*oracle, *events.Event)
	gen      *generator // churn: the record of final names
	received int
	failed   int
	first    string // first violation, for the report
}

func newOracle(w workload, gen *generator) *oracle {
	o := &oracle{parts: uint64(w.parts), lastSeq: make([]uint64, w.parts), perLane: make([]uint64, w.parts), gen: gen}
	for p := range o.lastSeq {
		o.lastSeq[p] = uint64(p) // lane p assigns p+P, p+2P, ...
	}
	o.checkFn = (*oracle).checkHot
	if w.churn {
		o.checkFn = (*oracle).checkChurn
	}
	return o
}

func (o *oracle) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN books n failed events for one cause.
func (o *oracle) failN(n int, format string, args ...any) {
	o.failed += n
	if o.first == "" {
		o.first = fmt.Sprintf(format, args...)
	}
}

// observe checks one delivered batch: per store lane the seqs advance by
// exactly the stride (no gap, no duplicate, no reordering), and every path
// is one the generator could have produced.
func (o *oracle) observe(batch []events.Event) {
	for i := range batch {
		e := &batch[i]
		p := e.Seq % o.parts
		if want := o.lastSeq[p] + o.parts; e.Seq != want {
			o.fail("lane %d: seq %d after %d, want %d", p, e.Seq, o.lastSeq[p], want)
		}
		o.lastSeq[p] = e.Seq
		o.perLane[p]++
		o.checkFn(o, e)
	}
	o.received += len(batch)
}

// checkHot: every delivered path is one of the 4096 known files,
// "/hot/dDD/fNNNN" with DD == NNNN/64.
func (o *oracle) checkHot(e *events.Event) {
	p := e.Path
	const layout = "/hot/dDD/fNNNN"
	if len(p) != len(layout) || p[:6] != "/hot/d" || p[8:10] != "/f" {
		o.fail("hot: unknown path %q", p)
		return
	}
	d, okd := atoi(p[6:8])
	f, okf := atoi(p[10:])
	if !okd || !okf || f >= hotFiles || d != f/hotFilesPerDir {
		o.fail("hot: unknown path %q", p)
	}
}

// checkChurn: every UNLNK path "/churn/dDDDDD/c<iter>" matches the
// generator's own record of the directory file <iter> was renamed into.
func (o *oracle) checkChurn(e *events.Event) {
	if !e.Op.Has(events.OpDelete) {
		return
	}
	p := e.Path
	const prefix = "/churn/dDDDDD/c"
	if len(p) <= len(prefix) || p[:8] != "/churn/d" || p[13:15] != "/c" {
		o.fail("churn: unlink of unknown path %q", p)
		return
	}
	d, okd := atoi(p[8:13])
	iter, oki := atoi(p[len(prefix):])
	idx := iter - o.gen.iterBase
	if !okd || !oki || idx < 0 || idx >= len(o.gen.finalDir) || int(o.gen.finalDir[idx]) != d {
		o.fail("churn: unlink path %q is not the final name", p)
	}
}

// atoi parses a short all-digit string without allocating.
func atoi(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(s) > 0
}

// tierCounts are the tiers' own counters for one phase, read from their
// public Stats after the last event arrived.
type tierCounts struct {
	expected  int    // events the generator's ops must produce
	published uint64 // sum of collectors' EventsPublished
	appended  uint64 // engine Appended
	backlog   int    // records left in the Changelogs
}

// finish runs the conservation checks and returns the phase's failed count:
// delivered == published == appended == expected, and every Changelog
// drained to Len()==0.
func (o *oracle) finish(tc tierCounts) int {
	if d := o.received - tc.expected; d != 0 {
		o.failN(max(d, -d), "delivered %d events, generator issued %d", o.received, tc.expected)
	}
	if int(tc.published) != tc.expected {
		o.fail("collectors published %d events, generator issued %d", tc.published, tc.expected)
	}
	if int(tc.appended) != tc.expected {
		o.fail("store appended %d events, generator issued %d", tc.appended, tc.expected)
	}
	if tc.backlog != 0 {
		o.fail("%d records left in the Changelogs", tc.backlog)
	}
	return o.failed
}
