// Package eventstest holds helpers for tests that feed the pipeline wire
// payloads (compare net/http/httptest); nothing outside tests imports it.
package eventstest

import (
	"strings"
	"testing"

	"fsmonitor/internal/events"
)

// WireBatch encodes evs — stamped and traced when those are given — the way
// a collector does: through a Block.
func WireBatch(tb testing.TB, evs []events.Event, stamp int64, tr *events.BatchTrace) []byte {
	tb.Helper()
	blk := events.NewBlock(len(evs), 0)
	for _, e := range evs {
		if err := blk.AppendEvent(e); err != nil {
			tb.Fatal(err)
		}
	}
	blk.SetStamp(stamp)
	if tr != nil {
		blk.SetTrace(tr)
	}
	return blk.Wire()
}

// The sentinel Poison writes: a byte no path contains and a sequence number
// no store assigns.
const (
	PoisonByte = 0xDB
	PoisonSeq  = 0xDBDBDBDBDBDBDBDB
)

// Poison overwrites what blk holds — every path's bytes in the arena, the
// cached wire image, the seq column — with the sentinel. A test installs it
// in front of a pool's Reset, so that memory handed back while a reader (a
// clone sharing the arena, a TCP writer holding the image, a consumer
// walking the seqs) still uses it shows up as a sentinel in what that reader
// produces. It goes through Block's public surface only, which is why it
// reaches the arena through PathBytes: the aliasing under test is exactly
// that such views stay writable. Only for topologies where a block has one
// borrower at a time — poisoning a clone reaches the arena it shares.
func Poison(blk *events.Block) {
	fill(blk.Wire()) // before the seqs change, or Wire would patch a copy
	for i := 0; i < blk.Len(); i++ {
		fill(blk.PathBytes(i))
		blk.SetSeq(i, PoisonSeq)
	}
}

func fill(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}

// Poisoned reports whether e shows the sentinel.
func Poisoned(e events.Event) bool {
	return e.Seq == PoisonSeq || strings.IndexByte(e.Path, PoisonByte) >= 0
}
