// Package eventstest holds helpers for tests that feed the pipeline wire
// payloads (compare net/http/httptest); nothing outside tests imports it.
package eventstest

import (
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
