package events

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBlockRoundTrip cross-checks the Block codec against the legacy
// per-event codec on arbitrary payloads: both decoders must agree on
// validity, and on valid input the Block must reproduce the events, the
// stamp, the trace, and — when re-encoded — the exact input bytes (the
// wire is canonical: there is exactly one encoding per batch).
func FuzzBlockRoundTrip(f *testing.F) {
	seedEvents := blockEvents()
	plain, _ := MarshalBatch(seedEvents)
	stamped, _ := MarshalBatchStamped(seedEvents, 123456789)
	traced, _ := MarshalBatchTraced(seedEvents, 99, &BatchTrace{
		ID:    7,
		Spans: []Span{{Tier: TierCollect, TS: 1}, {Tier: TierStore, TS: 2}},
	})
	empty, _ := MarshalBatch(nil)
	f.Add(plain)
	f.Add(stamped)
	f.Add(traced)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(append([]byte(nil), plain...), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, payload []byte) {
		evs, stamp, tr, legacyErr := UnmarshalBatchTraced(payload)
		blk, blockErr := DecodeBlock(payload)
		if (legacyErr == nil) != (blockErr == nil) {
			t.Fatalf("decoder disagreement: legacy=%v block=%v", legacyErr, blockErr)
		}
		// BatchLen measures any input without panicking, never past its end,
		// and a plain batch that decodes is exactly as long as it says.
		n, ok := BatchLen(payload)
		if ok && n > len(payload) {
			t.Fatalf("BatchLen = %d of %d bytes", n, len(payload))
		}
		if legacyErr != nil {
			return
		}
		if plain := binary.LittleEndian.Uint32(payload)&batchFlags == 0; plain && (!ok || n != len(payload)) {
			t.Fatalf("BatchLen of a plain %d-byte batch = %d, %v", len(payload), n, ok)
		}
		if blk.Len() != len(evs) {
			t.Fatalf("len = %d, want %d", blk.Len(), len(evs))
		}
		if blk.Stamp() != stamp {
			t.Fatalf("stamp = %d, want %d", blk.Stamp(), stamp)
		}
		bt := blk.Trace()
		if (bt == nil) != (tr == nil) {
			t.Fatalf("trace presence mismatch")
		}
		if tr != nil {
			if bt.ID != tr.ID || len(bt.Spans) != len(tr.Spans) {
				t.Fatalf("trace = %+v, want %+v", bt, tr)
			}
			for i := range tr.Spans {
				if bt.Spans[i] != tr.Spans[i] {
					t.Fatalf("span %d = %+v, want %+v", i, bt.Spans[i], tr.Spans[i])
				}
			}
		}
		for i, e := range evs {
			g := blk.Event(i)
			if !g.Time.Equal(e.Time) {
				t.Fatalf("event %d time mismatch", i)
			}
			g.Time = e.Time
			if g != e {
				t.Fatalf("event %d = %+v, want %+v", i, g, e)
			}
			if blk.EventKey(i) != EventKey(e) {
				t.Fatalf("event %d key mismatch", i)
			}
		}
		// Round trips: the decoded block's wire image is the input; and a
		// block rebuilt from the materialized events encodes to the same
		// bytes the legacy encoder produces.
		if !bytes.Equal(blk.Wire(), payload) {
			t.Fatalf("decoded Wire() != input")
		}
		reb := NewBlock(len(evs), len(payload))
		for _, e := range evs {
			if err := reb.AppendEvent(e); err != nil {
				t.Fatalf("re-append: %v", err)
			}
		}
		reb.SetStamp(stamp)
		if tr != nil {
			reb.SetTrace(&BatchTrace{ID: tr.ID, Spans: append([]Span(nil), tr.Spans...)})
		}
		legacy, err := MarshalBatchTraced(evs, stamp, tr)
		if err != nil {
			t.Fatalf("legacy re-marshal: %v", err)
		}
		if !bytes.Equal(reb.Wire(), legacy) {
			t.Fatalf("re-encoded block != legacy encoder output")
		}
		// The wire is canonical except for one degeneracy: the stamped
		// flag with a zero stamp decodes as "unstamped" and re-encodes
		// without the flag.
		header := binary.LittleEndian.Uint32(payload)
		if !(header&batchStamped != 0 && stamp == 0) && !bytes.Equal(legacy, payload) {
			t.Fatalf("re-encoding is not canonical")
		}
	})
}
