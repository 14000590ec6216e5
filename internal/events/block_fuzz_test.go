package events

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// FuzzBlockRoundTrip cross-checks the Block codec against the legacy
// per-event codec on arbitrary payloads: both decoders must agree on
// validity, and on valid input the Block must reproduce the events, the
// stamp, the trace, and — when re-encoded — the exact input bytes (the
// wire is canonical: there is exactly one encoding per batch). The decoded
// rows, whatever mix of roots, sources and old paths they carry, then go
// through every copy a block has — AppendRowsFrom, AppendFrom (a view and a
// copy), AppendPickedTo, CloneFrom, Wire and DecodeBlockInto — and must read
// back as the decoded block's Event(i): an old path is found from its path
// in a decoded payload (two bytes of length prefix between them) and in a
// packed block (none) alike.
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
	var mixed []Event                                  // more (root, source) pairs than a lookup looks back over
	for i := range 40 {
		mixed = append(mixed, Event{Root: fmt.Sprintf("/m%d", i%10), Op: OpModify, Path: fmt.Sprintf("/f%d", i),
			Time: time.Unix(0, int64(i)), Source: fmt.Sprintf("s%d", i%3)})
	}
	mixedWire, _ := MarshalBatch(mixed)
	f.Add(mixedWire)
	var renames []Event // old paths of every length beside paths of every length
	for i := range 30 {
		e := Event{Root: "/mnt/lustre", Op: OpModify, Path: fmt.Sprintf("/d/f%d", i), Time: time.Unix(0, int64(i)), Source: "mdt0"}
		switch i % 3 {
		case 1:
			e.Op, e.Cookie, e.OldPath = OpMovedTo, uint32(i), fmt.Sprintf("/old/%0*d", i, i)
		case 2:
			e.Op, e.Cookie, e.Path, e.OldPath = OpMovedFrom, uint32(i), "", "/gone"
		}
		renames = append(renames, e)
	}
	renameWire, _ := MarshalBatch(renames)
	f.Add(renameWire)

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
		want := func(what string, got []Event, rows []int) {
			t.Helper()
			for k, i := range rows {
				if k >= len(got) || got[k] != blk.Event(i) {
					t.Fatalf("%s: row %d does not read as Event(%d)", what, k, i)
				}
			}
			if len(got) != len(rows) {
				t.Fatalf("%s: %d events for %d rows", what, len(got), len(rows))
			}
		}
		all := make([]int, len(evs))
		for i := range all {
			all[i] = i
		}
		half := len(evs) / 2
		copied := NewBlock(0, 0)
		copied.AppendRowsFrom(blk, 0, half)
		copied.AppendRowsFrom(reb, half, len(evs)) // the packed path
		want("AppendRowsFrom", copied.AppendEventsTo(nil), all)
		picked := make([]int, 0, len(evs))
		for i := len(evs) - 1; i >= 0; i -= 2 {
			picked = append(picked, i, i/2)
		}
		want("AppendPickedTo", blk.AppendPickedTo(nil, picked), picked)
		want("AppendPickedTo of a copy", copied.AppendPickedTo(nil, picked), picked)
		clone := NewBlock(0, 0)
		clone.CloneFrom(copied)
		want("CloneFrom", clone.AppendRangeTo(nil, 0, len(evs)), all)
		clone.Reset()
		clone.CloneFrom(blk)
		want("CloneFrom a decoded block", clone.AppendRangeTo(nil, 0, len(evs)), all)
		again := NewBlock(0, 0)
		if err := DecodeBlockInto(again, append([]byte(nil), copied.Wire()...)); err != nil {
			t.Fatalf("decoding a copy's wire image: %v", err)
		}
		want("Wire/DecodeBlockInto", again.AppendEventsTo(nil), all)
		// AppendFrom: a view shares the decoded payload; a block with an
		// arena of its own copies the rows into it, packed.
		view, own := NewBlock(0, 0), NewBlock(0, 0)
		if err := own.AppendEvent(Event{Root: "/first", Path: "/row", OldPath: "/before", Source: "s"}); err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			view.AppendFrom(blk, i)
			own.AppendFrom(blk, i)
		}
		want("AppendFrom (view)", view.AppendEventsTo(nil), all)
		want("AppendFrom (copy)", own.AppendRangeTo(nil, 1, own.Len()), all)
		if err := DecodeBlockInto(again, append([]byte(nil), own.Wire()...)); err != nil {
			t.Fatalf("decoding an AppendFrom copy's wire image: %v", err)
		}
		want("AppendFrom copy's Wire/DecodeBlockInto", again.AppendRangeTo(nil, 1, again.Len()), all)
	})
}
