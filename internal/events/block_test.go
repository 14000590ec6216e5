package events

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func blockEvents() []Event {
	return []Event{
		{Root: "/mnt/lustre", Op: OpCreate, Path: "/a/b/file1", Time: time.Unix(0, 1111), Seq: 0, Source: "mdt0"},
		{Root: "/mnt/lustre", Op: OpMovedTo, Path: "/a/b/new", OldPath: "/a/b/old", Cookie: 7, Time: time.Unix(0, 2222), Seq: 0, Source: "mdt0"},
		{Root: "/mnt/beegfs", Op: OpDelete | OpIsDir, Path: "/dir", Time: time.Unix(0, 3333), Seq: 0, Source: "meta1"},
		{Root: "", Op: OpModify, Path: "/x", Time: time.Unix(0, 4444), Seq: 42, Source: ""},
	}
}

func buildBlock(t testing.TB, evs []Event) *Block {
	t.Helper()
	b := NewBlock(len(evs), 256)
	for _, e := range evs {
		if err := b.AppendEvent(e); err != nil {
			t.Fatalf("AppendEvent: %v", err)
		}
	}
	return b
}

// The block's encoder must be byte-identical to the legacy per-event
// codec for every variant: plain, stamped, traced, stamped+traced.
func TestBlockEncodeMatchesCodec(t *testing.T) {
	evs := blockEvents()
	tr := &BatchTrace{ID: 99, Spans: []Span{{Tier: TierCollect, TS: 10}, {Tier: TierResolve, TS: 20}}}
	cases := []struct {
		name  string
		stamp int64
		tr    *BatchTrace
	}{
		{"plain", 0, nil},
		{"stamped", 123456789, nil},
		{"traced", 0, tr},
		{"stamped+traced", 123456789, tr},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := MarshalBatchTraced(evs, tc.stamp, tc.tr)
			if err != nil {
				t.Fatalf("MarshalBatchTraced: %v", err)
			}
			b := buildBlock(t, evs)
			b.SetStamp(tc.stamp)
			if tc.tr != nil {
				b.SetTrace(&BatchTrace{ID: tc.tr.ID, Spans: append([]Span(nil), tc.tr.Spans...)})
			}
			if got := b.Wire(); !bytes.Equal(got, want) {
				t.Fatalf("Wire mismatch:\n got %x\nwant %x", got, want)
			}
			// Second call returns the cached image unchanged.
			if got := b.Wire(); !bytes.Equal(got, want) {
				t.Fatalf("cached Wire mismatch")
			}
		})
	}
}

func TestBlockDecodeMatchesCodec(t *testing.T) {
	evs := blockEvents()
	tr := &BatchTrace{ID: 5, Spans: []Span{{Tier: TierPublish, TS: 77}}}
	payload, err := MarshalBatchTraced(evs, 31337, tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, err := DecodeBlock(payload)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if b.Stamp() != 31337 {
		t.Fatalf("stamp = %d, want 31337", b.Stamp())
	}
	if b.Trace() == nil || b.Trace().ID != 5 || len(b.Trace().Spans) != 1 {
		t.Fatalf("trace = %+v", b.Trace())
	}
	got := b.AppendEventsTo(nil)
	for i := range evs {
		if !evs[i].Time.Equal(got[i].Time) {
			t.Fatalf("event %d time = %v, want %v", i, got[i].Time, evs[i].Time)
		}
		got[i].Time = evs[i].Time
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
	// The decoded block's wire image is the payload itself, verbatim.
	if w := b.Wire(); &w[0] != &payload[0] {
		t.Fatalf("decoded Wire() is not the received payload")
	}
}

func TestBlockDecodeErrors(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatchTraced(evs, 9, &BatchTrace{ID: 1, Spans: []Span{{Tier: 0, TS: 1}}})
	for cut := 0; cut < len(payload); cut++ {
		short := payload[:cut]
		if _, err := DecodeBlock(short); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(payload))
		}
		// The legacy decoder must agree that it's invalid.
		if _, _, _, err := UnmarshalBatchTraced(short); err == nil {
			t.Fatalf("legacy decode of %d/%d bytes succeeded", cut, len(payload))
		}
	}
	long := append(append([]byte(nil), payload...), 0xAA)
	if _, err := DecodeBlock(long); err == nil {
		t.Fatal("decode with trailing bytes succeeded")
	}
}

// Seq assignment on a decoded or cloned block re-encodes as a clone of
// the cached wire image with only the seq fields patched, and the result
// matches a full re-marshal.
func TestBlockSeqPatch(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatchStamped(evs, 555)
	b, err := DecodeBlock(payload)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	orig := append([]byte(nil), payload...)
	for i := 0; i < b.Len(); i++ {
		b.SetSeq(i, uint64(1000+i))
		evs[i].Seq = uint64(1000 + i)
	}
	got := b.Wire()
	want, _ := MarshalBatchStamped(evs, 555)
	if !bytes.Equal(got, want) {
		t.Fatalf("patched wire mismatch:\n got %x\nwant %x", got, want)
	}
	// The received payload must be untouched (it is shared).
	if !bytes.Equal(payload, orig) {
		t.Fatal("seq patch modified the received payload in place")
	}
}

func TestBlockEventKeyMatches(t *testing.T) {
	evs := blockEvents()
	b := buildBlock(t, evs)
	for i, e := range evs {
		if got, want := b.EventKey(i), EventKey(e); got != want {
			t.Fatalf("EventKey(%d) = %#x, want %#x", i, got, want)
		}
	}
	// And on a decoded block (spans into the payload arena).
	payload, _ := MarshalBatch(evs)
	d, err := DecodeBlock(payload)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	for i, e := range evs {
		if got, want := d.EventKey(i), EventKey(e); got != want {
			t.Fatalf("decoded EventKey(%d) = %#x, want %#x", i, got, want)
		}
	}
}

// AppendFrom builds per-partition views sharing the source arena; each
// view encodes exactly as a batch of its own events would.
func TestBlockViewSplit(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatch(evs)
	src, err := DecodeBlock(payload)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	// Empty view blocks adopt the source arena on first append.
	views := [2]*Block{NewBlock(0, 0), NewBlock(0, 0)}
	var parts [2][]Event
	for i := 0; i < src.Len(); i++ {
		p := i % 2
		views[p].AppendFrom(src, i)
		parts[p] = append(parts[p], evs[i])
	}
	for p := range views {
		want, _ := MarshalBatch(parts[p])
		if got := views[p].Wire(); !bytes.Equal(got, want) {
			t.Fatalf("view %d wire mismatch:\n got %x\nwant %x", p, got, want)
		}
		if !views[p].aliases(src.arena) {
			t.Fatalf("view %d copied the arena instead of aliasing it", p)
		}
	}
}

func TestBlockCloneFrom(t *testing.T) {
	evs := blockEvents()
	src := buildBlock(t, evs)
	src.SetStamp(777)
	src.SetTrace(&BatchTrace{ID: 3, Spans: []Span{{Tier: TierCollect, TS: 1}}})
	srcWire := append([]byte(nil), src.Wire()...)

	var c Block
	c.CloneFrom(src)
	for i := 0; i < c.Len(); i++ {
		c.SetSeq(i, uint64(50+i))
	}
	c.Trace().Append(TierStore, 99)
	c.MarkTraceDirty()

	// Clone mutations must not leak into the source.
	if !bytes.Equal(src.Wire(), srcWire) {
		t.Fatal("clone mutation changed the source wire image")
	}
	if len(src.Trace().Spans) != 1 {
		t.Fatalf("clone trace append leaked: src has %d spans", len(src.Trace().Spans))
	}
	for i := range evs {
		if src.Seq(i) != evs[i].Seq {
			t.Fatalf("clone SetSeq leaked into source at %d", i)
		}
	}
	// And the clone encodes as the mutated batch.
	for i := range evs {
		evs[i].Seq = uint64(50 + i)
	}
	want, _ := MarshalBatchTraced(evs, 777, &BatchTrace{ID: 3, Spans: []Span{{Tier: TierCollect, TS: 1}, {Tier: TierStore, TS: 99}}})
	if got := c.Wire(); !bytes.Equal(got, want) {
		t.Fatalf("clone wire mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestBlockInternSharesBacking(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatch(evs)
	b, _ := DecodeBlock(payload)
	b.Intern()
	out := b.AppendEventsTo(nil)
	for i := range out {
		if out[i].Path != evs[i].Path {
			t.Fatalf("interned path %d = %q, want %q", i, out[i].Path, evs[i].Path)
		}
	}
	// Materializing twice yields strings sharing one interned backing —
	// spot-check via PathBytes matching the arena region.
	if string(b.PathBytes(0)) != evs[0].Path {
		t.Fatalf("PathBytes(0) = %q", b.PathBytes(0))
	}
}

func TestBlockReset(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatch(evs)
	b, _ := DecodeBlock(payload)
	b.Reset()
	if b.Len() != 0 || b.Stamp() != 0 || b.Trace() != nil {
		t.Fatalf("Reset left state: len=%d stamp=%d trace=%v", b.Len(), b.Stamp(), b.Trace())
	}
	// After Reset the block owns its arena again and is appendable.
	if err := b.AppendEvent(evs[0]); err != nil {
		t.Fatalf("AppendEvent after Reset: %v", err)
	}
	want, _ := MarshalBatch(evs[:1])
	if got := b.Wire(); !bytes.Equal(got, want) {
		t.Fatalf("post-reset wire mismatch")
	}
	// The original payload is untouched.
	check, err := UnmarshalBatch(payload)
	if err != nil || len(check) != len(evs) {
		t.Fatalf("payload corrupted by Reset+Append: %v", err)
	}
}

// AppendBlock and AppendRowsFrom copy: the destination's events survive the
// source being Reset and refilled, whether the source was packed (bulk arena
// copy and span rebase) or decoded (span-by-span copy out of the payload).
func TestBlockAppendBlockCopies(t *testing.T) {
	evs := blockEvents()
	payload, _ := MarshalBatch(evs)
	decoded, err := DecodeBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	packed := buildBlock(t, evs)
	var clone Block
	clone.CloneFrom(packed)

	dst := NewBlock(0, 0)
	if err := dst.AppendEvent(Event{Root: "/first", Path: "/row", Time: time.Unix(0, 1)}); err != nil {
		t.Fatal(err)
	}
	want := []Event{dst.Event(0)}
	for _, src := range []*Block{packed, decoded, &clone} {
		dst.AppendBlock(src)
		dst.AppendRowsFrom(src, 1, 3)
		want = append(append(want, evs...), evs[1:3]...)
	}
	// Destroy every source.
	clone.Reset()
	packed.Reset()
	packed.AppendEvent(Event{Root: "/xxxxxxxxxx", Path: "/yyyyyyyyyyyyyyyyyyyyyyyyyyy", Source: "zzzz"})
	for i := range payload {
		payload[i] = 0xff
	}

	check := func(got []Event, want []Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d events, want %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Time.Equal(want[i].Time) {
				t.Fatalf("event %d time = %v, want %v", i, got[i].Time, want[i].Time)
			}
			got[i].Time = want[i].Time
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	check(dst.AppendEventsTo(nil), want)
	// A page read agrees with the whole-block read, row for row.
	check(dst.AppendRangeTo(nil, 3, 9), want[3:9])
	// And the appended-to block still encodes as the batch of its events.
	wire, _ := MarshalBatch(want)
	if !bytes.Equal(dst.Wire(), wire) {
		t.Fatal("wire image of the appended-to block differs from a marshal of its events")
	}
}

// A clone copies the seq column and shares the rest: for a 512-event block
// that is one 4 KB allocation, where a column-by-column copy was 32 KB.
func TestBlockCloneIsSeqOnly(t *testing.T) {
	src := NewBlock(512, 32<<10)
	for i := 0; i < 512; i++ {
		if err := src.AppendEvent(Event{Root: "/mnt/lustre", Op: OpModify, Path: "/dir/file", Time: time.Unix(0, int64(i)), Source: "mdt0"}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewBlock(0, 0) // what the store lanes' pools hand out
	c.CloneFrom(src)
	runtime.ReadMemStats(&after)
	if objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; objs > 2 || bytes > 4096+256 {
		t.Fatalf("clone of a 512-event block allocated %d objects, %d bytes; want the header and one 4 KB seq column", objs, bytes)
	}
	c.SetSeq(0, 99)
	if src.Seq(0) != 0 || c.Seq(0) != 99 || c.Path(5) != "/dir/file" {
		t.Fatal("clone does not read like its source with its own seqs")
	}
	// Reset lets go of the shared columns: refilling the clone must not
	// write into the source.
	c.Reset()
	if err := c.AppendEvent(Event{Root: "/other", Path: "/p", Source: "s"}); err != nil {
		t.Fatal(err)
	}
	if src.Root(0) != "/mnt/lustre" || src.Len() != 512 {
		t.Fatal("refilling a Reset clone changed its source")
	}
}

// A row range encodes as the plain reference batch of those events whatever
// the block is stamped with, and BatchLen finds where that batch ends from its
// own length prefixes: exactly, with other bytes behind it, and not at all
// once it is cut short or is not a plain batch.
func TestAppendRowsToAndBatchLen(t *testing.T) {
	evs := blockEvents()
	b := buildBlock(t, evs)
	b.SetStamp(123456789)
	for lo := 0; lo <= len(evs); lo++ {
		for hi := lo; hi <= len(evs); hi++ {
			want, err := MarshalBatch(evs[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			got := b.AppendRowsTo([]byte("front"), lo, hi)[len("front"):]
			if !bytes.Equal(got, want) {
				t.Fatalf("rows [%d,%d):\n got %x\nwant %x", lo, hi, got, want)
			}
			if entries := b.AppendEntriesTo(nil, lo, hi); !bytes.Equal(entries, want[4:]) {
				t.Fatalf("rows [%d,%d): AppendEntriesTo is not the batch without its count", lo, hi)
			}
			if n, ok := BatchLen(append(bytes.Clone(got), "behind"...)); !ok || n != len(got) {
				t.Fatalf("rows [%d,%d): BatchLen = %d, %v, want %d", lo, hi, n, ok, len(got))
			}
			for cut := 0; cut < len(got); cut++ {
				if n, ok := BatchLen(got[:cut]); ok {
					t.Fatalf("rows [%d,%d) cut at %d of %d: BatchLen = %d, want not ok", lo, hi, cut, len(got), n)
				}
			}
		}
	}
	if n, ok := BatchLen(b.Wire()); ok {
		t.Fatalf("BatchLen of a stamped batch = %d, want not ok", n)
	}
}

// AppendJoinedBytes writes a path held as directory + name exactly as
// AppendEvent writes the joined string — same rows, same wire bytes — with
// one slash between the pieces whatever the directory ends in, and nothing
// added for an empty name.
func TestAppendJoinedMatchesAppendEvent(t *testing.T) {
	base := Event{Root: "/mnt/lustre", Op: OpMovedTo, Cookie: 9, Time: time.Unix(0, 5555), Source: "lustre"}
	joined, whole := NewBlock(8, 256), NewBlock(8, 256)
	for _, tc := range []struct{ dir, name, oldDir, oldName, path, old string }{
		{"/a/b", "f", "", "", "/a/b/f", ""},
		{"/", "f", "/a", "g", "/f", "/a/g"},
		{"/ParentDirectoryRemoved/", "f", "/ParentDirectoryRemoved/", "", "/ParentDirectoryRemoved/f", "/ParentDirectoryRemoved/"},
		{"/a/whole", "", "", "g", "/a/whole", "/g"},
	} {
		if err := joined.AppendJoinedBytes(base.Op, base.Cookie, base.Time, base.Root, base.Source, []byte(tc.dir), tc.name, []byte(tc.oldDir), tc.oldName); err != nil {
			t.Fatal(err)
		}
		e := base
		e.Path, e.OldPath = tc.path, tc.old
		if err := whole.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
		if i := joined.Len() - 1; joined.Path(i) != tc.path || joined.OldPath(i) != tc.old {
			t.Errorf("AppendJoinedBytes(%q+%q, %q+%q) = %q, %q; want %q, %q",
				tc.dir, tc.name, tc.oldDir, tc.oldName, joined.Path(i), joined.OldPath(i), tc.path, tc.old)
		}
	}
	if !bytes.Equal(joined.Wire(), whole.Wire()) {
		t.Error("joined and whole blocks encode differently")
	}
	if err := joined.AppendJoinedBytes(0, 0, time.Time{}, "", "", make([]byte, maxStr-1), "x", nil, ""); err == nil {
		t.Error("a joined path over the wire limit was accepted")
	}
	if err := joined.AppendEvent(Event{Path: string(make([]byte, maxStr))}); err != nil {
		t.Errorf("a whole path of exactly the wire limit was refused: %v", err)
	}
}

// hotBlock builds n rows shaped like the collector's hot path: one root,
// short paths, the MDT as source — about 110 wire bytes each.
func hotBlock(t testing.TB, n int) *Block {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Root: "/mnt/lustre", Op: OpCreate, Path: fmt.Sprintf("/bench/d%03d/file-%06d.dat", i%100, i),
			Time: time.Unix(0, int64(1000+i)), Source: "lustre-mdt0"}
	}
	return buildBlock(t, evs)
}

// TestWireSizedOnce pins the full-encode contract: Wire sizes its buffer
// from encodedLen — exact for built, decoded and view blocks, with or
// without stamp and trace — so the image is one allocation that never
// regrows, and its bytes are the reference codec's.
func TestWireSizedOnce(t *testing.T) {
	evs := blockEvents()
	tr := &BatchTrace{ID: 99, Spans: []Span{
		{Tier: TierCollect, TS: 10, Node: "mds0"}, {Tier: TierResolve, TS: 20}, {Tier: TierStore, TS: 30, Node: strings.Repeat("n", maxNode+40)},
	}}
	payload, _ := MarshalBatchStamped(evs, 555)
	decoded := func() *Block {
		b, err := DecodeBlock(payload)
		if err != nil {
			t.Fatalf("DecodeBlock: %v", err)
		}
		return b
	}
	view := NewBlock(0, 0)
	src := decoded()
	view.AppendFrom(src, 1)
	view.AppendFrom(src, 3)

	mutated := decoded() // a structural change drops the aliased payload: full encode
	mutated.SetStamp(556)
	mutated.SetTrace(tr)

	plain, stamped, traced := buildBlock(t, evs), buildBlock(t, evs), buildBlock(t, evs)
	stamped.SetStamp(123456789)
	traced.SetStamp(123456789)
	traced.SetTrace(tr)
	for _, tc := range []struct {
		name  string
		b     *Block
		evs   []Event
		stamp int64
		tr    *BatchTrace
	}{
		{"plain", plain, evs, 0, nil},
		{"stamped", stamped, evs, 123456789, nil},
		{"traced", traced, evs, 123456789, tr},
		{"decoded-then-mutated", mutated, evs, 556, tr},
		{"view", view, []Event{evs[1], evs[3]}, 0, nil},
		{"empty", NewBlock(0, 0), nil, 0, nil},
	} {
		want, err := MarshalBatchTraced(tc.evs, tc.stamp, tc.tr)
		if err != nil {
			t.Fatalf("%s: MarshalBatchTraced: %v", tc.name, err)
		}
		need := tc.b.encodedLen()
		got := tc.b.Wire()
		if len(got) != need || cap(got) != len(got) {
			t.Errorf("%s: first Wire has len %d cap %d, encodedLen %d; want all equal", tc.name, len(got), cap(got), need)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire mismatch:\n got %x\nwant %x", tc.name, got, want)
		}
	}

	b := hotBlock(t, 512)
	if b.seqPos != nil {
		t.Errorf("a filled block that was never encoded holds %d seq positions (cap %d), want none", len(b.seqPos), cap(b.seqPos))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		b.wire, b.wireBuf, b.seqPos = nil, nil, nil // as NewBlock leaves them
		_ = b.Wire()
	}); allocs > 2 {
		t.Errorf("a fresh 512-row block's first Wire allocates %v times, want <= 2 (image, seq positions)", allocs)
	}
	if len(b.seqPos) != b.Len() || cap(b.seqPos) != b.Len() {
		t.Errorf("seq positions after the first Wire: len %d cap %d, want both %d (sized once, not regrown)", len(b.seqPos), cap(b.seqPos), b.Len())
	}
}

// BenchmarkBlockWireFresh is the collector's publish over TCP: the first
// Wire of a freshly filled 512-row block that owns no image buffer yet.
func BenchmarkBlockWireFresh(b *testing.B) {
	blk := hotBlock(b, 512)
	_ = blk.Wire() // sizes the seq positions, which a block keeps; -benchtime 1x then reads the image alone
	b.ReportAllocs()
	b.SetBytes(int64(blk.encodedLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.wire, blk.wireBuf = nil, nil
		_ = blk.Wire()
	}
}

// A pooled block's own image buffer survives being pointed at foreign bytes:
// decode → SetSeq → Wire → Reset on one block allocates nothing from the
// second cycle on, never writes to the payload, and yields the bytes a fresh
// encode of the same rows does.
func TestWirePatchReusesOwnBuffer(t *testing.T) {
	src := hotBlock(t, 512)
	payload := append([]byte(nil), src.Wire()...)
	orig := append([]byte(nil), payload...)
	for i := 0; i < src.Len(); i++ {
		src.SetSeq(i, uint64(7000+i))
	}
	want := append([]byte(nil), src.Wire()...)

	b := NewBlock(0, 0)
	var got []byte
	cycle := func() {
		if err := DecodeBlockInto(b, payload); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			b.SetSeq(i, uint64(7000+i))
		}
		got = b.Wire()
		b.Reset()
	}
	cycle() // sizes the columns and the image buffer
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("decode, SetSeq, Wire, Reset on a block that has its buffers allocates %v times a cycle, want 0", allocs)
	}
	if !bytes.Equal(got, want) {
		t.Error("the patched image differs from a fresh encode of the same rows")
	}
	if !bytes.Equal(payload, orig) {
		t.Error("the seq patch wrote to the received payload")
	}
	if len(payload) > 0 && &got[0] == &payload[0] {
		t.Error("the patched image is the payload itself")
	}

	// A clone's image is its source's until it is patched, and then its own.
	clone := NewBlock(0, 0)
	cloneCycle := func() {
		clone.CloneFrom(src)
		clone.SetSeq(0, 1)
		got = clone.Wire()
		clone.Reset()
	}
	cloneCycle()
	if allocs := testing.AllocsPerRun(50, cloneCycle); allocs != 0 {
		t.Errorf("clone, SetSeq, Wire, Reset allocates %v times a cycle, want 0", allocs)
	}
	if !bytes.Equal(src.Wire(), want) {
		t.Error("patching a clone's image wrote to its source's")
	}
}

// AppendPickedTo is Event(i) row for row, whatever the block's arena is — its
// own, a payload's, an interned copy — and only reads the block: two readers
// of one frozen block may run it at once (the race detector watches), and
// the block encodes and materializes the same afterwards.
func TestAppendPickedTo(t *testing.T) {
	built := hotBlock(t, 64)
	decoded, err := DecodeBlock(append([]byte(nil), built.Wire()...))
	if err != nil {
		t.Fatal(err)
	}
	interned := hotBlock(t, 64)
	interned.Intern()
	view := NewBlock(0, 0)
	for _, i := range []int{3, 9, 40} {
		view.AppendFrom(decoded, i)
	}
	for name, b := range map[string]*Block{"built": built, "decoded": decoded, "interned": interned, "view": view, "rows with no strings": buildBlock(t, make([]Event, 3))} {
		wire := append([]byte(nil), b.Wire()...)
		rows := make([]int, 0, b.Len())
		for i := b.Len() - 1; i >= 0; i -= 2 { // a subset, out of order
			rows = append(rows, i)
		}
		done := make(chan []Event)
		for range 2 {
			go func() { done <- b.AppendPickedTo(make([]Event, 1, 8), rows) }()
		}
		for range 2 {
			got := <-done
			if len(got) != 1+len(rows) {
				t.Fatalf("%s: %d events appended after the one dst held, want %d", name, len(got)-1, len(rows))
			}
			for k, i := range rows {
				if got[1+k] != b.Event(i) {
					t.Errorf("%s: picked row %d = %+v, Event(%d) = %+v", name, i, got[1+k], i, b.Event(i))
				}
			}
		}
		if name != "interned" && b.interned != "" {
			t.Errorf("%s: AppendPickedTo left an interned copy on the block", name)
		}
		if !bytes.Equal(b.Wire(), wire) {
			t.Errorf("%s: the block encodes differently after AppendPickedTo", name)
		}
		if got := b.AppendPickedTo(nil, nil); got != nil {
			t.Errorf("%s: no rows picked, yet %d events", name, len(got))
		}
	}
	// One copy for the batch, not one per string.
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dst := make([]Event, 0, len(rows))
	if allocs := testing.AllocsPerRun(20, func() { dst = decoded.AppendPickedTo(dst[:0], rows) }); allocs != 1 {
		t.Errorf("materializing %d rows of a decoded block allocates %v times, want 1", len(rows), allocs)
	}
}
