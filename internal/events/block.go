package events

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// Block is the zero-copy batch representation the hot path runs on: one
// event batch held as parallel columns (op, cookie, seq, record time) plus
// a single contiguous byte arena for every string field, with per-event
// span offsets into that arena. It is the *only* shape a batch takes from
// capture to delivery — the collector fills one directly from resolution,
// the wire carries its encoded image, the aggregator decodes it as views
// into the received payload (no string materialization), the store appends
// from it, and the consumer materializes Events lazily for delivery.
//
// Compared to []Event round-tripped through the codec, a Block removes the
// two per-event costs that dominated the aggregation tier: the ~112 B
// struct copy at every hop and the per-string allocations of decode
// (three allocations and ~500 B per event). A decoded Block allocates
// nothing per event — columns come from a pooled Block, the arena is the
// received payload itself — and re-encoding after sequence assignment is a
// copy of the image into the block's own buffer with 8-byte seq patches
// instead of a full marshal.
//
// Ownership and mutation rules (the aliasing contract the pipeline relies
// on):
//
//   - A Block is single-writer while it is being built or holds assigned
//     sequence numbers that have not been published. All mutators
//     (AppendEvent, SetSeq, SetStamp, SetTrace, Intern, Wire) require
//     exclusive ownership.
//   - Publishing a Block by pointer (msgq's in-process fast path) freezes
//     it: every receiver must treat it — including its BatchTrace — as
//     immutable. Read accessors (Len, Op, Seq, Root, Event, EventKey,
//     Wire's cached buffer) are safe to use concurrently on a frozen Block.
//   - Nothing touches a block after an accepted publish — the publisher
//     least of all, not even to read Len. Published on lease
//     (msgq.Pub.PublishLeasedCtx) the block is Reset and refilled as soon
//     as the last receiver says Done, so a late Len or Stamp is another
//     batch's; whatever a stage still needs (the event count, the capture
//     stamp) it reads before publishing and carries beside the block. The
//     Block itself holds no reference count: the lease lives in msgq, and
//     a receiver's right to read ends at its Message.Done.
//   - A Block decoded from a received payload aliases that payload as its
//     arena and cached wire image, and never writes to it. The arena is on
//     loan for exactly as long as the payload is: a frame read from a msgq
//     TCP connection belongs to the receiver only until its Message.Done,
//     after which the connection refills the buffer. Reset the block (or
//     decode something else into it) before that Done, and take strings
//     that must outlive it out as copies (AppendPickedTo, AppendEventsTo,
//     Event).
//   - A CloneFrom clone shares every column of its frozen source except
//     seqs: it is seq-mutable only (SetSeq, SetTrace, Wire), never
//     appendable. The source must outlive it: whoever publishes a clone
//     names the message the source arrived in as the lease's parent, which
//     is Done only after the clone has been Reset.
type Block struct {
	ops     []Op
	cookies []uint32
	seqs    []uint64
	times   []int64 // record time, unix nanoseconds
	spans   []fieldSpans
	// sharedCols marks ops/cookies/times/spans/seqPos as a frozen source's
	// columns (CloneFrom): they are dropped, never truncated or appended to.
	sharedCols bool

	arena    []byte
	ownArena bool // arena backing is this Block's own buffer (appendable)
	// packed: the arena is exactly the rows' strings, row after row
	// (root, path, old, src), so a row range is one contiguous byte range.
	// True for every block built by appending, and for clones of one.
	packed   bool
	interned string // string copy of arena; "" until Intern

	stamp int64
	trace *BatchTrace

	// wire is the cached wire image; nil when the columns have diverged
	// structurally (append, stamp/trace change). It is either wireBuf or
	// foreign bytes (the payload a decode aliases, a clone source's image),
	// which are never written to. wireBuf is the block's own image memory,
	// kept across Reset: the full encode and the seq patch both fill it.
	// seqPos records the byte offset of each event's seq field inside wire,
	// so a seq-only change re-encodes as copy+patch instead of a full marshal.
	wire     []byte
	wireBuf  []byte
	seqPos   []int
	seqDirty bool
}

// strSpan is one string field as a [off, end) range into the arena.
type strSpan struct{ off, end uint32 }

// fieldSpans locates one event's four string fields in the arena.
type fieldSpans struct{ root, path, old, src strSpan }

// NewBlock returns an empty Block with room for evCap events and arenaCap
// arena bytes before growing. The seq positions are not among the columns
// sized here: only a block that is encoded needs them (a store segment never
// is), so Wire and the decoder size them when they first fill them.
func NewBlock(evCap, arenaCap int) *Block {
	return &Block{
		ops:     make([]Op, 0, evCap),
		cookies: make([]uint32, 0, evCap),
		seqs:    make([]uint64, 0, evCap),
		times:   make([]int64, 0, evCap),
		spans:   make([]fieldSpans, 0, evCap),
		arena:   make([]byte, 0, arenaCap),

		ownArena: true,
		packed:   true,
	}
}

// Reset empties the Block for reuse, dropping any foreign backing (aliased
// arena or wire, a clone's shared columns) and retaining owned capacity —
// the image buffer's too, whatever wire pointed at.
func (b *Block) Reset() {
	if b.sharedCols {
		b.ops, b.cookies, b.times, b.spans, b.seqPos = nil, nil, nil, nil, nil
		b.sharedCols = false
	} else {
		b.ops = b.ops[:0]
		b.cookies = b.cookies[:0]
		b.times = b.times[:0]
		b.spans = b.spans[:0]
		b.seqPos = b.seqPos[:0]
	}
	b.seqs = b.seqs[:0]
	if b.ownArena {
		b.arena = b.arena[:0]
	} else {
		b.arena = nil
		b.ownArena = true
	}
	b.packed = true
	b.wire = nil
	b.interned = ""
	b.stamp = 0
	b.trace = nil
	b.seqDirty = false
}

// Len returns the number of events in the block.
func (b *Block) Len() int { return len(b.ops) }

// Stamp returns the batch capture stamp (0 = unstamped).
func (b *Block) Stamp() int64 { return b.stamp }

// SetStamp sets the batch capture stamp. The stamp rides in the wire
// header, so changing it invalidates the cached wire image.
func (b *Block) SetStamp(stamp int64) {
	if b.stamp == stamp {
		return
	}
	b.stamp = stamp
	b.invalidateWire()
}

// Trace returns the batch's span trace (nil = untraced).
func (b *Block) Trace() *BatchTrace { return b.trace }

// SetTrace attaches tr as the batch's span trace. The caller keeps
// appending spans to tr until the block is published; every append
// invalidates the wire image, so mark the block dirty once here and again
// via MarkTraceDirty after later span appends.
func (b *Block) SetTrace(tr *BatchTrace) {
	b.trace = tr
	b.invalidateWire()
}

// MarkTraceDirty invalidates the cached wire image after spans were
// appended to the attached trace in place.
func (b *Block) MarkTraceDirty() { b.invalidateWire() }

func (b *Block) invalidateWire() {
	b.wire = nil
	b.clearSeqPos()
	b.seqDirty = false
}

// clearSeqPos empties seqPos for a re-encode; a clone lets go of its
// source's positions instead of overwriting them.
func (b *Block) clearSeqPos() {
	if b.sharedCols {
		b.seqPos = nil
	} else {
		b.seqPos = b.seqPos[:0]
	}
}

// AppendEvent appends one event, copying its strings into the arena. It
// requires an owned arena (a freshly built or Reset block, not one decoded
// from a payload).
func (b *Block) AppendEvent(e Event) error {
	return appendRow(b, e.Op, e.Cookie, e.Seq, e.Time, e.Root, e.Source, e.Path, "", e.OldPath, "")
}

// AppendJoinedBytes is AppendEvent for paths held as directory + final
// component, in a buffer the writer reuses: the event is op, cookie and t
// (seq 0) under root and source, its path dir followed by name and its old
// path oldDir followed by oldName, a non-empty name set off by exactly one
// slash. The pieces meet in the arena, so a path the resolver reconstructs
// from a parent directory never exists as a string of its own, and the
// bytes are copied, not retained.
func (b *Block) AppendJoinedBytes(op Op, cookie uint32, t time.Time, root, source string, dir []byte, name string, oldDir []byte, oldName string) error {
	return appendRow(b, op, cookie, 0, t, root, source, dir, name, oldDir, oldName)
}

func appendRow[S string | []byte](b *Block, op Op, cookie uint32, seq uint64, t time.Time, root, source string, dir S, name string, oldDir S, oldName string) error {
	if len(root) > maxStr || joinedLen(dir, name) > maxStr || joinedLen(oldDir, oldName) > maxStr {
		return fmt.Errorf("events: path component exceeds %d bytes", maxStr)
	}
	if len(source) > 255 {
		return fmt.Errorf("events: source exceeds 255 bytes")
	}
	if uint64(len(b.ops))+1 >= uint64(batchTraced) {
		return fmt.Errorf("events: batch of %d events exceeds wire limit", len(b.ops)+1)
	}
	if !b.ownArena {
		return fmt.Errorf("events: append into a decoded block")
	}
	var fs fieldSpans
	fs.root = b.appendStr(root)
	fs.path = appendJoined(b, dir, name)
	fs.old = appendJoined(b, oldDir, oldName)
	fs.src = b.appendStr(source)
	b.spans = append(b.spans, fs)
	b.ops = append(b.ops, op)
	b.cookies = append(b.cookies, cookie)
	b.seqs = append(b.seqs, seq)
	b.times = append(b.times, t.UnixNano())
	b.interned = ""
	b.invalidateWire()
	return nil
}

// joinedLen bounds the joined length; the slash is counted even where dir
// already ends in one.
func joinedLen[S string | []byte](dir S, name string) int {
	if name == "" {
		return len(dir)
	}
	return len(dir) + 1 + len(name)
}

func appendJoined[S string | []byte](b *Block, dir S, name string) strSpan {
	off := uint32(len(b.arena))
	b.arena = append(b.arena, dir...)
	if name != "" {
		if len(dir) == 0 || dir[len(dir)-1] != '/' {
			b.arena = append(b.arena, '/')
		}
		b.arena = append(b.arena, name...)
	}
	return strSpan{off: off, end: uint32(len(b.arena))}
}

func (b *Block) appendStr(s string) strSpan {
	off := uint32(len(b.arena))
	b.arena = append(b.arena, s...)
	return strSpan{off: off, end: uint32(len(b.arena))}
}

// copySpan appends the bytes sp names in a foreign arena to b's own.
func (b *Block) copySpan(arena []byte, sp strSpan) strSpan {
	off := uint32(len(b.arena))
	b.arena = append(b.arena, arena[sp.off:sp.end]...)
	return strSpan{off: off, end: uint32(len(b.arena))}
}

// Intern makes one string copy of the whole arena so that per-event
// accessors return substrings of it instead of allocating. It mutates the
// block: call it only while the block is exclusively owned, by the reader
// that is about to walk every row (a frozen block's readers use
// AppendPickedTo, which stores nothing).
func (b *Block) Intern() {
	if b.interned == "" && len(b.arena) > 0 {
		b.interned = string(b.arena)
	}
}

// str materializes one span: a shared substring when the arena is
// interned, a fresh allocation otherwise.
func (b *Block) str(sp strSpan) string {
	if sp.off == sp.end {
		return ""
	}
	if b.interned != "" {
		return b.interned[sp.off:sp.end]
	}
	return string(b.arena[sp.off:sp.end])
}

// Per-event column accessors. i must be in [0, Len()).

// Op returns event i's operation mask.
func (b *Block) Op(i int) Op { return b.ops[i] }

// Cookie returns event i's rename-correlation cookie.
func (b *Block) Cookie(i int) uint32 { return b.cookies[i] }

// Seq returns event i's store sequence number.
func (b *Block) Seq(i int) uint64 { return b.seqs[i] }

// TimeNano returns event i's record time in unix nanoseconds.
func (b *Block) TimeNano(i int) int64 { return b.times[i] }

// Root returns event i's watch root.
func (b *Block) Root(i int) string { return b.str(b.spans[i].root) }

// Path returns event i's subject path.
func (b *Block) Path(i int) string { return b.str(b.spans[i].path) }

// OldPath returns event i's pre-rename path ("" when not a tracked move).
func (b *Block) OldPath(i int) string { return b.str(b.spans[i].old) }

// Source returns event i's producing DSI name.
func (b *Block) Source(i int) string { return b.str(b.spans[i].src) }

// PathBytes returns event i's subject path as raw arena bytes — the
// allocation-free view partition routing hashes.
func (b *Block) PathBytes(i int) []byte {
	sp := b.spans[i].path
	return b.arena[sp.off:sp.end]
}

// SetSeq assigns event i's sequence number (the store's job). The cached
// wire image stays valid — Wire patches the seq fields in place of a full
// re-encode.
func (b *Block) SetSeq(i int, seq uint64) {
	if b.seqs[i] == seq {
		return
	}
	b.seqs[i] = seq
	b.seqDirty = true
}

// Event materializes event i as a standalone Event value.
func (b *Block) Event(i int) Event {
	return Event{
		Root:    b.Root(i),
		Op:      b.ops[i],
		Path:    b.Path(i),
		OldPath: b.OldPath(i),
		Cookie:  b.cookies[i],
		Time:    time.Unix(0, b.times[i]),
		Seq:     b.seqs[i],
		Source:  b.Source(i),
	}
}

// AppendEventsTo materializes every event onto dst and returns the
// extended slice. With an interned arena this allocates only dst growth:
// all strings are substrings of the single interned copy.
func (b *Block) AppendEventsTo(dst []Event) []Event {
	return b.AppendRangeTo(dst, 0, len(b.ops))
}

// AppendRangeTo materializes events [lo, hi) onto dst and returns the
// extended slice. Strings are substrings of the interned copy when there
// is one; otherwise a packed block makes one string copy of exactly the
// range's bytes and every event shares it — a page read costs what the
// page holds, and the block retains no second copy of its arena.
func (b *Block) AppendRangeTo(dst []Event, lo, hi int) []Event {
	if lo >= hi {
		return dst
	}
	page, base := b.interned, uint32(0)
	if page == "" {
		if !b.packed {
			for i := lo; i < hi; i++ {
				dst = append(dst, b.Event(i))
			}
			return dst
		}
		base = b.spans[lo].root.off
		page = string(b.arena[base:b.spans[hi-1].src.end])
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, b.eventIn(page, base, i))
	}
	return dst
}

// AppendPickedTo materializes the events at the given row indexes onto dst,
// in that order, and returns the extended slice. Their strings are
// substrings of one copy of the arena bytes those rows span, made in the
// call and kept by nobody but the result (an interned block's rows share
// the interned copy instead). The block is only read: concurrent readers of
// one frozen block may each call it, and what they get holds nothing of the
// block's memory — nor of the payload a decoded block's arena is on loan
// from. This is how a reader that keeps events past its Message.Done takes
// them out.
func (b *Block) AppendPickedTo(dst []Event, rows []int) []Event {
	if len(rows) == 0 {
		return dst
	}
	page, base := b.interned, uint32(0)
	if page == "" {
		// Every way of filling a block lays a row's strings out in field
		// order, so a row spans [root.off, src.end).
		lo, hi := b.spans[rows[0]].root.off, b.spans[rows[0]].src.end
		for _, i := range rows[1:] {
			lo, hi = min(lo, b.spans[i].root.off), max(hi, b.spans[i].src.end)
		}
		base, page = lo, string(b.arena[lo:hi])
	}
	for _, i := range rows {
		dst = append(dst, b.eventIn(page, base, i))
	}
	return dst
}

// eventIn is event i with its strings cut from page, a string copy of the
// arena from offset base on.
func (b *Block) eventIn(page string, base uint32, i int) Event {
	fs := b.spans[i]
	return Event{
		Root:    page[fs.root.off-base : fs.root.end-base],
		Op:      b.ops[i],
		Path:    page[fs.path.off-base : fs.path.end-base],
		OldPath: page[fs.old.off-base : fs.old.end-base],
		Cookie:  b.cookies[i],
		Time:    time.Unix(0, b.times[i]),
		Seq:     b.seqs[i],
		Source:  page[fs.src.off-base : fs.src.end-base],
	}
}

// EventKey hashes event i's wire-stable identity, byte-identical to
// EventKey(b.Event(i)) without materializing the event.
func (b *Block) EventKey(i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(sp strSpan) {
		for _, c := range b.arena[sp.off:sp.end] {
			h ^= uint64(c)
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	fs := b.spans[i]
	mix(fs.root)
	mix(fs.path)
	mix(fs.old)
	mix(fs.src)
	for _, v := range [...]uint64{uint64(b.ops[i]), uint64(b.cookies[i]), uint64(b.times[i])} {
		for j := 0; j < 8; j++ {
			h ^= (v >> (8 * j)) & 0xff
			h *= prime64
		}
	}
	return h
}

// AppendFrom appends event i of src to b. When b is empty (or already
// aliased to src's arena) the string bytes are shared, not copied — this
// is the path-hash split: P view blocks over one received payload. A block
// with its own arena copies the bytes instead.
func (b *Block) AppendFrom(src *Block, i int) {
	if b.sharedCols {
		panic("events: Block.AppendFrom into a seq-only clone")
	}
	if len(b.ops) == 0 && len(b.arena) == 0 {
		// Adopt src's arena wholesale; span offsets stay valid.
		b.arena = src.arena
		b.ownArena = false
		b.packed = false
		b.interned = src.interned
	}
	if b.aliases(src.arena) {
		b.spans = append(b.spans, src.spans[i])
	} else {
		if !b.ownArena {
			// Aliased to a different arena: views are built over exactly
			// one source block, so this is a misuse, not a data shape.
			panic("events: Block.AppendFrom across different source arenas")
		}
		s, a := src.spans[i], src.arena
		b.spans = append(b.spans, fieldSpans{
			root: b.copySpan(a, s.root), path: b.copySpan(a, s.path), old: b.copySpan(a, s.old), src: b.copySpan(a, s.src),
		})
		b.interned = ""
	}
	b.ops = append(b.ops, src.ops[i])
	b.cookies = append(b.cookies, src.cookies[i])
	b.seqs = append(b.seqs, src.seqs[i])
	b.times = append(b.times, src.times[i])
	b.invalidateWire()
}

// aliases reports whether b.arena is the same backing as arena.
func (b *Block) aliases(arena []byte) bool {
	return len(b.arena) == len(arena) && (len(arena) == 0 || &b.arena[0] == &arena[0])
}

// AppendBlock appends every event of src to b, copying the string bytes
// into b's own arena: afterwards b holds no reference to src's memory, so
// src may be Reset, refilled or recycled. A packed source costs one
// memmove per column plus a span rebase; a source aliasing a payload is
// copied span by span. b must own its arena (built or Reset, not decoded
// or cloned).
func (b *Block) AppendBlock(src *Block) { b.AppendRowsFrom(src, 0, src.Len()) }

// AppendRowsFrom is AppendBlock for rows [lo, hi) of src: of a packed
// source it copies the one byte range those rows' strings occupy.
func (b *Block) AppendRowsFrom(src *Block, lo, hi int) {
	if !b.ownArena {
		panic("events: Block.AppendBlock into a decoded or cloned block")
	}
	if lo >= hi {
		return
	}
	first := len(b.spans)
	b.ops = append(b.ops, src.ops[lo:hi]...)
	b.cookies = append(b.cookies, src.cookies[lo:hi]...)
	b.seqs = append(b.seqs, src.seqs[lo:hi]...)
	b.times = append(b.times, src.times[lo:hi]...)
	b.spans = append(b.spans, src.spans[lo:hi]...)
	rows := b.spans[first:]
	if src.packed {
		from := src.spans[lo].root.off
		// The shift may be negative; uint32 arithmetic wraps it right.
		shift := uint32(len(b.arena)) - from
		b.arena = append(b.arena, src.arena[from:src.spans[hi-1].src.end]...)
		if shift != 0 {
			for i := range rows {
				fs := &rows[i]
				fs.root.off, fs.root.end = fs.root.off+shift, fs.root.end+shift
				fs.path.off, fs.path.end = fs.path.off+shift, fs.path.end+shift
				fs.old.off, fs.old.end = fs.old.off+shift, fs.old.end+shift
				fs.src.off, fs.src.end = fs.src.off+shift, fs.src.end+shift
			}
		}
	} else {
		a := src.arena
		for i := range rows {
			fs := &rows[i]
			fs.root, fs.path, fs.old, fs.src = b.copySpan(a, fs.root), b.copySpan(a, fs.path), b.copySpan(a, fs.old), b.copySpan(a, fs.src)
		}
	}
	b.interned = ""
	b.invalidateWire()
}

// ArenaLen returns the number of string bytes the block holds (for a
// decoded block, the length of the payload it aliases).
func (b *Block) ArenaLen() int { return len(b.arena) }

// CloneFrom makes b a seq-mutable clone of a frozen src: only the seq
// column is copied (so SetSeq and clone+patch re-encoding work without
// touching src); every other column, the seq positions, the arena, the
// interned string and the cached wire image are shared read-only. The
// trace is deep-copied — the clone's owner appends spans to it. b must be
// empty (freshly built or Reset); whatever column capacity it owned is
// let go.
func (b *Block) CloneFrom(src *Block) {
	b.ops, b.cookies, b.times, b.spans, b.seqPos = src.ops, src.cookies, src.times, src.spans, src.seqPos
	b.sharedCols = true
	b.seqs = append(b.seqs[:0], src.seqs...)
	b.arena = src.arena
	b.ownArena = false
	b.packed = src.packed
	b.interned = src.interned
	b.stamp = src.stamp
	b.wire = src.wire
	b.seqDirty = src.seqDirty
	if src.trace != nil {
		b.trace = &BatchTrace{ID: src.trace.ID, Spans: append([]Span(nil), src.trace.Spans...)}
	} else {
		b.trace = nil
	}
}

// EncodeTo appends the block's wire encoding — header, stamp and trace
// sections when set, then every row, in the layout codec.go documents — to
// buf and returns the extended buffer. seqPos, when non-nil, receives the
// buffer offset of each event's seq field.
func (b *Block) EncodeTo(buf []byte, seqPos *[]int) []byte {
	header := uint32(len(b.ops))
	if b.stamp != 0 {
		header |= batchStamped
	}
	if b.trace != nil {
		header |= batchTraced
	}
	buf = binary.LittleEndian.AppendUint32(buf, header)
	if b.stamp != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.stamp))
	}
	if tr := b.trace; tr != nil {
		buf = binary.LittleEndian.AppendUint64(buf, tr.ID)
		buf = append(buf, byte(len(tr.Spans)))
		for _, sp := range tr.Spans {
			buf = append(buf, sp.Tier)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sp.TS))
			node := sp.Node
			if len(node) > maxNode {
				node = node[:maxNode]
			}
			buf = append(buf, byte(len(node)))
			buf = append(buf, node...)
		}
	}
	return b.appendRows(buf, 0, len(b.ops), seqPos)
}

// AppendRowsTo appends rows [lo, hi) to buf as a wire batch of their own —
// u32 count, then the rows, whatever stamp or trace the block carries left
// out — and returns the extended buffer. The bytes are a function of the
// rows alone, which is what the event journal stores.
func (b *Block) AppendRowsTo(buf []byte, lo, hi int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
	return b.appendRows(buf, lo, hi, nil)
}

// AppendEntriesTo appends the wire entries of rows [lo, hi) to buf with no
// count in front: the pieces of a batch merged from several blocks, whose
// writer puts the count in front itself (eventstore.Pager).
func (b *Block) AppendEntriesTo(buf []byte, lo, hi int) []byte {
	return b.appendRows(buf, lo, hi, nil)
}

// appendRows appends the wire entries of rows [lo, hi).
func (b *Block) appendRows(buf []byte, lo, hi int, seqPos *[]int) []byte {
	for i := lo; i < hi; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.ops[i]))
		buf = binary.LittleEndian.AppendUint32(buf, b.cookies[i])
		if seqPos != nil {
			*seqPos = append(*seqPos, len(buf))
		}
		buf = binary.LittleEndian.AppendUint64(buf, b.seqs[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.times[i]))
		fs := b.spans[i]
		for _, sp := range [...]strSpan{fs.root, fs.path, fs.old} {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sp.end-sp.off))
			buf = append(buf, b.arena[sp.off:sp.end]...)
		}
		buf = append(buf, byte(fs.src.end-fs.src.off))
		buf = append(buf, b.arena[fs.src.off:fs.src.end]...)
	}
	return buf
}

// Wire returns the block's wire image, caching it. Three speeds:
//
//   - clean cached image (a decoded block republished verbatim, or a
//     repeated publish): returned as-is, zero copies;
//   - seq-only divergence (the store assigned sequence numbers): the
//     cached image is copied into the block's own image buffer and the
//     8-byte seq fields patched there at their recorded offsets — no
//     per-event re-marshal, and from a pooled block's second use no
//     allocation; the bytes copied from (a received payload, a clone
//     source's image) are only read;
//   - structural divergence (fresh build, appended trace spans, views):
//     full EncodeTo, into the same buffer.
//
// The returned buffer is owned by the block; callers must not modify it.
func (b *Block) Wire() []byte {
	if len(b.wire) >= 4 { // any encoded batch carries at least its header

		if !b.seqDirty {
			return b.wire
		}
		if len(b.seqPos) == len(b.ops) {
			// The cached image may be a payload or a clone source's image:
			// copy it into the block's own buffer and patch there.
			b.wireBuf = append(b.wireBuf[:0], b.wire...)
			for i, pos := range b.seqPos {
				binary.LittleEndian.PutUint64(b.wireBuf[pos:], b.seqs[i])
			}
			b.wire = b.wireBuf
			b.seqDirty = false
			return b.wire
		}
	}
	b.clearSeqPos()
	// Both sized once: a full encode never regrows the image or the positions.
	buf := b.wireBuf[:0]
	if need := b.encodedLen(); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	if cap(b.seqPos) < len(b.ops) {
		b.seqPos = make([]int, 0, len(b.ops))
	}
	b.wireBuf = b.EncodeTo(buf, &b.seqPos)
	b.wire = b.wireBuf
	b.seqDirty = false
	return b.wire
}

// encodedLen is the exact length of EncodeTo's output.
func (b *Block) encodedLen() int {
	n := 4 + len(b.ops)*minEntry
	if b.stamp != 0 {
		n += 8
	}
	if tr := b.trace; tr != nil {
		n += 8 + 1
		for _, sp := range tr.Spans {
			n += 1 + 8 + 1 + min(len(sp.Node), maxNode)
		}
	}
	for _, fs := range b.spans {
		n += int(fs.root.end-fs.root.off) + int(fs.path.end-fs.path.off) +
			int(fs.old.end-fs.old.off) + int(fs.src.end-fs.src.off)
	}
	return n
}

// minEntry is the smallest wire entry: the 24-byte fixed header, three
// empty u16-prefixed strings and an empty u8-prefixed source.
const minEntry = 24 + 3*2 + 1

// reserve makes room for n more rows in the columns a decode fills.
func (b *Block) reserve(n int) {
	if cap(b.ops)-len(b.ops) >= n {
		return
	}
	b.ops = slices.Grow(b.ops, n)
	b.cookies = slices.Grow(b.cookies, n)
	b.seqs = slices.Grow(b.seqs, n)
	b.times = slices.Grow(b.times, n)
	b.spans = slices.Grow(b.spans, n)
	b.seqPos = slices.Grow(b.seqPos, n)
}

// DecodeBlock decodes a wire batch into a fresh Block. See DecodeBlockInto.
func DecodeBlock(payload []byte) (*Block, error) {
	b := &Block{ownArena: true}
	if err := DecodeBlockInto(b, payload); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeBlockInto decodes a wire batch (codec.go's layout: plain, stamped or
// traced) into b, which is Reset first. The decode is zero-copy: b's arena
// and cached wire image alias payload, which must not be modified
// afterwards. Bytes left over after the announced events are an error.
func DecodeBlockInto(b *Block, payload []byte) error {
	b.Reset()
	if len(payload) < 4 {
		return fmt.Errorf("events: short buffer decoding batch count")
	}
	header := binary.LittleEndian.Uint32(payload)
	pos := 4
	n := header &^ batchFlags
	if header&batchStamped != 0 {
		if len(payload) < pos+8 {
			return fmt.Errorf("events: short buffer decoding batch stamp")
		}
		b.stamp = int64(binary.LittleEndian.Uint64(payload[pos:]))
		pos += 8
	}
	if header&batchTraced != 0 {
		if len(payload) < pos+9 {
			return fmt.Errorf("events: short buffer decoding batch trace")
		}
		tr := &BatchTrace{ID: binary.LittleEndian.Uint64(payload[pos:])}
		nspans := int(payload[pos+8])
		pos += 9
		tr.Spans = make([]Span, nspans)
		for i := range tr.Spans {
			if len(payload) < pos+10 {
				return fmt.Errorf("events: short buffer decoding %d trace spans", nspans)
			}
			sp := Span{Tier: payload[pos], TS: int64(binary.LittleEndian.Uint64(payload[pos+1:]))}
			nl := int(payload[pos+9])
			pos += 10
			if len(payload) < pos+nl {
				return fmt.Errorf("events: short buffer decoding trace span node")
			}
			sp.Node = string(payload[pos : pos+nl])
			pos += nl
			tr.Spans[i] = sp
		}
		b.trace = tr
	}
	// Size the columns once for the announced count, capped by what the
	// payload could hold so a hostile header cannot force the allocation.
	b.reserve(min(int(n), (len(payload)-pos)/minEntry))
	for i := uint32(0); i < n; i++ {
		if len(payload)-pos < 24 {
			return fmt.Errorf("events: batch entry %d: short buffer (%d bytes) decoding header", i, len(payload)-pos)
		}
		b.ops = append(b.ops, Op(binary.LittleEndian.Uint32(payload[pos:])))
		b.cookies = append(b.cookies, binary.LittleEndian.Uint32(payload[pos+4:]))
		b.seqPos = append(b.seqPos, pos+8)
		b.seqs = append(b.seqs, binary.LittleEndian.Uint64(payload[pos+8:]))
		b.times = append(b.times, int64(binary.LittleEndian.Uint64(payload[pos+16:])))
		pos += 24
		var fs fieldSpans
		ok := true
		str16 := func() strSpan {
			if !ok || len(payload)-pos < 2 {
				ok = false
				return strSpan{}
			}
			l := int(binary.LittleEndian.Uint16(payload[pos:]))
			pos += 2
			if len(payload)-pos < l {
				ok = false
				return strSpan{}
			}
			sp := strSpan{off: uint32(pos), end: uint32(pos + l)}
			pos += l
			return sp
		}
		fs.root = str16()
		fs.path = str16()
		fs.old = str16()
		if ok && len(payload)-pos >= 1 {
			l := int(payload[pos])
			pos++
			if len(payload)-pos < l {
				ok = false
			} else {
				fs.src = strSpan{off: uint32(pos), end: uint32(pos + l)}
				pos += l
			}
		} else {
			ok = false
		}
		if !ok {
			return fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		b.spans = append(b.spans, fs)
	}
	if pos != len(payload) {
		return fmt.Errorf("events: %d trailing bytes after batch", len(payload)-pos)
	}
	b.arena = payload
	b.ownArena = false
	b.packed = false
	b.wire = payload
	return nil
}

// BatchLen returns how many bytes the plain (no stamp, no trace) wire batch
// at the front of payload occupies, by its own count and string lengths
// alone; ok is false when payload ends first. A journal reader uses it to
// tell a record whose length field is damaged from one that was cut short.
func BatchLen(payload []byte) (n int, ok bool) {
	if len(payload) < 4 {
		return 0, false
	}
	count := binary.LittleEndian.Uint32(payload)
	if count&batchFlags != 0 {
		return 0, false
	}
	pos := 4
	for ; count > 0; count-- {
		pos += 24
		for range 3 {
			if len(payload)-pos < 2 {
				return 0, false
			}
			pos += 2 + int(binary.LittleEndian.Uint16(payload[pos:]))
		}
		if len(payload)-pos < 1 {
			return 0, false
		}
		pos += 1 + int(payload[pos])
	}
	return pos, pos <= len(payload)
}
