package events

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
	"unsafe"
)

// Block is the zero-copy batch representation the hot path runs on: one
// event batch held as parallel columns (the rows' 4-byte fields, seq,
// record time) plus a single contiguous byte arena for every string field,
// with per-event offsets into that arena. Root and source repeat across a
// batch, so they are a per-block dictionary of (root, source) pairs, each
// held once, and a row keeps where its path starts, its path's and old
// path's lengths, and its pair's index. It is the *only* shape a batch
// takes from capture to delivery — the collector fills one directly from
// resolution, the wire carries its encoded image, the aggregator decodes it
// as views into the received payload (no string materialization), the store
// appends from it, and the consumer materializes Events lazily for delivery.
//
// Compared to []Event round-tripped through the codec, a Block removes the
// two per-event costs that dominated the aggregation tier: the 104 B
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
//   - A seq run (NewSeqRun, a store segment) keeps no seq column: its rows'
//     seqs are first, first+stride, ... and every append must continue them.
//     It is read and appended to like any block, but never encoded whole,
//     decoded into, cloned or given seqs (Wire, DecodeBlockInto, CloneFrom,
//     SetSeq refuse it).
type Block struct {
	rows  []row
	seqs  []uint64 // nil in a seq run
	times []int64  // record time, unix nanoseconds
	// dict holds the block's distinct (root, source) pairs; a row names its
	// pair by index. Its spans point into the arena, like the rows'. dict0
	// backs it until a second pair, so a block naming one pair — nearly all
	// do — costs no allocation for it.
	dict  []pairSpans
	dict0 [1]pairSpans
	arena []byte

	// sharedCols marks rows/times/dict/seqPos as a frozen source's
	// columns (CloneFrom): they are dropped, never truncated or appended to.
	sharedCols bool
	ownArena   bool // arena backing is this Block's own buffer (appendable)
	// packed: the arena is exactly the rows' own strings, row after row
	// (path, old), each dictionary entry's (root, src) just before the
	// first row that names it. A row range of a block with one entry is then
	// one contiguous byte range. True for every block built by appending,
	// and for clones of one.
	packed bool
	// gap is how many arena bytes lie between a row's path and its old path:
	// 0 where the block wrote them (appending writes path, then old), 2 in a
	// decoded payload (the old path's u16 length prefix). A clone takes its
	// source's, as does a view adopting a source's arena.
	gap      uint8
	seqDirty bool // seqs changed since wire was encoded (SetSeq)
	// seqStride, when not 0, makes the block a seq run: row i's seq is
	// seqFirst + i·seqStride. It sits in the flags' padding, as seqFirst sits
	// where seqDirty's padding was, so the header stays 256 B.
	seqStride uint16
	interned  string // string copy of arena; "" until Intern

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
	seqFirst uint64 // a seq run's first seq, set by the append into it when empty
}

// strSpan is one string field as a [off, end) range into the arena.
type strSpan struct{ off, end uint32 }

// len is the span's length in bytes.
func (sp strSpan) len() int { return int(sp.end - sp.off) }

// row is one event's fixed fields in 20 bytes: op, cookie, the index of the
// dictionary entry holding its root and source, and its own strings as the
// path's arena offset and the two lengths (the wire caps both at u16). The
// old path starts the block's gap after the path ends.
type row struct {
	op              Op
	cookie          uint32
	pair            uint32
	off             uint32
	pathLen, oldLen uint16
}

// path is the row's path in the arena.
func (r row) path() strSpan { return strSpan{off: r.off, end: r.off + uint32(r.pathLen)} }

// old is the row's old path in an arena with the given gap.
func (r row) old(gap uint8) strSpan {
	off := r.off + uint32(r.pathLen) + uint32(gap)
	return strSpan{off: off, end: off + uint32(r.oldLen)}
}

// strLen is the length of the row's own strings.
func (r row) strLen() int { return int(r.pathLen) + int(r.oldLen) }

// pairSpans is one dictionary entry: a (root, source) pair in the arena.
type pairSpans struct{ root, src strSpan }

// NewBlock returns an empty Block with room for evCap events and arenaCap
// arena bytes before growing. The seq positions are not among the columns
// sized here: only a block that is encoded needs them (a store segment never
// is), so Wire and the decoder size them when they first fill them. The
// columns are made at exactly the size asked for, not grown into their size
// class: under the race detector an append of a make allocates the make
// too, and a store segment would cost twice its bytes.
func NewBlock(evCap, arenaCap int) *Block {
	b := newBlock(evCap, arenaCap)
	b.seqs = make([]uint64, 0, evCap)
	return b
}

// NewSeqRun returns an empty seq run with room for evCap events and arenaCap
// arena bytes: a block whose rows' seqs are one run, each stride past the
// one before, kept as the first seq and the stride instead of a column. The
// first row appended sets where the run starts; each row after must carry
// the run on. A store segment is one: the store numbers its rows so.
func NewSeqRun(evCap, arenaCap int, stride uint16) *Block {
	if stride == 0 {
		panic("events: a seq run's stride must not be 0")
	}
	b := newBlock(evCap, arenaCap)
	b.seqStride = stride
	return b
}

// newBlock is an empty block with every column but seqs made.
func newBlock(evCap, arenaCap int) *Block {
	b := &Block{
		rows:  make([]row, 0, evCap),
		times: make([]int64, 0, evCap),
		arena: make([]byte, 0, arenaCap),

		ownArena: true,
		packed:   true,
	}
	b.dict = b.dict0[:0]
	return b
}

// Reset empties the Block for reuse, dropping any foreign backing (aliased
// arena or wire, a clone's shared columns) and retaining owned capacity —
// the image buffer's too, whatever wire pointed at. A seq run stays one: the
// next row appended starts its run afresh.
func (b *Block) Reset() {
	if b.sharedCols {
		b.rows, b.times, b.seqPos = nil, nil, nil
		b.dict = b.dict0[:0]
		b.sharedCols = false
	} else {
		b.rows = b.rows[:0]
		b.times = b.times[:0]
		b.dict = b.dict[:0]
		b.seqPos = b.seqPos[:0]
	}
	b.seqs = b.seqs[:0]
	if b.ownArena {
		b.arena = b.arena[:0]
	} else {
		b.arena = nil
		b.ownArena = true
	}
	b.packed, b.gap = true, 0
	b.wire = nil
	b.interned = ""
	b.stamp = 0
	b.trace = nil
	b.seqDirty = false
	b.seqFirst = 0
}

// Len returns the number of events in the block.
func (b *Block) Len() int { return len(b.rows) }

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
	if uint64(len(b.rows))+1 >= uint64(batchTraced) {
		return fmt.Errorf("events: batch of %d events exceeds wire limit", len(b.rows)+1)
	}
	if !b.ownArena {
		return fmt.Errorf("events: append into a decoded block")
	}
	if b.seqStride != 0 && len(b.rows) > 0 && seq != b.Seq(len(b.rows)) {
		return fmt.Errorf("events: seq %d does not carry on a run at %d", seq, b.Seq(len(b.rows)))
	}
	pair := pairOf(b, root, source) // a new entry's bytes go in before the row's
	path := appendJoined(b, dir, name)
	old := appendJoined(b, oldDir, oldName)
	b.rows = append(b.rows, row{op: op, cookie: cookie, pair: pair, off: path.off, pathLen: uint16(path.len()), oldLen: uint16(old.len())})
	if b.seqStride == 0 {
		b.seqs = append(b.seqs, seq)
	} else if len(b.rows) == 1 {
		b.seqFirst = seq
	}
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

// bytes returns the arena bytes sp names.
func (b *Block) bytes(sp strSpan) []byte { return b.arena[sp.off:sp.end] }

// findPair returns the index of a dictionary entry holding root and src, or
// -1. It compares against the last entry first and looks back over eight at
// most, so a lookup costs the same however many pairs a block holds (rows
// cycling through more add entries, costing what repeating them in each row did).
func findPair[S string | []byte](b *Block, root, src S) int {
	for k := len(b.dict) - 1; k >= 0 && k >= len(b.dict)-8; k-- {
		e := b.dict[k]
		if string(b.bytes(e.root)) == string(root) && string(b.bytes(e.src)) == string(src) {
			return k
		}
	}
	return -1
}

// pairOf returns the index of b's dictionary entry for (root, src), adding
// one — its bytes appended to b's own arena — when findPair finds none.
func pairOf[S string | []byte](b *Block, root, src S) uint32 {
	if k := findPair(b, root, src); k >= 0 {
		return uint32(k)
	}
	b.dict = append(b.dict, pairSpans{root: appendJoined(b, root, ""), src: appendJoined(b, src, "")})
	return uint32(len(b.dict) - 1)
}

// pairFrom returns the index of b's entry for src's entry k, adding one.
func (b *Block) pairFrom(src *Block, k uint32) uint32 {
	e := src.dict[k]
	return pairOf(b, src.bytes(e.root), src.bytes(e.src))
}

// pairLen is the length of entry k's two strings.
func (b *Block) pairLen(k uint32) int {
	e := b.dict[k]
	return e.root.len() + e.src.len()
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
func (b *Block) Op(i int) Op { return b.rows[i].op }

// Cookie returns event i's rename-correlation cookie.
func (b *Block) Cookie(i int) uint32 { return b.rows[i].cookie }

// Seq returns event i's store sequence number.
func (b *Block) Seq(i int) uint64 {
	if b.seqStride != 0 {
		return b.seqFirst + uint64(i)*uint64(b.seqStride)
	}
	return b.seqs[i]
}

// SeqStride returns a seq run's stride, 0 for a block with a seq column.
func (b *Block) SeqStride() uint64 { return uint64(b.seqStride) }

// TimeNano returns event i's record time in unix nanoseconds.
func (b *Block) TimeNano(i int) int64 { return b.times[i] }

// Root returns event i's watch root.
func (b *Block) Root(i int) string { return b.str(b.dict[b.rows[i].pair].root) }

// Path returns event i's subject path.
func (b *Block) Path(i int) string { return b.str(b.rows[i].path()) }

// OldPath returns event i's pre-rename path ("" when not a tracked move).
func (b *Block) OldPath(i int) string { return b.str(b.rows[i].old(b.gap)) }

// Source returns event i's producing DSI name.
func (b *Block) Source(i int) string { return b.str(b.dict[b.rows[i].pair].src) }

// PathBytes returns event i's subject path as raw arena bytes — the
// allocation-free view partition routing hashes.
func (b *Block) PathBytes(i int) []byte { return b.bytes(b.rows[i].path()) }

// SetSeq assigns event i's sequence number (the store's job). The cached
// wire image stays valid — Wire patches the seq fields in place of a full
// re-encode.
func (b *Block) SetSeq(i int, seq uint64) {
	if b.seqStride != 0 {
		panic("events: Block.SetSeq on a seq run")
	}
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
		Op:      b.rows[i].op,
		Path:    b.Path(i),
		OldPath: b.OldPath(i),
		Cookie:  b.rows[i].cookie,
		Time:    time.Unix(0, b.times[i]),
		Seq:     b.Seq(i),
		Source:  b.Source(i),
	}
}

// AppendEventsTo materializes every event onto dst and returns the
// extended slice. With an interned arena this allocates only dst growth:
// all strings are substrings of the single interned copy.
func (b *Block) AppendEventsTo(dst []Event) []Event {
	return b.AppendRangeTo(dst, 0, len(b.rows))
}

// AppendRangeTo materializes events [lo, hi) onto dst and returns the
// extended slice. Strings are substrings of the interned copy when there
// is one; otherwise they share one string copy of exactly the range's
// string bytes (appendPage) — a page read costs what the page holds, and
// the block retains no second copy of its arena.
func (b *Block) AppendRangeTo(dst []Event, lo, hi int) []Event {
	if lo >= hi {
		return dst
	}
	return b.appendPage(dst, nil, 0, hi-lo, func(k int) int { return lo + k })
}

// AppendPickedTo materializes the events at the given row indexes onto dst,
// in that order, and returns the extended slice. Their strings are
// substrings of one copy of those rows' string bytes, made in the call and
// kept by nobody but the result (an interned block's rows share the
// interned copy instead). The block is only read: concurrent readers of one
// frozen block may each call it, and what they get holds nothing of the
// block's memory — nor of the payload a decoded block's arena is on loan
// from. This is how a reader that keeps events past its Message.Done takes
// them out.
func (b *Block) AppendPickedTo(dst []Event, rows []int) []Event {
	if len(rows) == 0 {
		return dst
	}
	return b.appendPage(dst, nil, 0, len(rows), func(k int) int { return rows[k] })
}

// A PathArena is append-only memory that AppendPickedArena cuts pages'
// strings from, so that consecutive pages share one allocation. A byte in
// it is written once: the strings cut from it stay valid for as long as
// anything holds them, and a retained one keeps its whole arena alive, not
// just its page. The zero value is an empty arena.
type PathArena struct{ buf []byte }

// AppendPickedArena is AppendPickedTo with the page written to the end of
// arena instead of an allocation of its own. A page that does not fit in
// what is left starts a new arena of max(grow, page) bytes; the strings
// earlier calls returned keep the old one.
func (b *Block) AppendPickedArena(dst []Event, rows []int, arena *PathArena, grow int) []Event {
	if len(rows) == 0 {
		return dst
	}
	return b.appendPage(dst, arena, grow, len(rows), func(k int) int { return rows[k] })
}

// appendPage materializes rows row(0), ..., row(n-1) onto dst, their
// strings cut from one page: first each dictionary entry the rows name, its
// root and source once for the page, then the rows' own strings. A packed
// block's rows are the one arena range they span; any other arena (a
// received payload) also holds each row's wire framing and its repeated
// root and source, so its rows' paths are gathered one by one. Either way
// the page is exactly what the events hold, written to the end of arena
// (AppendPickedArena) or, when arena is nil, one allocation of its own.
func (b *Block) appendPage(dst []Event, arena *PathArena, grow, n int, row func(k int) int) []Event {
	if b.interned != "" {
		for k := 0; k < n; k++ {
			dst = append(dst, b.Event(row(k))) // substrings of the interned copy
		}
		return dst
	}
	// The entries the rows name lie in [first, last]. Rows are read in
	// place: a copy of a 20-byte row is read back across two stores.
	gap := b.gap
	first, last := b.rows[row(0)].pair, b.rows[row(0)].pair
	lo, hi, size := b.rows[row(0)].off, b.rows[row(0)].old(gap).end, 0
	for k := 0; k < n; k++ {
		fs := &b.rows[row(k)]
		first, last = min(first, fs.pair), max(last, fs.pair)
		lo, hi = min(lo, fs.off), max(hi, fs.old(gap).end)
		size += fs.strLen()
	}
	if b.packed {
		size = int(hi - lo)
	}
	// at[j] is entry first+j's offset in the page; 0 while no row names it.
	var inline [64]uint32
	at := slices.Grow(inline[:0], int(last-first)+1)[:last-first+1]
	for k := 0; k < n; k++ {
		if p := b.rows[row(k)].pair; at[p-first] == 0 {
			at[p-first] = 1
			size += b.pairLen(p)
		}
	}
	// The page is appended to a local copy of the arena's slice, stored back
	// once: a store per append to the arena itself, which lives in the heap,
	// takes a GC write barrier while the collector marks.
	var buf []byte
	if arena != nil {
		buf = arena.buf
	}
	if cap(buf)-len(buf) < size {
		buf = make([]byte, 0, max(size, grow)) // the strings already cut keep the old one
	}
	start := len(buf)
	for j := range at {
		if at[j] != 0 {
			e := b.dict[first+uint32(j)]
			at[j] = uint32(len(buf) - start)
			buf = append(buf, b.bytes(e.root)...)
			buf = append(buf, b.bytes(e.src)...)
		}
	}
	off := len(buf) - start
	if b.packed {
		buf = append(buf, b.arena[lo:hi]...)
	} else {
		for k := 0; k < n; k++ {
			fs := &b.rows[row(k)]
			buf = append(buf, b.bytes(fs.path())...)
			buf = append(buf, b.bytes(fs.old(gap))...)
		}
	}
	if arena != nil {
		arena.buf = buf
	}
	// Nothing writes these bytes again (PathArena).
	page := unsafe.String(unsafe.SliceData(buf[start:]), len(buf)-start)
	// page[x-base] is arena[x] for a packed block; the subtraction may wrap.
	base := lo - uint32(off)
	for k := 0; k < n; k++ {
		i := row(k)
		fs := &b.rows[i]
		e, from := b.dict[fs.pair], at[fs.pair-first]
		mid := from + uint32(e.root.len())
		ev := Event{Root: page[from:mid], Op: fs.op, Cookie: fs.cookie, Time: time.Unix(0, b.times[i]), Seq: b.Seq(i),
			Source: page[mid : mid+uint32(e.src.len())]}
		if b.packed { // gap 0: the old path follows the path
			from := fs.off - base
			ev.Path, ev.OldPath = page[from:from+uint32(fs.pathLen)], page[from+uint32(fs.pathLen):from+uint32(fs.strLen())]
		} else {
			ev.Path, ev.OldPath = page[off:off+int(fs.pathLen)], page[off+int(fs.pathLen):off+fs.strLen()]
			off += fs.strLen()
		}
		dst = append(dst, ev)
	}
	return dst
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
	fs := &b.rows[i]
	e := b.dict[fs.pair]
	mix(e.root)
	mix(fs.path())
	mix(fs.old(b.gap))
	mix(e.src)
	for _, v := range [...]uint64{uint64(b.rows[i].op), uint64(b.rows[i].cookie), uint64(b.times[i])} {
		for j := 0; j < 8; j++ {
			h ^= (v >> (8 * j)) & 0xff
			h *= prime64
		}
	}
	return h
}

// AppendFrom appends event i of src to b. When b is empty (or already
// aliased to src's arena) the string bytes are shared, not copied: b is a
// view over src's arena, which must outlive it, and since a lease names one
// parent, a view cannot be published on lease. A block with its own arena
// copies the bytes instead. The pipeline's one split, the collector's,
// copies whole rows with AppendRowsFrom; the view mode is for readers that
// regroup a batch they hold (the benchmark's traced pass).
func (b *Block) AppendFrom(src *Block, i int) {
	if b.sharedCols {
		panic("events: Block.AppendFrom into a seq-only clone")
	}
	b.takeSeqs(src, i, i+1)
	if len(b.rows) == 0 && len(b.arena) == 0 {
		// Adopt src's arena and dictionary wholesale: spans and pairs stay valid.
		b.arena = src.arena
		b.dict = append(b.dict[:0], src.dict...)
		b.ownArena = false
		b.packed = false
		b.gap = src.gap
		b.interned = src.interned
	}
	if b.aliases(src.arena) {
		b.rows = append(b.rows, src.rows[i])
	} else {
		if !b.ownArena {
			// Aliased to a different arena: views are built over exactly
			// one source block, so this is a misuse, not a data shape.
			panic("events: Block.AppendFrom across different source arenas")
		}
		s := src.rows[i]
		s.pair = b.pairFrom(src, s.pair) // the entry's bytes go in before the row's
		path, old := src.bytes(s.path()), src.bytes(s.old(src.gap))
		s.off = uint32(len(b.arena))
		b.arena = append(append(b.arena, path...), old...)
		b.rows = append(b.rows, s)
		b.interned = ""
	}
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

// AppendRowsFrom is AppendBlock for rows [lo, hi) of src. src's dictionary
// entries map onto b's, added where b has none; of a packed source with
// one entry it copies the one byte range those rows' own strings occupy.
func (b *Block) AppendRowsFrom(src *Block, lo, hi int) {
	if !b.ownArena {
		panic("events: Block.AppendBlock into a decoded or cloned block")
	}
	if lo >= hi {
		return
	}
	b.takeSeqs(src, lo, hi)
	first := len(b.rows)
	b.times = append(b.times, src.times[lo:hi]...)
	b.rows = append(b.rows, src.rows[lo:hi]...)
	rows := b.rows[first:]
	if src.packed && len(src.dict) == 1 {
		// The entry goes in before the rows, which then need no lookup.
		pair := b.pairFrom(src, 0)
		from := src.rows[lo].off
		// The shift may be negative; uint32 arithmetic wraps it right.
		shift := uint32(len(b.arena)) - from
		b.arena = append(b.arena, src.arena[from:src.rows[hi-1].old(src.gap).end]...)
		for i := range rows {
			rows[i].off += shift
			rows[i].pair = pair
		}
	} else {
		from, pair := ^uint32(0), uint32(0)
		for i := range rows {
			fs := &rows[i]
			if fs.pair != from { // rows mostly name the entry the row before did
				from, pair = fs.pair, b.pairFrom(src, fs.pair)
			}
			path, old := src.bytes(fs.path()), src.bytes(fs.old(src.gap))
			fs.off, fs.pair = uint32(len(b.arena)), pair
			b.arena = append(append(b.arena, path...), old...)
		}
	}
	b.interned = ""
	b.invalidateWire()
}

// takeSeqs appends the seqs of src's rows [lo, hi) to b's column or, in a
// seq run, checks that they carry the run on, which they must; it runs
// before the rows are appended.
func (b *Block) takeSeqs(src *Block, lo, hi int) {
	switch {
	case b.seqStride == 0 && src.seqStride == 0:
		b.seqs = append(b.seqs, src.seqs[lo:hi]...)
		return
	case b.seqStride == 0:
		b.seqs = slices.Grow(b.seqs, hi-lo)
		for seq := src.Seq(lo); lo < hi; lo++ {
			b.seqs = append(b.seqs, seq)
			seq += uint64(src.seqStride)
		}
		return
	case len(b.rows) == 0:
		b.seqFirst = src.Seq(lo)
	}
	next := b.Seq(len(b.rows))
	for i := lo; i < hi; i++ {
		if src.Seq(i) != next {
			panic(fmt.Sprintf("events: row with seq %d appended to a seq run at %d", src.Seq(i), next))
		}
		next += uint64(b.seqStride)
	}
}

// StringBytes returns the number of string bytes rows [lo, hi) hold, each
// dictionary entry they name counted once per run of rows naming it (in a
// packed block's whole arena, once): what AppendRowsFrom copies of them
// into an empty block's arena, or more.
func (b *Block) StringBytes(lo, hi int) int {
	switch {
	case lo >= hi:
		return 0
	case b.packed && lo == 0 && hi == len(b.rows):
		return len(b.arena)
	case b.packed && len(b.dict) == 1:
		return int(b.rows[hi-1].old(b.gap).end-b.rows[lo].off) + b.pairLen(0)
	}
	n, run := 0, ^uint32(0)
	for i := lo; i < hi; i++ {
		r := &b.rows[i]
		n += r.strLen()
		if r.pair != run {
			run = r.pair
			n += b.pairLen(run)
		}
	}
	return n
}

// PairBytes returns the string bytes of the block's dictionary: each
// (root, source) entry once. StringBytes counts them too; appended to a block
// that holds them already, they are not copied again.
func (b *Block) PairBytes() int {
	n := 0
	for k := range b.dict {
		n += b.pairLen(uint32(k))
	}
	return n
}

// Cap returns how many rows the block's columns and how many string bytes
// its arena hold before either grows.
func (b *Block) Cap() (rows, bytes int) { return cap(b.rows), cap(b.arena) }

// CloneFrom makes b a seq-mutable clone of a frozen src: only the seq
// column is copied (so SetSeq and clone+patch re-encoding work without
// touching src); every other column, the seq positions, the arena, the
// interned string and the cached wire image are shared read-only. The
// trace is deep-copied — the clone's owner appends spans to it. b must be
// empty (freshly built or Reset); whatever column capacity it owned is
// let go.
func (b *Block) CloneFrom(src *Block) {
	if src.seqStride != 0 || b.seqStride != 0 {
		panic("events: Block.CloneFrom of or into a seq run")
	}
	b.rows, b.times, b.dict, b.seqPos = src.rows, src.times, src.dict, src.seqPos
	b.sharedCols = true
	b.seqs = append(b.seqs[:0], src.seqs...)
	b.arena = src.arena
	b.ownArena = false
	b.packed, b.gap = src.packed, src.gap
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
	header := uint32(len(b.rows))
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
	return b.appendRows(buf, 0, len(b.rows), seqPos)
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
	gap := b.gap
	for i := lo; i < hi; i++ {
		r := &b.rows[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.op))
		buf = binary.LittleEndian.AppendUint32(buf, r.cookie)
		if seqPos != nil {
			*seqPos = append(*seqPos, len(buf))
		}
		buf = binary.LittleEndian.AppendUint64(buf, b.Seq(i))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.times[i]))
		e := b.dict[r.pair]
		for _, sp := range [...]strSpan{e.root, r.path(), r.old(gap)} {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sp.len()))
			buf = append(buf, b.bytes(sp)...)
		}
		buf = append(buf, byte(e.src.len()))
		buf = append(buf, b.bytes(e.src)...)
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
	if b.seqStride != 0 {
		panic("events: Block.Wire of a seq run")
	}
	if len(b.wire) >= 4 { // any encoded batch carries at least its header

		if !b.seqDirty {
			return b.wire
		}
		if len(b.seqPos) == len(b.rows) {
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
	if cap(b.seqPos) < len(b.rows) {
		b.seqPos = make([]int, 0, len(b.rows))
	}
	b.wireBuf = b.EncodeTo(buf, &b.seqPos)
	b.wire = b.wireBuf
	b.seqDirty = false
	return b.wire
}

// encodedLen is the exact length of EncodeTo's output.
func (b *Block) encodedLen() int {
	n := 4 + len(b.rows)*minEntry
	if b.stamp != 0 {
		n += 8
	}
	if tr := b.trace; tr != nil {
		n += 8 + 1
		for _, sp := range tr.Spans {
			n += 1 + 8 + 1 + min(len(sp.Node), maxNode)
		}
	}
	for i := range b.rows {
		n += b.rows[i].strLen() + b.pairLen(b.rows[i].pair)
	}
	return n
}

// minEntry is the smallest wire entry: the 24-byte fixed header, three
// empty u16-prefixed strings and an empty u8-prefixed source.
const minEntry = 24 + 3*2 + 1

// Grow makes room for rows more rows and bytes more string bytes, so that
// appending that much allocates nothing. What it allocates takes the whole
// size class it is rounded up to. b must own its columns and arena (built or
// Reset, not decoded or cloned).
func (b *Block) Grow(rows, bytes int) {
	b.rows = slices.Grow(b.rows, rows)
	if b.seqStride == 0 {
		b.seqs = slices.Grow(b.seqs, rows)
	}
	b.times = slices.Grow(b.times, rows)
	b.arena = slices.Grow(b.arena, bytes)
}

// DecodeBlock decodes a wire batch into a fresh Block. See DecodeBlockInto.
func DecodeBlock(payload []byte) (*Block, error) {
	b := &Block{ownArena: true}
	b.dict = b.dict0[:0]
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
	if b.seqStride != 0 {
		return fmt.Errorf("events: decode into a seq run")
	}
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
	// Every entry takes at least minEntry bytes, so a count the payload
	// cannot hold fails here, before it sizes anything.
	if int(n) > (len(payload)-pos)/minEntry {
		return fmt.Errorf("events: batch of %d entries in %d bytes: short buffer", n, len(payload)-pos)
	}
	b.Grow(int(n), 0)
	b.seqPos = slices.Grow(b.seqPos, int(n))
	rows, seqs, times, seqPos := b.rows[:n], b.seqs[:n], b.times[:n], b.seqPos[:n]
	// The dictionary's spans are compared over the payload as they are read.
	b.arena, b.ownArena, b.packed, b.gap = payload, false, false, 2
	var lastRoot, lastSrc []byte // the last entry a row named
	k := -1
	for i := range rows {
		// The fixed fields and the root's length; then each string's end,
		// checked with the length prefix of the field after it.
		if len(payload)-pos < 24+2 {
			return fmt.Errorf("events: batch entry %d: short buffer (%d bytes) decoding header", i, len(payload)-pos)
		}
		op, cookie := Op(binary.LittleEndian.Uint32(payload[pos:])), binary.LittleEndian.Uint32(payload[pos+4:])
		seqPos[i] = pos + 8
		seqs[i] = binary.LittleEndian.Uint64(payload[pos+8:])
		times[i] = int64(binary.LittleEndian.Uint64(payload[pos+16:]))
		root := pos + 24 + 2
		rootEnd := root + int(binary.LittleEndian.Uint16(payload[pos+24:]))
		if len(payload)-rootEnd < 2 {
			return fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		path := rootEnd + 2
		pathEnd := path + int(binary.LittleEndian.Uint16(payload[rootEnd:]))
		if len(payload)-pathEnd < 2 {
			return fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		old := pathEnd + 2 // the gap: the old path's length prefix
		oldEnd := old + int(binary.LittleEndian.Uint16(payload[pathEnd:]))
		if len(payload)-oldEnd < 1 {
			return fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		src := oldEnd + 1
		pos = src + int(payload[oldEnd])
		if pos > len(payload) {
			return fmt.Errorf("events: batch entry %d: short buffer decoding strings", i)
		}
		// A row nearly always names the entry the row before did: compare
		// against it in line before findPair looks further back.
		if k < 0 || string(payload[root:rootEnd]) != string(lastRoot) || string(payload[src:pos]) != string(lastSrc) {
			if k = findPair(b, payload[root:rootEnd], payload[src:pos]); k < 0 {
				// The entry is the row's own spans in the payload.
				b.dict = append(b.dict, pairSpans{root: strSpan{off: uint32(root), end: uint32(rootEnd)}, src: strSpan{off: uint32(src), end: uint32(pos)}})
				k = len(b.dict) - 1
			}
			lastRoot, lastSrc = b.bytes(b.dict[k].root), b.bytes(b.dict[k].src)
		}
		rows[i] = row{op: op, cookie: cookie, pair: uint32(k), off: uint32(path), pathLen: uint16(pathEnd - path), oldLen: uint16(oldEnd - old)}
	}
	b.rows, b.seqs, b.times, b.seqPos = rows, seqs, times, seqPos
	if pos != len(payload) {
		return fmt.Errorf("events: %d trailing bytes after batch", len(payload)-pos)
	}
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
