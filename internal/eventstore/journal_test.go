package eventstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/telemetry"
)

// journalEvents reads every event a journal file holds, in file order.
func journalEvents(t testing.TB, path string) []events.Event {
	t.Helper()
	var evs []events.Event
	torn, err := ReadJournal(path, func(blk *events.Block, _ uint64) error {
		if blk != nil {
			evs = blk.AppendEventsTo(evs)
		}
		return nil
	})
	if err != nil || torn >= 0 {
		t.Fatalf("ReadJournal(%s): torn at %d, err %v", path, torn, err)
	}
	return evs
}

// batchJournal writes batches blocks of per events each, then one reported
// mark, through a store, and returns the journal path with the byte offset
// of every record in it (the last entry is the file size).
func batchJournal(t testing.TB, batches, per int) (path string, offs []int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "journal")
	s, err := New(Options{JournalPath: path, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		n, err := osStatSize(path)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	offs = append(offs, int64(len(journalMagic)))
	for b := 0; b < batches; b++ {
		if _, err := s.AppendBlock(pipelineBlock(t, per, b*per)); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, size())
	}
	if err := s.MarkReported(uint64(per)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, append(offs, size())
}

// quietLogs discards the default logger's output for the rest of the test:
// the sweeps below recover thousands of torn tails.
func quietLogs(t testing.TB) {
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
}

// copyWith writes data, changed by edit, to a fresh file and returns its path.
func copyWith(t testing.TB, data []byte, edit func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, edit(bytes.Clone(data)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The format is pinned: two AppendBlocks and one MarkReported produce
// exactly these bytes, from a Store and from a one-shard engine alike.
func TestJournalGoldenBytes(t *testing.T) {
	const golden = "" +
		"46534d4a524e4c01" + // magic "FSMJRNL", version 1
		// 'E' record: len 0x5b, CRC-32C, kind, then u32 count = 2 and two events
		"5b000000" + "97b5cf1f" + "45" + "02000000" +
		"00010000" + "00000000" + "0100000000000000" + "e803000000000000" + "0400" + "2f6d6e74" + "0200" + "2f61" + "0000" + "04" + "6d647430" +
		"80000000" + "07000000" + "0200000000000000" + "e903000000000000" + "0400" + "2f6d6e74" + "0200" + "2f62" + "0400" + "2f6f6c64" + "04" + "6d647430" +
		// 'E' record: one event, seq 3
		"2e000000" + "67ad491d" + "45" + "01000000" +
		"00020000" + "00000000" + "0300000000000000" + "ea03000000000000" + "0400" + "2f6d6e74" + "0200" + "2f63" + "0000" + "04" + "6d647430" +
		// 'R' record: reported through seq 2
		"09000000" + "dee2c560" + "52" + "0200000000000000"
	ev := func(op events.Op, path string, ns int64) events.Event {
		return events.Event{Root: "/mnt", Op: op, Path: path, Time: time.Unix(0, ns), Source: "mdt0"}
	}
	moved := ev(events.OpMovedTo, "/b", 1001)
	moved.OldPath, moved.Cookie = "/old", 7
	first := []events.Event{ev(events.OpCreate, "/a", 1000), moved}
	second := []events.Event{ev(events.OpDelete, "/c", 1002)}

	dir := t.TempDir()
	plain, sharded := filepath.Join(dir, "plain"), filepath.Join(dir, "sharded")
	st, err := New(Options{JournalPath: plain})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(1, Options{JournalPath: sharded})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]events.Event{first, second} {
		if _, err := st.AppendBlock(blockOf(t, batch)); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.AppendBlockPartition(0, blockOf(t, batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(st.MarkReported(2), sh.MarkReported(2), st.Close(), sh.Close()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, sharded} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != golden {
			t.Errorf("%s journal bytes\n got %s\nwant %s", filepath.Base(path), got, golden)
		}
	}
}

// A crash can cut the last record anywhere. Whatever the offset, Open keeps
// the records before it, an append after the recovery lands on a record
// boundary, and the restart after that reads both. Small records are cut at
// every byte; the pipeline's block sizes at both ends and at a stride between.
func TestOpenRecoversTornTailAtEveryOffset(t *testing.T) {
	quietLogs(t)
	const batches, more = 3, 4
	for _, per := range []int{5, 512, 1024} {
		path, offs := batchJournal(t, batches, per)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = data[:offs[batches]] // drop the reported mark: the last record is a batch
		lo, hi := offs[batches-1], offs[batches]
		for cut := lo; cut < hi; cut++ {
			if cut-lo > 64 && hi-cut > 64 && (cut-lo)%257 != 0 {
				continue
			}
			jp := copyWith(t, data, func(b []byte) []byte { return b[:cut] })
			s, err := Open(Options{JournalPath: jp})
			if err != nil {
				t.Fatalf("%d-event records cut at %d: Open over a torn tail: %v", per, cut, err)
			}
			kept := (batches - 1) * per
			if got, err := s.Since(0, 0); err != nil || len(got) != kept || got[kept-1].Seq != uint64(kept) {
				t.Fatalf("%d-event records cut at %d: recovered %d events (err %v), want the %d before the tear", per, cut, len(got), err, kept)
			}
			if _, err := s.AppendBlock(pipelineBlock(t, more, 0)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(Options{JournalPath: jp}); err != nil {
				t.Fatalf("%d-event records cut at %d: second Open, after appending past the torn tail: %v", per, cut, err)
			}
			got, err := s.Since(0, 0)
			if err != nil || len(got) != kept+more || got[len(got)-1].Seq != uint64(kept+more) {
				t.Fatalf("%d-event records cut at %d: second Open recovered %d events (err %v), want %d", per, cut, len(got), err, kept+more)
			}
			if st := s.Stats(); st.Appended != uint64(kept+more) {
				t.Fatalf("%d-event records cut at %d: Stats.Appended = %d after reload, want %d", per, cut, st.Appended, kept+more)
			}
			s.Close()
		}
	}
}

// A writer that died creating the file leaves nothing, or a prefix of the
// magic: either way an empty journal, which the next store completes.
func TestOpenOverTornMagic(t *testing.T) {
	for _, mk := range []func(Options) (*Store, error){Open, New} {
		for cut := 0; cut < len(journalMagic); cut++ {
			jp := copyWith(t, []byte(journalMagic), func(b []byte) []byte { return b[:cut] })
			s, err := mk(Options{JournalPath: jp})
			if err != nil {
				t.Fatalf("%d bytes of magic: %v", cut, err)
			}
			if _, err := s.AppendBlock(blockOf(t, sampleEvents(3))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := journalEvents(t, jp); len(got) != 3 {
				t.Fatalf("%d bytes of magic: journal holds %d events after an append, want 3", cut, len(got))
			}
		}
	}
}

// Any byte of an interior record flipped — length, checksum, kind or body —
// fails the open naming that record's offset and leaves the file alone; the
// same flip in the last record is a torn tail, recovered minus that record —
// or, where it shortens the length field so that the record no longer ends
// with the file (which no crash does), refused like the others. No flip ever
// loads an altered event.
func TestOpenDetectsEveryFlippedByte(t *testing.T) {
	quietLogs(t)
	const batches, per = 3, 4
	path, offs := batchJournal(t, batches, per)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := journalEvents(t, path)
	for rec := 0; rec <= batches; rec++ { // the last one is the reported mark
		for at := offs[rec]; at < offs[rec+1]; at++ {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				jp := copyWith(t, data, func(b []byte) []byte { b[at] ^= mask; return b })
				s, err := Open(Options{JournalPath: jp})
				if rec < batches || err != nil && at < offs[rec]+4 {
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d ", offs[rec])) {
						t.Fatalf("byte %d ^ %#x (record at %d): Open = %v, want an error naming the record's offset", at, mask, offs[rec], err)
					}
					if after, _ := os.ReadFile(jp); len(after) != len(data) {
						t.Fatalf("byte %d ^ %#x: refused journal was cut from %d to %d bytes", at, mask, len(data), len(after))
					}
					continue
				}
				if err != nil {
					t.Fatalf("byte %d ^ %#x in the last record: Open = %v, want a torn tail", at, mask, err)
				}
				got, _ := s.Since(0, 0)
				sameEvents(t, fmt.Sprintf("byte %d ^ %#x in the last record", at, mask), got, want)
				if st := s.Stats(); st.Reported != 0 {
					t.Fatalf("byte %d ^ %#x: the damaged reported mark was applied: %+v", at, mask, st)
				}
				s.Close()
				if n, _ := osStatSize(jp); n != offs[batches] {
					t.Fatalf("byte %d ^ %#x: journal is %d bytes after the recovery, want the torn record cut off at %d", at, mask, n, offs[batches])
				}
			}
		}
	}
}

// The length field is the one part of a record its checksum does not cover.
// Any bit of it flipped in an interior record of pipeline size — pointing
// short, into a later record, or past the end of the file like a torn tail —
// fails the open at that record instead of cutting the journal there.
func TestOpenDetectsFlippedLengthBits(t *testing.T) {
	path, offs := batchJournal(t, 3, 512)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for rec := 0; rec < 2; rec++ {
		for bit := 0; bit < 32; bit++ {
			jp := copyWith(t, data, func(b []byte) []byte { b[int(offs[rec])+bit/8] ^= 1 << (bit % 8); return b })
			_, err := Open(Options{JournalPath: jp})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d ", offs[rec])) {
				t.Fatalf("length bit %d of the record at %d flipped: Open = %v, want an error naming the record's offset", bit, offs[rec], err)
			}
			if n, _ := osStatSize(jp); n != int64(len(data)) {
				t.Fatalf("length bit %d of the record at %d flipped: refused journal was cut from %d to %d bytes", bit, offs[rec], len(data), n)
			}
		}
	}
}

// A damaged segment fails the whole engine's open, naming file and offset.
func TestOpenShardedRejectsInteriorDamage(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal")
	eng, err := NewSharded(2, Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for part := 0; part < 2; part++ {
			if _, err := eng.AppendBlockPartition(part, blockOf(t, sampleEvents(5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jp + ".p1")
	if err != nil {
		t.Fatal(err)
	}
	data[len(journalMagic)+recHeader+20] ^= 0x04 // inside the first record's body
	if err := os.WriteFile(jp+".p1", data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSharded(2, Options{JournalPath: jp})
	if err == nil || !strings.Contains(err.Error(), "journal.p1") || !strings.Contains(err.Error(), "byte offset 8 ") {
		t.Fatalf("OpenSharded over a damaged segment = %v, want an error naming journal.p1 and byte offset 8", err)
	}
}

// A file without the magic — a JSONL journal of an earlier version, or
// anything else — is refused by name and not touched, by Open and by New.
func TestOpenRefusesForeignFiles(t *testing.T) {
	for name, content := range map[string]string{
		"jsonl":   `{"kind":"event","ev":{"root":"/mnt","op":256,"path":"/a","t":1000,"seq":1}}` + "\n" + `{"kind":"reported","seq":1}` + "\n",
		"garbage": "\x00\x01\x02 not a journal \xff\xfe",
		"short":   "FSX",
	} {
		t.Run(name, func(t *testing.T) {
			jp := filepath.Join(t.TempDir(), "journal")
			if err := os.WriteFile(jp, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{JournalPath: jp}); !errors.Is(err, ErrNotJournal) || !strings.Contains(err.Error(), jp) {
				t.Fatalf("Open = %v, want ErrNotJournal naming the file", err)
			}
			if _, err := OpenSharded(1, Options{JournalPath: jp}); !errors.Is(err, ErrNotJournal) {
				t.Fatalf("OpenSharded = %v, want ErrNotJournal", err)
			}
			if _, err := New(Options{JournalPath: jp}); !errors.Is(err, ErrNotJournal) {
				t.Fatalf("New over the file = %v, want ErrNotJournal: it would append to it", err)
			}
			if after, err := os.ReadFile(jp); err != nil || string(after) != content {
				t.Fatalf("refused file was modified: %q (err %v)", after, err)
			}
		})
	}
}

// A record of a kind this version does not know is skipped, not fatal, and
// a journal whose seqs do not advance is refused rather than loaded into a
// window the store could not search.
func TestOpenSkipsUnknownKindsAndRejectsDisorder(t *testing.T) {
	path, offs := batchJournal(t, 2, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unknown := sealRecord(append(newRecord(nil, 'C'), "checkpoint"...))
	jp := copyWith(t, data, func(b []byte) []byte {
		return append(append(bytes.Clone(b[:offs[1]]), unknown...), b[offs[1]:]...)
	})
	s, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatalf("Open over an unknown record kind: %v", err)
	}
	if n := s.Len(); n != 6 {
		t.Fatalf("recovered %d events, want 6", n)
	}
	s.Close()

	jp = copyWith(t, data, func(b []byte) []byte { // the first batch again, after the second
		return append(bytes.Clone(b[:offs[2]]), b[offs[0]:offs[1]]...)
	})
	if _, err := Open(Options{JournalPath: jp}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d:", offs[2])) {
		t.Fatalf("Open over a repeated batch = %v, want an error naming byte offset %d", err, offs[2])
	}
}

// An event too large for a block row is refused by Append before it is
// stored or journaled.
func TestOversizeEventIsRejectedByName(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	big := events.Event{Root: "/mnt", Op: events.OpCreate, Path: strings.Repeat("p", 1<<16), Time: time.Unix(0, 1)}
	if _, err := s.Append(big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Append of a 64 KB path = %v, want the size error", err)
	}
	if st := s.Stats(); st.Retained != 0 || st.Appended != 0 || st.NextSeq != 1 {
		t.Fatalf("rejected event left a mark: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalEvents(t, jp); len(got) != 0 {
		t.Fatalf("rejected event reached the journal: %+v", got)
	}
}

// A failing journal is not silent: the first write or flush error is kept,
// counted once, and returned by Sync, CompactJournal and Close, while
// appends go on succeeding in memory.
func TestJournalWriteErrorIsLatched(t *testing.T) {
	quietLogs(t)
	reg := telemetry.NewRegistry()
	s, err := New(Options{JournalPath: filepath.Join(t.TempDir(), "journal"), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTelemetry(reg, "store")
	if _, err := s.Append(mkEvent("/before", 1)); err != nil {
		t.Fatal(err)
	}
	s.jw.f.Close() // the disk goes away under the store
	for i := 0; i < 3; i++ {
		if _, err := s.AppendBlock(blockOf(t, sampleEvents(4))); err != nil {
			t.Fatalf("AppendBlock with a failing journal = %v, want success in memory", err)
		}
	}
	if err := s.MarkReported(2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 13 {
		t.Fatalf("Len = %d, want 13", s.Len())
	}
	for _, call := range []struct {
		name string
		fn   func() error
	}{{"Sync", s.Sync}, {"CompactJournal", s.CompactJournal}, {"Close", s.Close}} {
		if err := call.fn(); err == nil || !strings.Contains(err.Error(), s.opts.JournalPath) {
			t.Errorf("%s = %v, want the journal error naming the file", call.name, err)
		}
	}
	if got := reg.Counter("store.journal_errors").Value(); got != 1 {
		t.Errorf("journal_errors = %d, want 1", got)
	}
}

// MarkReported goes through the same write path as events: counted in
// journal_bytes and, under SyncAlways, on disk when the call returns.
func TestMarkReportedIsCountedAndFlushed(t *testing.T) {
	reg := telemetry.NewRegistry()
	jp := filepath.Join(t.TempDir(), "journal")
	s, err := New(Options{JournalPath: jp, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterTelemetry(reg, "store")
	if _, err := s.Append(mkEvent("/a", 1)); err != nil {
		t.Fatal(err)
	}
	before := reg.Counter("store.journal_bytes").Value()
	if err := s.MarkReported(1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.journal_bytes").Value() - before; got != recHeader+1+8 {
		t.Errorf("MarkReported added %d journal bytes, want %d", got, recHeader+1+8)
	}
	if got := journalLines(t, jp); got != 2 {
		t.Errorf("journal holds %d records before Close, want the event and the mark", got)
	}
}

// journalOn returns a store journaling under SyncEveryN whose tail segment
// and scratch buffer are warm.
func journalOn(t testing.TB) *Store {
	t.Helper()
	s, err := New(Options{JournalPath: filepath.Join(t.TempDir(), "journal"), Sync: SyncEveryN})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	blk := pipelineBlock(t, 512, 0)
	for i := 0; i <= segmentEvents/512; i++ {
		if _, err := s.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// Journaling a block is one encode into the store's scratch buffer and one
// Write: nothing per event, nothing per block.
func TestAppendBlockJournalOnAllocatesNothing(t *testing.T) {
	s := journalOn(t)
	blk := pipelineBlock(t, 512, 0)
	if got := testing.AllocsPerRun(4, func() { s.AppendBlock(blk) }); got != 0 {
		t.Fatalf("AppendBlock of 512 events with the journal on: %v allocs, want 0", got)
	}
}

// bigJournal writes n events in 512-event blocks and returns the journal path.
func bigJournal(t testing.TB, n int) string {
	t.Helper()
	jp := filepath.Join(t.TempDir(), "journal")
	s, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < n; at += 512 {
		if _, err := s.AppendBlock(pipelineBlock(t, min(512, n-at), at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return jp
}

// Reloading a journal allocates segments and buffers, nothing per event; and
// it streams the file through one record buffer instead of reading it
// whole, so what it allocates beyond the segments it keeps — that buffer,
// the decode block, the first segment's growth — is under half the file
// (reading the file whole, it was more than the file).
func TestOpenAllocations(t *testing.T) {
	const n = 100_000
	jp := bigJournal(t, n)
	got := testing.AllocsPerRun(2, func() {
		s, err := Open(Options{JournalPath: jp})
		if err != nil || s.Len() != n {
			t.Fatalf("Open: %v", err)
		}
		s.Close()
	})
	if perEvent := got / n; perEvent > 0.01 {
		t.Fatalf("Open of a %d-event journal: %v allocs (%.4f/event), want <= 0.01/event", n, got, perEvent)
	}

	size, err := osStatSize(jp)
	if err != nil {
		t.Fatal(err)
	}
	var before, opened, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Open(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&opened)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	transient := int64(opened.TotalAlloc-before.TotalAlloc) - (int64(kept.HeapAlloc) - int64(before.HeapAlloc))
	s.Close()
	if transient > size/2 {
		t.Fatalf("Open of a %d-byte journal allocated %d bytes it did not keep, want under half the file", size, transient)
	}
}

func BenchmarkStoreOpen(b *testing.B) {
	const n = 100_000
	jp := bigJournal(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{JournalPath: jp})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
}

// FuzzJournalReader feeds the one journal parser arbitrary bytes behind a
// valid magic: it must never panic or allocate past the input, and Open must
// either refuse the file or load a window in strict seq order.
func FuzzJournalReader(f *testing.F) {
	path, offs := batchJournal(f, 3, 4)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := valid[len(journalMagic):]
	f.Add(body)
	f.Add(body[:offs[2]-offs[0]+5])                                               // torn tail
	f.Add(append(bytes.Clone(body), body[:offs[1]-offs[0]]...))                   // a batch repeated out of order
	f.Add(append(bytes.Clone(body[:offs[1]-offs[0]]), 0xff, 0xff, 0xff, 0x7f))    // a length far past the file
	f.Add(sealRecord(append(newRecord(nil, kindEvents), 0xff, 0xff, 0xff, 0x3f))) // an intact record announcing 2^30 events
	f.Add(sealRecord(append(newRecord(nil, kindReported), 1, 2, 3)))              // a short reported mark
	f.Add([]byte{})
	quietLogs(f)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, tail []byte) {
		jp := filepath.Join(dir, "journal")
		if err := os.WriteFile(jp, append([]byte(journalMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{JournalPath: jp})
		if err != nil {
			return
		}
		defer s.Close()
		got, err := s.Since(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				t.Fatalf("event %d has seq %d after seq %d", i, got[i].Seq, got[i-1].Seq)
			}
		}
		if st := s.Stats(); st.Retained != len(got) || int(st.Appended) != len(got) {
			t.Fatalf("Stats %+v over %d loaded events", st, len(got))
		}
	})
}
