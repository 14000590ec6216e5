package eventstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"fsmonitor/internal/events"
)

// The journal file, little-endian (DESIGN.md §3h has the damage policy):
//
//	file   = magic | record*        magic: 7 bytes of name, 1 of format version
//	record = u32 len | u32 crc | u8 kind | body
//	         len counts kind‖body, crc is the CRC-32C of exactly those bytes
//	'E' body = one wire batch (events/codec.go; no stamp, no trace): what one
//	         Append or AppendBlock stored; 'R' body = u64 seq reported through
//
// A reader skips kinds it does not know.
const (
	journalMagic = "FSMJRNL\x01"
	recHeader    = 8 // u32 len | u32 crc, in front of kind‖body
	kindEvents   = 'E'
	kindReported = 'R'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotJournal refuses a non-empty file without the magic — a JSONL journal
// from before this format, or anything else. It is never modified.
var ErrNotJournal = errors.New("not an event journal")

// newRecord starts a record of the given kind in buf's memory; the caller
// appends the body and hands the result to sealRecord (journalWriter.write).
func newRecord(buf []byte, kind byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// sealRecord fills in the length and checksum of a record begun by newRecord.
func sealRecord(rec []byte) []byte {
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recHeader))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[recHeader:], castagnoli))
	return rec
}

// journalWriter appends records to one journal file: a Store's live journal,
// or the file CompactJournal replaces it with. Once a write fails, the
// bufio.Writer accepts nothing more and Flush keeps returning that error.
type journalWriter struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte // the record being encoded, reused: a batch reaches w as one Write
}

// openJournalWriter opens the journal at path for appending. A file that
// holds anything but a journal is refused untouched; an empty one (or the torn
// magic of a writer that died creating it) gets the magic first.
func openJournalWriter(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eventstore: open journal: %w", err)
	}
	j := &journalWriter{f: f, w: bufio.NewWriter(f)}
	var head [len(journalMagic)]byte
	n, err := f.ReadAt(head[:], 0)
	switch {
	case err != nil && err != io.EOF:
	case string(head[:n]) != journalMagic[:n]:
		err = ErrNotJournal
	case n < len(head):
		if err = f.Truncate(0); err == nil {
			_, err = j.w.WriteString(journalMagic)
		}
	default:
		err = nil
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("eventstore: journal %s: %w", path, err)
	}
	return j, nil
}

// write seals a record begun with newRecord(j.buf, kind) and hands it to the
// file buffer in one Write — the only way into a journal.
func (j *journalWriter) write(rec []byte) error {
	j.buf = rec[:0]
	_, err := j.w.Write(sealRecord(rec))
	return err
}

// recordAt returns kind‖body of the record at the front of b — nil when b
// ends before the record does — and whether it passes its checksum.
func recordAt(b []byte) (rec []byte, ok bool) {
	if len(b) <= recHeader {
		return nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n == 0 || n > uint64(len(b)-recHeader) {
		return nil, false
	}
	rec = b[recHeader : recHeader+n]
	return rec, crc32.Checksum(rec, castagnoli) == binary.LittleEndian.Uint32(b[4:])
}

// lenDamaged reports whether the record at the front of b is whole but for
// its length field — the one part the checksum does not cover — and has more
// behind it: whether kind‖body, as long as the body itself says it is
// (events.BatchLen), passes the checksum and stops short of the end of b. That
// tells a flipped length in mid-file from the torn tail it would look like.
func lenDamaged(b []byte) bool {
	if len(b) <= recHeader {
		return false
	}
	var n int
	switch b[recHeader] {
	case kindReported:
		n = 1 + 8
	case kindEvents:
		m, ok := events.BatchLen(b[recHeader+1:])
		if !ok {
			return false
		}
		n = 1 + m
	default:
		return false
	}
	return n < len(b)-recHeader && crc32.Checksum(b[recHeader:recHeader+n], castagnoli) == binary.LittleEndian.Uint32(b[4:])
}

// ReadJournal reads the journal at path in one read of the file. It is the
// only parser of the format: Open, fsmon -dump-journal and the fuzzer sit on
// it. fn sees each 'E' record as a decoded block (aliasing the file's bytes)
// and each 'R' record as a nil blk with the seq reported through; an error
// from fn ends the read and comes back with the record's offset. A last
// record that runs past the end of the file, or fails its checksum and ends
// at it, is the torn tail and its offset is returned (-1: file is whole); a
// record that fails its checksum earlier, or whose length field alone is
// damaged, is an error naming its offset.
func ReadJournal(path string, fn func(blk *events.Block, reported uint64) error) (torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return -1, err
	}
	switch n := min(len(data), len(journalMagic)); {
	case string(data[:n]) != journalMagic[:n]:
		return -1, fmt.Errorf("eventstore: journal %s: %w", path, ErrNotJournal)
	case n < len(journalMagic):
		return -1, nil // empty, or the torn magic of a writer that died creating the file
	}
	blk := events.NewBlock(0, 0)
	for off := len(journalMagic); off < len(data); {
		rec, ok := recordAt(data[off:])
		if !ok {
			// A writer that died leaves a last record that stops at the end
			// of the file or would run past it; other damage is corruption.
			if end := off + recHeader + len(rec); rec != nil && end < len(data) || lenDamaged(data[off:]) {
				return -1, fmt.Errorf("eventstore: journal %s: record at byte offset %d fails its checksum and is not a torn tail", path, off)
			}
			return int64(off), nil
		}
		switch kind, body := rec[0], rec[1:]; {
		case kind == kindEvents:
			if err = events.DecodeBlockInto(blk, body); err == nil {
				err = fn(blk, 0)
			}
		case kind == kindReported && len(body) == 8:
			err = fn(nil, binary.LittleEndian.Uint64(body))
		case kind == kindReported:
			err = fmt.Errorf("reported record of %d bytes", len(body))
		}
		if err != nil {
			return -1, fmt.Errorf("eventstore: journal %s: record at byte offset %d: %w", path, off, err)
		}
		off += recHeader + len(rec)
	}
	return -1, nil
}
