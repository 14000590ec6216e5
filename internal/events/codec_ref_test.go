package events

import (
	"encoding/binary"
	"fmt"
	"time"
)

// The reference codec: the wire layout of codec.go written event by event
// over []Event, the way the pipeline encoded batches before Block. No
// production code calls it; the golden-byte, round-trip and fuzz tests hold
// Block's encoder and decoder to it.

// MarshalAppend appends the wire encoding of e to buf and returns the
// extended buffer.
func MarshalAppend(buf []byte, e Event) ([]byte, error) {
	if len(e.Root) > maxStr || len(e.Path) > maxStr || len(e.OldPath) > maxStr {
		return nil, fmt.Errorf("events: path component exceeds %d bytes", maxStr)
	}
	if len(e.Source) > 255 {
		return nil, fmt.Errorf("events: source exceeds 255 bytes")
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Op))
	buf = binary.LittleEndian.AppendUint32(buf, e.Cookie)
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time.UnixNano()))
	for _, s := range []string{e.Root, e.Path, e.OldPath} {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, byte(len(e.Source)))
	buf = append(buf, e.Source...)
	return buf, nil
}

// Unmarshal decodes one event from the front of buf, returning the event and
// the remaining bytes.
func Unmarshal(buf []byte) (Event, []byte, error) {
	var e Event
	if len(buf) < 24 {
		return e, buf, fmt.Errorf("events: short buffer (%d bytes) decoding header", len(buf))
	}
	e.Op = Op(binary.LittleEndian.Uint32(buf))
	e.Cookie = binary.LittleEndian.Uint32(buf[4:])
	e.Seq = binary.LittleEndian.Uint64(buf[8:])
	nano := int64(binary.LittleEndian.Uint64(buf[16:]))
	e.Time = time.Unix(0, nano)
	buf = buf[24:]
	var err error
	for _, dst := range []*string{&e.Root, &e.Path, &e.OldPath} {
		*dst, buf, err = readStr16(buf)
		if err != nil {
			return e, buf, err
		}
	}
	if len(buf) < 1 {
		return e, buf, fmt.Errorf("events: short buffer decoding source")
	}
	n := int(buf[0])
	buf = buf[1:]
	if len(buf) < n {
		return e, buf, fmt.Errorf("events: short buffer decoding source body")
	}
	e.Source = string(buf[:n])
	return e, buf[n:], nil
}

func readStr16(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", buf, fmt.Errorf("events: short buffer decoding string length")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return "", buf, fmt.Errorf("events: short buffer decoding string body (want %d, have %d)", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

// MarshalBatch encodes an untraced batch of events: u32 count followed by
// each event.
func MarshalBatch(evs []Event) ([]byte, error) {
	return MarshalBatchStamped(evs, 0)
}

// MarshalBatchStamped encodes a batch with its capture stamp (unix
// nanoseconds at which the monitor first saw the batch's records; 0 means
// untraced and encodes identically to MarshalBatch).
func MarshalBatchStamped(evs []Event, stamp int64) ([]byte, error) {
	return MarshalBatchTraced(evs, stamp, nil)
}

// MarshalBatchTraced encodes a batch with its capture stamp and — when tr
// is non-nil — the span-trace section of the batch's sampled event. A nil
// trace encodes byte-identically to MarshalBatchStamped, and a zero stamp
// with a nil trace byte-identically to MarshalBatch: untraced deployments
// pay no wire bytes.
func MarshalBatchTraced(evs []Event, stamp int64, tr *BatchTrace) ([]byte, error) {
	if uint64(len(evs)) >= uint64(batchTraced) {
		return nil, fmt.Errorf("events: batch of %d events exceeds wire limit", len(evs))
	}
	if tr != nil && len(tr.Spans) > maxSpans {
		return nil, fmt.Errorf("events: trace of %d spans exceeds wire limit", len(tr.Spans))
	}
	header := uint32(len(evs))
	if stamp != 0 {
		header |= batchStamped
	}
	if tr != nil {
		header |= batchTraced
	}
	buf := binary.LittleEndian.AppendUint32(nil, header)
	if stamp != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(stamp))
	}
	if tr != nil {
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
	var err error
	for _, e := range evs {
		if buf, err = MarshalAppend(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// UnmarshalBatch decodes a batch encoded by MarshalBatch (or the stamped/
// traced variants — the stamp and trace, if any, are discarded).
func UnmarshalBatch(buf []byte) ([]Event, error) {
	evs, _, _, err := UnmarshalBatchTraced(buf)
	return evs, err
}

// UnmarshalBatchStamped decodes a batch along with its capture stamp
// (0 when the batch is unstamped). A trace section, if present, is
// decoded and discarded.
func UnmarshalBatchStamped(buf []byte) ([]Event, int64, error) {
	evs, stamp, _, err := UnmarshalBatchTraced(buf)
	return evs, stamp, err
}

// UnmarshalBatchTraced decodes a batch along with its capture stamp (0
// when unstamped) and span-trace section (nil when untraced).
func UnmarshalBatchTraced(buf []byte) ([]Event, int64, *BatchTrace, error) {
	if len(buf) < 4 {
		return nil, 0, nil, fmt.Errorf("events: short buffer decoding batch count")
	}
	header := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	n := header &^ batchFlags
	var stamp int64
	if header&batchStamped != 0 {
		if len(buf) < 8 {
			return nil, 0, nil, fmt.Errorf("events: short buffer decoding batch stamp")
		}
		stamp = int64(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	var tr *BatchTrace
	if header&batchTraced != 0 {
		if len(buf) < 9 {
			return nil, 0, nil, fmt.Errorf("events: short buffer decoding batch trace")
		}
		tr = &BatchTrace{ID: binary.LittleEndian.Uint64(buf)}
		nspans := int(buf[8])
		buf = buf[9:]
		tr.Spans = make([]Span, nspans)
		for i := range tr.Spans {
			// Spans are variable-length (the node ID), so bounds-check each
			// one instead of the whole section.
			if len(buf) < 10 {
				return nil, 0, nil, fmt.Errorf("events: short buffer decoding %d trace spans", nspans)
			}
			sp := Span{Tier: buf[0], TS: int64(binary.LittleEndian.Uint64(buf[1:]))}
			nl := int(buf[9])
			buf = buf[10:]
			if len(buf) < nl {
				return nil, 0, nil, fmt.Errorf("events: short buffer decoding trace span node")
			}
			sp.Node = string(buf[:nl])
			buf = buf[nl:]
			tr.Spans[i] = sp
		}
	}
	// Preallocate from the claimed count, bounded by what the buffer
	// could possibly hold (an event is at least 31 wire bytes) so a
	// corrupt count word can't force a huge allocation.
	capHint := n
	if most := uint32(len(buf)/31) + 1; capHint > most {
		capHint = most
	}
	evs := make([]Event, 0, capHint)
	var (
		e   Event
		err error
	)
	for i := uint32(0); i < n; i++ {
		if e, buf, err = Unmarshal(buf); err != nil {
			return nil, 0, nil, fmt.Errorf("events: batch entry %d: %w", i, err)
		}
		evs = append(evs, e)
	}
	if len(buf) != 0 {
		return nil, 0, nil, fmt.Errorf("events: %d trailing bytes after batch", len(buf))
	}
	return evs, stamp, tr, nil
}
