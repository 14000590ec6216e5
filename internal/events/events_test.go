package events

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{OpCreate, "CREATE"},
		{OpCreate | OpIsDir, "CREATE,ISDIR"},
		{OpModify, "MODIFY"},
		{OpCloseWrite, "CLOSE"},
		{OpCloseNoWr, "CLOSE"},
		{OpCloseWrite | OpCloseNoWr, "CLOSE"},
		{OpMovedFrom, "MOVED_FROM"},
		{OpMovedTo, "MOVED_TO"},
		{OpDelete | OpIsDir, "DELETE,ISDIR"},
		{OpOverflow, "Q_OVERFLOW"},
		{0, "NONE"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%#x).String() = %q, want %q", uint32(c.op), got, c.want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	ops := []Op{
		OpCreate, OpCreate | OpIsDir, OpModify, OpDelete,
		OpMovedFrom | OpIsDir, OpAttrib, OpXattr, OpTruncate, 0,
	}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		// Round-trip must at least preserve rendering (CLOSE collapses
		// the two close bits by design).
		if got.String() != op.String() {
			t.Errorf("round trip %q -> %q", op.String(), got.String())
		}
	}
}

func TestParseOpErrors(t *testing.T) {
	if _, err := ParseOp("CREATE,BOGUS"); err == nil {
		t.Fatal("ParseOp accepted unknown op name")
	}
	if op, err := ParseOp(""); err != nil || op != 0 {
		t.Fatalf("ParseOp(\"\") = %v, %v; want 0, nil", op, err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Root: "/home/arnab/test", Op: OpCreate, Path: "/hello.txt"}
	if got, want := e.String(), "/home/arnab/test CREATE /hello.txt"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	e = Event{Root: "/home/arnab/test", Op: OpCreate | OpIsDir, Path: "/okdir"}
	if got, want := e.String(), "/home/arnab/test CREATE,ISDIR /okdir"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseEvent(t *testing.T) {
	e, err := Parse("/mnt/lustre DELETE,ISDIR /okdir")
	if err != nil {
		t.Fatal(err)
	}
	want := Event{Root: "/mnt/lustre", Op: OpDelete | OpIsDir, Path: "/okdir"}
	if e != want {
		t.Errorf("Parse = %+v, want %+v", e, want)
	}
	if _, err := Parse("too few"); err == nil {
		t.Error("Parse accepted malformed input")
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in       Event
		wantPath string
	}{
		{Event{Root: "/mnt/lustre", Path: "/mnt/lustre/a/b.txt"}, "/a/b.txt"},
		{Event{Root: "/mnt/lustre", Path: "a/b.txt"}, "/a/b.txt"},
		{Event{Root: "/mnt/lustre", Path: "/a/b.txt"}, "/a/b.txt"},
		{Event{Root: "/", Path: "/x"}, "/x"},
	}
	for _, c := range cases {
		got := Normalize(c.in)
		if got.Path != c.wantPath {
			t.Errorf("Normalize(%+v).Path = %q, want %q", c.in, got.Path, c.wantPath)
		}
	}
	// OldPath is normalized too.
	e := Normalize(Event{Root: "/r", Path: "/r/new", OldPath: "/r/old"})
	if e.OldPath != "/old" {
		t.Errorf("OldPath = %q, want /old", e.OldPath)
	}
}

func TestUnderAndDepth(t *testing.T) {
	e := Event{Root: "/r", Path: "/a/b/c.txt"}
	for dir, want := range map[string]bool{
		"/":      true,
		"/a":     true,
		"/a/b":   true,
		"/a/bc":  false,
		"/other": false,
	} {
		if got := e.Under(dir); got != want {
			t.Errorf("Under(%q) = %v, want %v", dir, got, want)
		}
	}
	if d := e.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	if d := (Event{Path: "/"}).Depth(); d != 0 {
		t.Errorf("Depth(/) = %d, want 0", d)
	}
}

func TestFullPath(t *testing.T) {
	e := Event{Root: "/mnt/lustre", Path: "/dir/f.txt"}
	if got := e.FullPath(); got != "/mnt/lustre/dir/f.txt" {
		t.Errorf("FullPath = %q", got)
	}
	if got := e.Base(); got != "f.txt" {
		t.Errorf("Base = %q", got)
	}
}

func TestTransformFormats(t *testing.T) {
	e := Event{Root: "/r", Op: OpCreate, Path: "/f.txt"}
	for _, f := range Formats() {
		s, err := Transform(e, f)
		if err != nil {
			t.Fatalf("Transform(%s): %v", f, err)
		}
		if s == "" {
			t.Errorf("Transform(%s) empty", f)
		}
	}
	if _, err := Transform(e, Format("nope")); err == nil {
		t.Error("Transform accepted unknown format")
	}
}

func TestTransformVocabularies(t *testing.T) {
	cases := []struct {
		op   Op
		f    Format
		want string
	}{
		{OpCreate, FormatInotify, "IN_CREATE"},
		{OpCreate | OpIsDir, FormatInotify, "IN_CREATE|IN_ISDIR"},
		{OpModify, FormatKqueue, "NOTE_WRITE"},
		{OpOpen | OpModify | OpCloseWrite, FormatKqueue, "NOTE_OPEN|NOTE_WRITE|NOTE_CLOSE"},
		{OpCreate, FormatFSEvents, "ItemCreated"},
		{OpModify, FormatFSEvents, "ItemModified"},
		{OpCreate, FormatFSW, "Created"},
		{OpDelete, FormatFSW, "Deleted"},
		{OpMovedTo, FormatFSW, "Renamed"},
		{OpModify, FormatFSW, "Changed"},
		{OpCreate, FormatLustre, "01CREAT"},
		{OpCreate | OpIsDir, FormatLustre, "02MKDIR"},
		{OpDelete, FormatLustre, "06UNLNK"},
		{OpDelete | OpIsDir, FormatLustre, "07RMDIR"},
		{OpMovedFrom, FormatLustre, "08RENME"},
		{OpMovedTo, FormatLustre, "09RNMTO"},
		{OpModify, FormatLustre, "17MTIME"},
	}
	for _, c := range cases {
		e := Event{Root: "/r", Op: c.op, Path: "/p"}
		s, err := Transform(e, c.f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, c.want) {
			t.Errorf("Transform(%v, %s) = %q, want substring %q", c.op, c.f, s, c.want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := Event{
		Root:    "/mnt/lustre",
		Op:      OpMovedTo | OpIsDir,
		Path:    "/okdir/hi.txt",
		OldPath: "/hi.txt",
		Cookie:  42,
		Time:    time.Unix(1552084067, 308560896),
		Seq:     11332885,
		Source:  "lustre",
	}
	buf, err := MarshalAppend(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !got.Time.Equal(e.Time) {
		t.Errorf("time mismatch: %v vs %v", got.Time, e.Time)
	}
	got.Time, e.Time = time.Time{}, time.Time{}
	if got != e {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

// The capture stamp is batch metadata: a traced batch costs exactly 8
// extra wire bytes in total, and an untraced batch (the production
// default, telemetry off) is byte-identical to a build without latency
// tracing.
func TestCodecBatchStamp(t *testing.T) {
	evs := []Event{
		{Root: "/r", Op: OpCreate, Path: "/f", Source: "s", Time: time.Unix(1, 0)},
		{Root: "/r", Op: OpModify, Path: "/g", Source: "s", Time: time.Unix(2, 0)},
	}
	plain, err := MarshalBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := MarshalBatchStamped(evs, 1552084067308560900)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamped) != len(plain)+8 {
		t.Errorf("stamped batch is %d bytes, want %d (unstamped %d + 8)",
			len(stamped), len(plain)+8, len(plain))
	}
	got, stamp, err := UnmarshalBatchStamped(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 1552084067308560900 {
		t.Errorf("stamp = %d, want 1552084067308560900", stamp)
	}
	if len(got) != 2 || got[0].Path != "/f" || got[1].Path != "/g" {
		t.Errorf("stamped batch round trip mismatch: %+v", got)
	}
	// The stamp-agnostic decoder accepts both forms.
	if got, err := UnmarshalBatch(stamped); err != nil || len(got) != 2 {
		t.Errorf("UnmarshalBatch(stamped) = %d events, %v", len(got), err)
	}
	if _, stamp, err := UnmarshalBatchStamped(plain); err != nil || stamp != 0 {
		t.Errorf("UnmarshalBatchStamped(plain) = stamp %d, %v; want 0, nil", stamp, err)
	}
	// A flagged header with the stamp truncated away must error, not decode.
	if _, _, err := UnmarshalBatchStamped(stamped[:8]); err == nil {
		t.Error("UnmarshalBatchStamped accepted truncated stamp")
	}
}

func TestCodecBatch(t *testing.T) {
	var evs []Event
	for i := 0; i < 100; i++ {
		evs = append(evs, Event{Root: "/r", Op: OpCreate, Path: "/f", Seq: uint64(i), Time: time.Unix(int64(i), 0)})
	}
	buf, err := MarshalBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("len = %d, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i].Seq != evs[i].Seq {
			t.Errorf("entry %d: seq %d, want %d", i, got[i].Seq, evs[i].Seq)
		}
	}
}

func TestCodecTruncated(t *testing.T) {
	e := Event{Root: "/r", Op: OpCreate, Path: "/f", Source: "s"}
	buf, err := MarshalAppend(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Unmarshal(buf[:cut]); err == nil {
			t.Errorf("Unmarshal accepted truncation at %d bytes", cut)
		}
	}
	if _, err := UnmarshalBatch([]byte{1, 2}); err == nil {
		t.Error("UnmarshalBatch accepted short count")
	}
}

// Property: any event with printable strings round-trips through the codec.
func TestCodecQuick(t *testing.T) {
	f := func(op uint32, cookie uint32, seq uint64, root, p, old, src string) bool {
		if len(root) > 1000 || len(p) > 1000 || len(old) > 1000 || len(src) > 200 {
			return true // skip oversized inputs, covered elsewhere
		}
		e := Event{
			Root: root, Op: Op(op), Path: p, OldPath: old,
			Cookie: cookie, Seq: seq, Source: src,
			Time: time.Unix(0, int64(seq)),
		}
		buf, err := MarshalAppend(nil, e)
		if err != nil {
			return false
		}
		got, rest, err := Unmarshal(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.Root == e.Root && got.Path == e.Path && got.OldPath == e.OldPath &&
			got.Op == e.Op && got.Cookie == e.Cookie && got.Seq == e.Seq && got.Source == e.Source &&
			got.Time.Equal(e.Time)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: string render/parse preserves rendering for arbitrary masks.
func TestOpStringParseQuick(t *testing.T) {
	f := func(raw uint32) bool {
		op := Op(raw)
		parsed, err := ParseOp(op.String())
		if err != nil {
			return false
		}
		return parsed.String() == op.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSortBySeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var evs []Event
	for i := 0; i < 50; i++ {
		evs = append(evs, Event{Seq: uint64(rng.Intn(25)), Time: time.Unix(int64(rng.Intn(10)), 0)})
	}
	SortBySeq(evs)
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq > evs[i].Seq {
			t.Fatalf("not sorted at %d: %d > %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i-1].Seq == evs[i].Seq && evs[i-1].Time.After(evs[i].Time) {
			t.Fatalf("ties not time-ordered at %d", i)
		}
	}
}

func TestMarshalOversized(t *testing.T) {
	e := Event{Root: strings.Repeat("x", 1<<16)}
	if _, err := MarshalAppend(nil, e); err == nil {
		t.Error("accepted oversized root")
	}
	e = Event{Source: strings.Repeat("s", 300)}
	if _, err := MarshalAppend(nil, e); err == nil {
		t.Error("accepted oversized source")
	}
}

func TestFormatsStable(t *testing.T) {
	if !reflect.DeepEqual(Formats(), Formats()) {
		t.Error("Formats not stable")
	}
	if len(Formats()) != 6 {
		t.Errorf("expected 6 formats, got %d", len(Formats()))
	}
}

// Property: Normalize is idempotent and always yields a slash-prefixed,
// cleaned path under the cleaned root.
func TestNormalizeIdempotentQuick(t *testing.T) {
	f := func(root, p, old string) bool {
		if len(root) > 100 || len(p) > 100 || len(old) > 100 {
			return true
		}
		e1 := Normalize(Event{Root: root, Path: p, OldPath: old})
		e2 := Normalize(e1)
		if e1 != e2 {
			return false
		}
		return strings.HasPrefix(e1.Path, "/") && (e1.OldPath == "" || strings.HasPrefix(e1.OldPath, "/"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHasNoPadding: every []Event row, in a consumer's batch and a
// decoded page alike, is the sum of its fields. A u32 left alone between
// two 8-byte-aligned fields pads a word; Op and Cookie share one.
func TestEventHasNoPadding(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	var sum uintptr
	for i := 0; i < typ.NumField(); i++ {
		sum += typ.Field(i).Type.Size()
	}
	if sum != typ.Size() {
		t.Errorf("sizeof(Event) = %d, but its fields sum to %d: %d bytes of padding", typ.Size(), sum, typ.Size()-sum)
	}
}
