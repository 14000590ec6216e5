// Package events defines FSMonitor's standardized file-system event
// representation and the transformations between it and the native event
// vocabularies of the monitoring tools FSMonitor wraps (inotify, kqueue,
// FSEvents, Windows FileSystemWatcher, and the Lustre Changelog).
//
// Following the paper (§II "Summary"), the standard representation is the
// inotify format: an event is a watch root, an operation mask, and a path
// relative to that root, rendered as
//
//	/home/arnab/test CREATE /hello.txt
//
// Rather than defining yet another representation, the resolution layer can
// transform a standard event into any of the common formats by populating
// the corresponding event template (§III-A2); those templates live in
// formats.go.
package events

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"time"
)

// Op is a bitmask of standardized (inotify-style) event operations.
type Op uint32

// Standardized operations. Values mirror inotify's mask bits so that the
// standard representation is directly interoperable with inotify tooling.
const (
	OpAccess     Op = 1 << iota // file was accessed (IN_ACCESS)
	OpModify                    // file was modified (IN_MODIFY)
	OpAttrib                    // metadata changed (IN_ATTRIB)
	OpCloseWrite                // writable file closed (IN_CLOSE_WRITE)
	OpCloseNoWr                 // non-writable file closed (IN_CLOSE_NOWRITE)
	OpOpen                      // file was opened (IN_OPEN)
	OpMovedFrom                 // file moved out of watched dir (IN_MOVED_FROM)
	OpMovedTo                   // file moved into watched dir (IN_MOVED_TO)
	OpCreate                    // file/directory created (IN_CREATE)
	OpDelete                    // file/directory deleted (IN_DELETE)
	OpDeleteSelf                // watched file/directory itself deleted
	OpMoveSelf                  // watched file/directory itself moved
	OpXattr                     // extended attribute changed (Lustre XATTR)
	OpTruncate                  // file truncated (Lustre TRUNC)
	OpOverflow                  // event queue overflowed; events were dropped

	// OpIsDir is OR-ed into the mask when the subject is a directory
	// (IN_ISDIR).
	OpIsDir Op = 1 << 30
)

// OpClose is the union of the two close operations, for callers that do not
// distinguish writable from non-writable closes. The standard renderer
// prints both as CLOSE, matching the paper's Table II output.
const OpClose = OpCloseWrite | OpCloseNoWr

// opNames orders the operation names for deterministic rendering.
var opNames = []struct {
	op   Op
	name string
}{
	{OpAccess, "ACCESS"},
	{OpModify, "MODIFY"},
	{OpAttrib, "ATTRIB"},
	{OpCloseWrite, "CLOSE"},
	{OpCloseNoWr, "CLOSE"},
	{OpOpen, "OPEN"},
	{OpMovedFrom, "MOVED_FROM"},
	{OpMovedTo, "MOVED_TO"},
	{OpCreate, "CREATE"},
	{OpDelete, "DELETE"},
	{OpDeleteSelf, "DELETE_SELF"},
	{OpMoveSelf, "MOVE_SELF"},
	{OpXattr, "XATTR"},
	{OpTruncate, "TRUNCATE"},
	{OpOverflow, "Q_OVERFLOW"},
}

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for _, e := range opNames {
		// CLOSE appears twice; map the name to the write variant, the
		// more informative of the two.
		if _, dup := m[e.name]; !dup {
			m[e.name] = e.op
		}
	}
	m["ISDIR"] = OpIsDir
	return m
}()

// Has reports whether the mask contains all bits of q.
func (o Op) Has(q Op) bool { return o&q == q }

// HasAny reports whether the mask contains any bit of q.
func (o Op) HasAny(q Op) bool { return o&q != 0 }

// IsDir reports whether the subject of the event is a directory.
func (o Op) IsDir() bool { return o.Has(OpIsDir) }

// String renders the mask in inotifywait style: comma-separated names with
// ISDIR last, e.g. "CREATE,ISDIR". A zero mask renders as "NONE".
func (o Op) String() string {
	var parts []string
	seen := map[string]bool{}
	for _, e := range opNames {
		if o.Has(e.op) && !seen[e.name] {
			parts = append(parts, e.name)
			seen[e.name] = true
		}
	}
	if o.IsDir() {
		parts = append(parts, "ISDIR")
	}
	if len(parts) == 0 {
		return "NONE"
	}
	return strings.Join(parts, ",")
}

// ParseOp parses a mask rendered by Op.String. It accepts any order of
// names and is case-insensitive.
func ParseOp(s string) (Op, error) {
	if s == "" || s == "NONE" {
		return 0, nil
	}
	var o Op
	for _, part := range strings.Split(s, ",") {
		op, ok := nameToOp[strings.ToUpper(strings.TrimSpace(part))]
		if !ok {
			return 0, fmt.Errorf("events: unknown operation %q", part)
		}
		o |= op
	}
	return o, nil
}

// Event is FSMonitor's standardized file-system event. Root is the watched
// path; Path is the subject of the event relative to Root (always beginning
// with a slash, as in inotifywait output); OldPath is populated for
// OpMovedTo events with the path the subject moved from, when known.
type Event struct {
	// Root is the watch root the event was observed under.
	Root string
	// Op is the standardized operation mask.
	Op Op
	// Cookie correlates OpMovedFrom/OpMovedTo pairs, as in inotify. It
	// sits beside Op so the two u32s share a word: no padding.
	Cookie uint32
	// Path is the event subject, relative to Root, beginning with "/".
	Path string
	// OldPath, for OpMovedTo, is the previous path when the rename pair
	// could be correlated; otherwise empty.
	OldPath string
	// Time is when the underlying storage system recorded the event.
	Time time.Time
	// Seq is a monotonically increasing sequence number assigned by the
	// interface layer's event store; zero until stored.
	Seq uint64
	// Source names the DSI that produced the event (e.g. "inotify",
	// "lustre"). Informational.
	Source string
}

// FullPath joins Root and Path into an absolute path.
func (e Event) FullPath() string { return path.Join(e.Root, e.Path) }

// Base returns the final element of the event path.
func (e Event) Base() string { return path.Base(e.Path) }

// IsDir reports whether the subject of the event is a directory.
func (e Event) IsDir() bool { return e.Op.IsDir() }

// String renders the event in the paper's Table II format:
//
//	/home/arnab/test CREATE /hello.txt
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s", e.Root, e.Op, e.Path)
}

// Parse parses an event rendered by Event.String.
func Parse(s string) (Event, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return Event{}, fmt.Errorf("events: malformed event %q: want 3 fields, got %d", s, len(fields))
	}
	op, err := ParseOp(fields[1])
	if err != nil {
		return Event{}, err
	}
	return Event{Root: fields[0], Op: op, Path: fields[2]}, nil
}

// Normalize rewrites the event so that Path is relative to Root with a
// leading slash. Events built from absolute subject paths (as Lustre
// resolution produces) pass through here before standard rendering.
func Normalize(e Event) Event {
	e.Root = path.Clean(e.Root)
	if e.Root == "." {
		e.Root = "/"
	}
	p := e.Path
	// Root "/" is an identity strip (trim the slash, re-add it below) —
	// skipping it avoids a per-event allocation on the hot path.
	if e.Root != "/" && strings.HasPrefix(p, e.Root) {
		p = strings.TrimPrefix(p, e.Root)
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	e.Path = path.Clean(p)
	if e.OldPath != "" {
		op := e.OldPath
		if strings.HasPrefix(op, e.Root) {
			op = strings.TrimPrefix(op, e.Root)
		}
		if !strings.HasPrefix(op, "/") {
			op = "/" + op
		}
		e.OldPath = path.Clean(op)
	}
	return e
}

// Under reports whether the event's subject lies under dir (relative to the
// event root), or is dir itself. dir "/" matches everything.
func (e Event) Under(dir string) bool {
	dir = path.Clean(dir)
	if dir == "/" || dir == "." {
		return true
	}
	p := path.Clean(e.Path)
	return p == dir || strings.HasPrefix(p, dir+"/")
}

// Depth returns the number of path components of the subject below the
// root; "/a" is depth 1, "/a/b" is depth 2.
func (e Event) Depth() int {
	p := strings.Trim(path.Clean(e.Path), "/")
	if p == "" {
		return 0
	}
	return strings.Count(p, "/") + 1
}

// SortBySeq sorts events by their store sequence number, then by time.
func SortBySeq(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Seq != evs[j].Seq {
			return evs[i].Seq < evs[j].Seq
		}
		return evs[i].Time.Before(evs[j].Time)
	})
}
