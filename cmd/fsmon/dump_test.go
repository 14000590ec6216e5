package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsmonitor"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
)

// -dump-journal prints what the store would reload: one line per event with
// its seq, acks by name, and on corruption an error naming the offset after
// the intact records.
func TestDumpJournal(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal")
	s, err := eventstore.New(eventstore.Options{JournalPath: jp, Sync: eventstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i, path := range []string{"/a", "/b", "/c"} {
		e := events.Event{Root: "/mnt", Op: events.OpCreate, Path: path, Time: time.Unix(0, int64(1000+i)), Source: "mdt0"}
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(jp)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if err := s.MarkReported(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := dumpJournal(&out, jp, fsmonitor.Format("lustre")); err != nil {
		t.Fatal(err)
	}
	want := "1 01CREAT /mnt /a\n2 01CREAT /mnt /b\n3 01CREAT /mnt /c\nreported 2\n"
	if out.String() != want {
		t.Fatalf("dump =\n%s\nwant\n%s", out.String(), want)
	}

	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	data[sizes[0]+12] ^= 0x20 // inside the second record
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = dumpJournal(&out, jp, fsmonitor.Format("lustre"))
	if err == nil || !strings.Contains(err.Error(), "byte offset") || !strings.HasPrefix(out.String(), "1 01CREAT /mnt /a\n") {
		t.Fatalf("dump of a corrupt journal: err %v, output %q; want the first record, then an error naming the offset", err, out.String())
	}
	if err := dumpJournal(&out, jp, fsmonitor.Format("nonsense")); err == nil {
		t.Fatal("dump in an unknown format succeeded")
	}
}
