// Quickstart: watch a real directory with FSMonitor's standardized events.
//
// The example creates a scratch directory, attaches a monitor (the
// registry picks the platform's native backend — raw inotify on Linux, the
// portable polling watcher elsewhere), performs a few file operations, and
// prints the standardized events they produce.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"fsmonitor"
)

func main() {
	dir, err := os.MkdirTemp("", "fsmonitor-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Attach a recursive monitor to the directory.
	m, err := fsmonitor.Watch(dir, fsmonitor.WithRecursive())
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	fmt.Printf("monitoring %s via the %q DSI\n\n", dir, m.DSIName())

	// Subscribe to creations, modifications, deletions, and renames.
	sub, err := m.Subscribe(fsmonitor.Filter{
		Recursive: true,
		Ops: fsmonitor.OpCreate | fsmonitor.OpModify | fsmonitor.OpDelete |
			fsmonitor.OpMovedFrom | fsmonitor.OpMovedTo,
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for batch := range sub.C() {
			for _, e := range batch {
				fmt.Println(" ", e) // e.g. "/tmp/xyz CREATE /hello.txt"
			}
		}
		if seq, evicted := sub.Evicted(); evicted {
			log.Printf("evicted for lagging; complete through seq %d", seq)
		}
	}()

	// Drive some file activity: create, modify, rename, remove. The
	// brief pauses mimic a human-speed session and give the recursive
	// watcher time to cover newly created directories (the inotify
	// recursion race the package documentation describes).
	settle := func() { time.Sleep(50 * time.Millisecond) }
	hello := filepath.Join(dir, "hello.txt")
	if err := os.WriteFile(hello, []byte("hello"), 0o644); err != nil {
		log.Fatal(err)
	}
	settle()
	if err := os.WriteFile(hello, []byte("hello, world"), 0o644); err != nil {
		log.Fatal(err)
	}
	settle()
	hi := filepath.Join(dir, "hi.txt")
	if err := os.Rename(hello, hi); err != nil {
		log.Fatal(err)
	}
	settle()
	if err := os.Mkdir(filepath.Join(dir, "okdir"), 0o755); err != nil {
		log.Fatal(err)
	}
	settle()
	if err := os.Rename(hi, filepath.Join(dir, "okdir", "hi.txt")); err != nil {
		log.Fatal(err)
	}
	settle()
	if err := os.RemoveAll(filepath.Join(dir, "okdir")); err != nil {
		log.Fatal(err)
	}

	// Let the pipeline drain, then show what the reliable store holds.
	time.Sleep(500 * time.Millisecond)
	stored, err := m.Since(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreliable event store holds %d events; the same stream is\n", len(stored))
	fmt.Println("available in other representations:")
	var sample *fsmonitor.Event
	for i := range stored {
		if stored[i].Op.HasAny(fsmonitor.OpCreate) {
			sample = &stored[i]
			break
		}
	}
	if sample != nil {
		for _, f := range []fsmonitor.Format{fsmonitor.FormatInotify, fsmonitor.FormatKqueue, fsmonitor.FormatFSEvents, fsmonitor.FormatFSW} {
			line, err := fsmonitor.Transform(*sample, f)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-9s %s\n", f, line)
		}
	}
}
