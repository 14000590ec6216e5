package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/vfs"
)

func recvBatch(t *testing.T, s *iface.Subscription, timeout time.Duration) []events.Event {
	t.Helper()
	select {
	case b := <-s.C():
		return b
	case <-time.After(timeout):
		return nil
	}
}

func TestEndToEndSimLinux(t *testing.T) {
	fs := vfs.New()
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Storage:   dsi.StorageInfo{Platform: "sim-linux", FSType: "local", Root: "/data"},
		Recursive: true,
		Backend:   fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.DSIName() != "sim-inotify" {
		t.Errorf("selected %q", m.DSIName())
	}
	sub, err := m.Subscribe(iface.Filter{Recursive: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/data/hello.txt", 10); err != nil {
		t.Fatal(err)
	}
	var got []events.Event
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < 3 && time.Now().Before(deadline) {
		got = append(got, recvBatch(t, sub, 300*time.Millisecond)...)
	}
	if len(got) != 3 {
		t.Fatalf("events = %v", got)
	}
	wants := []string{"CREATE", "MODIFY", "CLOSE"}
	for i, w := range wants {
		if got[i].Op.String() != w || got[i].Path != "/hello.txt" {
			t.Errorf("event %d = %v %s, want %s", i, got[i].Op, got[i].Path, w)
		}
		if got[i].Seq == 0 {
			t.Error("event missing store seq")
		}
	}
}

func TestEndToEndAllSimPlatforms(t *testing.T) {
	for _, platform := range []string{"sim-linux", "sim-darwin", "sim-bsd", "sim-windows"} {
		t.Run(platform, func(t *testing.T) {
			fs := vfs.New()
			if err := fs.Mkdir("/w"); err != nil {
				t.Fatal(err)
			}
			m, err := New(Options{
				Storage:   dsi.StorageInfo{Platform: platform, FSType: "local", Root: "/w"},
				Recursive: true,
				Backend:   fs,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			sub, err := m.Subscribe(iface.Filter{Recursive: true, Ops: events.OpCreate}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/w/f", 1); err != nil {
				t.Fatal(err)
			}
			b := recvBatch(t, sub, 2*time.Second)
			if len(b) == 0 || !b[0].Op.HasAny(events.OpCreate) {
				t.Fatalf("%s: batch = %v", platform, b)
			}
		})
	}
}

func TestEndToEndRealFilesystem(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{
		Storage:   dsi.StorageInfo{Platform: "linux", FSType: "local", Root: dir},
		Recursive: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.DSIName() != "inotify" {
		t.Errorf("selected %q on linux", m.DSIName())
	}
	sub, err := m.Subscribe(iface.Filter{Ops: events.OpCreate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "real.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := recvBatch(t, sub, 2*time.Second)
	if len(b) == 0 || b[0].Path != "/real.txt" {
		t.Fatalf("batch = %v", b)
	}
}

func TestEventsSinceAndAck(t *testing.T) {
	fs := vfs.New()
	if err := fs.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Storage: dsi.StorageInfo{Platform: "sim-linux", FSType: "local", Root: "/w"},
		Backend: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile(filepath.Join("/w", "f"+string(rune('0'+i))), 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		all, err := m.Since(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// 3 files x create/modify/close. The interface layer appends a
		// batch's events one by one and acks the batch after the last, so
		// Since can show all 9 before AutoAck has reported them.
		if len(all) == 9 && m.Stats().Interface.Store.Reported == 9 {
			// AutoAck: everything already reported, purge clears it.
			n, err := m.Purge()
			if err != nil || n != 9 {
				t.Errorf("purge = %d, %v", n, err)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("events never all arrived in store")
}

// TestRestartOnSameJournal runs a monitor twice on one journal path: the
// second run continues the first one's sequence numbers instead of starting
// over at 1, a consumer's remembered seq replays exactly what it missed, and
// the file both runs wrote is one the store (and so fsmon -dump-journal,
// which reads it with the same ReadJournal) still accepts.
func TestRestartOnSameJournal(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal")
	run := func(name string) []events.Event {
		t.Helper()
		fs := vfs.New()
		if err := fs.Mkdir("/w"); err != nil {
			t.Fatal(err)
		}
		m, err := New(Options{
			Storage: dsi.StorageInfo{Platform: "sim-linux", FSType: "local", Root: "/w"},
			Backend: fs,
			Store:   eventstore.Options{JournalPath: jp},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := fs.WriteFile("/w/"+name, 1); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			all, err := m.Since(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var mine []events.Event
			for _, e := range all {
				if e.Path == "/"+name {
					mine = append(mine, e)
				}
			}
			if len(mine) == 3 { // create/modify/close
				return mine
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s: %d of 3 events stored", name, len(mine))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	first := run("one")
	second := run("two")
	last := first[len(first)-1].Seq
	for i, e := range second {
		if want := last + uint64(i) + 1; e.Seq != want {
			t.Fatalf("second run event %d has seq %d, want %d (continuing past %d)", i, e.Seq, want, last)
		}
	}

	st, err := eventstore.Open(eventstore.Options{JournalPath: jp})
	if err != nil {
		t.Fatalf("a third open refuses the journal two runs wrote: %v", err)
	}
	defer st.Close()
	missed, err := st.Since(last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missed) != len(second) {
		t.Fatalf("replay past seq %d = %d events, want the second run's %d", last, len(missed), len(second))
	}
	var prev uint64
	if _, err := eventstore.ReadJournal(jp, func(blk *events.Block, _ uint64) error {
		for i := 0; blk != nil && i < blk.Len(); i++ {
			if blk.Seq(i) <= prev {
				t.Errorf("journal holds seq %d after seq %d", blk.Seq(i), prev)
			}
			prev = blk.Seq(i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorStats(t *testing.T) {
	fs := vfs.New()
	if err := fs.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Storage: dsi.StorageInfo{Platform: "sim-linux", FSType: "local", Root: "/w"},
		Backend: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := fs.WriteFile("/w/f", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Resolution.Processed >= 3 {
			if st.DSI != "sim-inotify" {
				t.Errorf("stats DSI = %q", st.DSI)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stats never reflected processing")
}

func TestUnknownBackendFails(t *testing.T) {
	if _, err := New(Options{DSIName: "no-such-backend"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := New(Options{Storage: dsi.StorageInfo{Platform: "sim-linux", FSType: "weird"}}); err == nil {
		t.Error("unmatchable storage accepted")
	}
}

func TestDefaultRegistryContents(t *testing.T) {
	names := DefaultRegistry().Names()
	want := map[string]bool{"poll": false, "sim-inotify": false, "inotify": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("registry missing %q (have %v)", n, names)
		}
	}
}

func TestCloseIsIdempotentAndDrains(t *testing.T) {
	fs := vfs.New()
	if err := fs.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Storage: dsi.StorageInfo{Platform: "sim-linux", FSType: "local", Root: "/w"},
		Backend: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/w/f", 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestContextCancelStoresAccepted cancels a monitor's context right after
// its backend accepted a burst and requires every accepted event in the
// store: the DSI channel closes on cancel, and the resolution layer reads
// it to its end before the monitor shuts down.
func TestContextCancelStoresAccepted(t *testing.T) {
	const n = 20000
	var base *dsi.Base
	reg := dsi.NewRegistry()
	reg.Register("synthetic", func(dsi.StorageInfo) int { return 1 }, func(cfg dsi.Config) (dsi.DSI, error) {
		base = dsi.NewBase("synthetic", cfg.Buffer)
		return syntheticDSI{base}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := New(Options{DSIName: "synthetic", Registry: reg, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	base.AddPump()
	for i := 0; i < n; i++ {
		if !base.Emit(events.Event{Root: "/r", Op: events.OpCreate, Path: "/f"}) {
			t.Fatalf("emit %d refused before cancel", i)
		}
	}
	base.PumpDone()
	cancel()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Interface.Store.Appended; got != n {
		t.Fatalf("stored %d of %d accepted events after cancel", got, n)
	}
}

// syntheticDSI is a backend whose events the test emits itself.
type syntheticDSI struct{ *dsi.Base }

func (d syntheticDSI) Close() error { d.CloseBase(); return nil }
