package robinhood

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/resolve"
)

func testCluster(mds int) *lustre.Cluster {
	return lustre.NewCluster(lustre.Config{Name: "test", NumMDS: mds, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 1})
}

func newServer(t *testing.T, cluster *lustre.Cluster, cache int) *Server {
	t.Helper()
	s, err := New(Options{Cluster: cluster, CacheSize: cache, IdleWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitProcessed(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Processed >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("processed %d, want %d", s.Stats().Processed, n)
}

func TestCollectsAllEvents(t *testing.T) {
	cluster := testCluster(1)
	s := newServer(t, cluster, 100)
	cl := cluster.Client()
	if err := cl.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/hello.txt", 5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, s, 3)
	got, err := s.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("stored = %v", got)
	}
	wantOps := []events.Op{events.OpCreate, events.OpModify, events.OpDelete}
	for i, e := range got {
		if !e.Op.HasAny(wantOps[i]) || e.Path != "/hello.txt" {
			t.Errorf("event %d = %v %s", i, e.Op, e.Path)
		}
		if e.Source != "robinhood" {
			t.Errorf("source = %q", e.Source)
		}
	}
}

func TestRoundRobinCoversAllMDSs(t *testing.T) {
	cluster := testCluster(4)
	s := newServer(t, cluster, 100)
	cl := cluster.Client()
	const dirs = 32
	for i := 0; i < dirs; i++ {
		if err := cl.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, s, dirs)
	got, _ := s.Since(0, 0)
	if len(got) != dirs {
		t.Fatalf("stored %d, want %d", len(got), dirs)
	}
	// The changelogs were cleared behind the poller.
	for i := 0; i < 4; i++ {
		log, _ := cluster.Changelog(i)
		if log.Len() != 0 {
			t.Errorf("MDT %d retains %d records", i, log.Len())
		}
	}
}

func TestPolicyRulesFire(t *testing.T) {
	cluster := testCluster(1)
	s := newServer(t, cluster, 100)
	var mu sync.Mutex
	var fired []string
	s.AddRule(Rule{
		Name:   "on-delete",
		Filter: iface.Filter{Ops: events.OpDelete, Recursive: true},
		Action: func(e events.Event) {
			mu.Lock()
			fired = append(fired, e.Path)
			mu.Unlock()
		},
	})
	cl := cluster.Client()
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, s, 2)
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 || fired[0] != "/f" {
		t.Errorf("fired = %v", fired)
	}
	if s.Stats().RulesFired != 1 {
		t.Errorf("RulesFired = %d", s.Stats().RulesFired)
	}
}

func TestRenameStoredAsPair(t *testing.T) {
	cluster := testCluster(1)
	s := newServer(t, cluster, 100)
	cl := cluster.Client()
	if err := cl.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, s, 3)
	got, _ := s.Since(0, 0)
	if len(got) != 3 {
		t.Fatalf("stored = %v", got)
	}
	if !got[1].Op.HasAny(events.OpMovedFrom) || got[1].Path != "/a" {
		t.Errorf("from = %+v", got[1])
	}
	if !got[2].Op.HasAny(events.OpMovedTo) || got[2].Path != "/b" {
		t.Errorf("to = %+v", got[2])
	}
}

func TestCacheReducesCalls(t *testing.T) {
	run := func(cache int) Stats {
		cluster := testCluster(1)
		s, err := New(Options{Cluster: cluster, CacheSize: cache, IdleWait: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		cl := cluster.Client()
		for i := 0; i < 100; i++ {
			p := fmt.Sprintf("/f%d", i)
			if err := cl.Create(p); err != nil {
				t.Fatal(err)
			}
			if err := cl.Write(p, 1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Unlink(p); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().Processed < 300 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		return s.Stats()
	}
	withCache := run(500)
	noCache := run(0)
	if withCache.Processed != 300 || noCache.Processed != 300 {
		t.Fatalf("processed %d / %d", withCache.Processed, noCache.Processed)
	}
	if withCache.Fid2PathCalls >= noCache.Fid2PathCalls {
		t.Errorf("cache did not reduce calls: %d vs %d", withCache.Fid2PathCalls, noCache.Fid2PathCalls)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("accepted nil cluster")
	}
}

func TestCloseStopsPromptly(t *testing.T) {
	cluster := testCluster(2)
	s, err := New(Options{Cluster: cluster, IdleWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Close()
	if time.Since(start) > 2*time.Second {
		t.Error("Close too slow")
	}
}

// §V-D5 compares architectures, so the baseline and the collectors must
// translate a record the same way: a backlog covering Algorithm 1's branches
// goes through a Server and, read from the same Changelogs, through the
// resolver a collector runs. Both drain it after the last operation, MDT by
// MDT, so the streams must agree event for event.
func TestRobinhoodMatchesCollector(t *testing.T) {
	for _, cacheSize := range []int{0, 100} {
		t.Run(fmt.Sprintf("cache%d", cacheSize), func(t *testing.T) {
			cluster := testCluster(2)
			cl := cluster.Client()
			// One directory per MDT, so the rename below crosses MDTs.
			var dirs [2]string
			for i := 0; dirs[0] == "" || dirs[1] == ""; i++ {
				d := fmt.Sprintf("/d%d", i)
				dirs[cluster.DirMDT(d)] = d
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(cl.Mkdir(dirs[0]))
			must(cl.Mkdir(dirs[1]))
			must(cl.Create(dirs[0] + "/f"))
			must(cl.Write(dirs[0]+"/f", 1))
			must(cl.Rename(dirs[0]+"/f", dirs[1]+"/g"))
			// A hard link whose second name goes: the FID still resolves,
			// to the name that stayed.
			must(cl.Create(dirs[1] + "/a"))
			must(cl.Link(dirs[1]+"/a", dirs[1]+"/b"))
			must(cl.Unlink(dirs[1] + "/b"))
			must(cl.Create(dirs[0] + "/u"))
			must(cl.Unlink(dirs[0] + "/u"))
			// Records under a directory that is gone by the time they are read.
			must(cl.Mkdir("/gone"))
			must(cl.Create("/gone/orphan"))
			must(cl.Write("/gone/orphan", 1))
			must(cl.Unlink("/gone/orphan"))
			must(cl.Rmdir("/gone"))

			res, err := resolve.New(resolve.Options{
				Backend: cluster, Source: "robinhood", CacheSize: cacheSize, Workers: 1,
			})
			must(err)
			want := events.NewBlock(0, 0)
			for mdt := 0; mdt < cluster.NumMDS(); mdt++ {
				log, err := cluster.Changelog(mdt)
				must(err)
				recs := log.Read(0, 1<<20)
				if len(recs) == 0 {
					t.Fatalf("MDT %d saw no records", mdt)
				}
				// The simulator never writes a MARK, so the Server cannot be
				// fed one; on this side it must add nothing.
				recs = append(recs, lustre.Record{Type: lustre.RecMark, Name: "mark"})
				res.TranslateBlock(want, recs)
			}

			s := newServer(t, cluster, cacheSize)
			// The Changelogs are cleared behind the poller: empty means
			// every record has been translated and stored.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				left := 0
				for mdt := 0; mdt < cluster.NumMDS(); mdt++ {
					log, _ := cluster.Changelog(mdt)
					left += log.Len()
				}
				if left == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("server left %d records unread", left)
				}
			}
			got, err := s.Since(0, 0)
			must(err)
			if len(got) != want.Len() {
				t.Errorf("server stored %d events, resolver translated %d", len(got), want.Len())
			}
			for i := 0; i < min(len(got), want.Len()); i++ {
				g, w := got[i], want.Event(i)
				if g.Op != w.Op || g.Path != w.Path || g.OldPath != w.OldPath || g.Cookie != w.Cookie {
					t.Errorf("event %d: server %v %s (old %q, cookie %d), collector %v %s (old %q, cookie %d)",
						i, g.Op, g.Path, g.OldPath, g.Cookie, w.Op, w.Path, w.OldPath, w.Cookie)
				}
			}
		})
	}
}
