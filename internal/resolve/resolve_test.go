package resolve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/pipeline"
)

func testCluster(fid2pathCost time.Duration) *lustre.Cluster {
	return lustre.NewCluster(lustre.Config{
		Name: "resolve-test", NumMDS: 1, NumOSS: 1, OSTsPerOSS: 1, OSTSizeGB: 1,
		Fid2PathCost: fid2pathCost,
	})
}

func readRecords(t testing.TB, c *lustre.Cluster) []lustre.Record {
	t.Helper()
	log, err := c.Changelog(0)
	if err != nil {
		t.Fatal(err)
	}
	return log.Read(0, 1<<20)
}

func newResolver(t testing.TB, opts Options) *Resolver {
	t.Helper()
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// translate runs recs through TranslateBlock and materializes the events —
// what Resolver.TranslateBatch returned before the resolver wrote only
// Blocks.
func translate(r *Resolver, recs []lustre.Record) []events.Event {
	blk := events.NewBlock(len(recs), 64*len(recs))
	r.TranslateBlock(blk, recs)
	return blk.AppendEventsTo(nil)
}

// liveFiles journals n creates whose files are still there at translation.
func liveFiles(t testing.TB, n int) (*lustre.Cluster, []lustre.Record) {
	t.Helper()
	cluster := testCluster(0)
	cl := cluster.Client()
	for i := 0; i < n; i++ {
		must(t, cl.Create(fmt.Sprintf("/f%d", i)))
	}
	return cluster, readRecords(t, cluster)
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Translating a create/write/delete sequence after the file is gone
// exercises the full Algorithm-1 miss path: the CREAT reconstructs the
// path from the parent and primes the cache, MTIME and UNLNK then resolve
// from the primed mapping — and the one expected fid2path failure is
// counted as stale, not as an error.
func TestTranslateDeadFileRecords(t *testing.T) {
	cluster := testCluster(0)
	cl := cluster.Client()
	if err := cl.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("/f", 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	r := newResolver(t, Options{Backend: cluster, CacheSize: 100})
	got := translate(r, readRecords(t, cluster))
	wantOps := []events.Op{events.OpCreate, events.OpModify, events.OpDelete}
	if len(got) != len(wantOps) {
		t.Fatalf("events = %v", got)
	}
	for i, e := range got {
		if !e.Op.HasAny(wantOps[i]) || e.Path != "/f" {
			t.Errorf("event %d = %+v, want op %v path /f", i, e, wantOps[i])
		}
	}
	st := r.Stats()
	// CREAT: target FID is dead (1 stale call), parent resolves (1 call);
	// everything after hits the primed cache entry.
	if st.Fid2PathCalls != 2 || st.Fid2PathStale != 1 || st.Fid2PathErrors != 0 {
		t.Errorf("stats = %+v, want Calls=2 Stale=1 Errors=0", st)
	}
}

// A miss is one probe: N distinct live FIDs through a cold resolver are N
// cache misses, N loads and N tool invocations, and the same batch again is
// N hits and nothing else. (The resolver used to probe with Get and let
// GetOrLoad probe again, so every miss counted twice and the hit ratio read
// low.)
func TestMissCountedOnce(t *testing.T) {
	const n = 64
	cluster, recs := liveFiles(t, n)
	r := newResolver(t, Options{Backend: cluster, CacheSize: 4 * n})
	translate(r, recs)
	cold := r.Stats()
	if cold.Cache.Misses != n || cold.Cache.Hits != 0 || cold.Cache.Loads != n || cold.Fid2PathCalls != n {
		t.Errorf("cold pass: %+v, want Misses = Loads = Fid2PathCalls = %d, Hits = 0", cold, n)
	}
	translate(r, recs)
	warm := r.Stats()
	if warm.Cache.Hits != n || warm.Cache.Misses != n || warm.Cache.Loads != n || warm.Fid2PathCalls != n {
		t.Errorf("warm pass: %+v, want Hits = %d and nothing else moved", warm, n)
	}
}

// Unlinking one name of a hard-linked file reports that name, cache on or
// off: the cached mapping of the FID is the other, surviving name, and is
// neither trusted for the event nor evicted.
func TestUnlinkHardLinkReportsRemovedName(t *testing.T) {
	for _, size := range []int{0, 100} {
		cluster := testCluster(0)
		cl := cluster.Client()
		must(t, cl.Create("/a"))
		must(t, cl.Link("/a", "/b"))
		must(t, cl.Unlink("/b"))
		r := newResolver(t, Options{Backend: cluster, CacheSize: size})
		var got []string
		for _, e := range translate(r, readRecords(t, cluster)) {
			got = append(got, e.Op.String()+" "+e.Path)
		}
		if want := []string{"CREATE /a", "CREATE /a", "DELETE /b"}; !slices.Equal(got, want) {
			t.Errorf("CacheSize %d: events = %v, want %v", size, got, want)
		}
		if size == 0 {
			continue
		}
		info, err := cluster.Stat("/a")
		must(t, err)
		if p, ok := r.cache.Get(info.FID); !ok || p != "/a" {
			t.Errorf("CacheSize %d: surviving name's mapping = %q, %v, want /a kept", size, p, ok)
		}
	}
}

// missBatch journals the miss-path shape of a drained churn backlog on one
// MDT: files created, written and unlinked before translation — dead target
// FID, live parent — across nDirs directories, for a resolver whose cache
// holds a quarter of them.
func missBatch(t testing.TB, nDirs, nFiles int) (*lustre.Cluster, []lustre.Record) {
	t.Helper()
	cluster := testCluster(0)
	cl := cluster.Client()
	for i := 0; i < nDirs; i++ {
		must(t, cl.Mkdir(fmt.Sprintf("/d%04d", i)))
	}
	log, err := cluster.Changelog(0)
	must(t, err)
	mkdirs := log.NextIndex() - 1
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < nFiles; i++ {
		f := fmt.Sprintf("/d%04d/c%d", rng.Intn(nDirs), i)
		must(t, cl.Create(f))
		must(t, cl.Write(f, 1))
		must(t, cl.Unlink(f))
	}
	return cluster, log.Read(mkdirs, 1<<20)
}

// unpacedOptions sets the accounted costs to 1ns, so allocation gates and
// micro-benchmarks measure the code and not the simulated pacing.
func unpacedOptions(cluster *lustre.Cluster, cacheSize int) Options {
	return Options{
		Backend: cluster, CacheSize: cacheSize,
		EventOverhead: time.Nanosecond, CacheLookupCost: time.Nanosecond,
	}
}

// The allocation budget of TranslateBlock. Warm (every FID cached) it
// allocates nothing: no loader closure, no scratch event, no per-call
// slice. On the miss path the only allocation left is a path string
// entering the cache — fid2path's result for a parent, the reconstruction
// for a dead target: two per created file, under one per record — not the
// stale error, a flight, an LRU entry or a joined path.
func TestTranslateAllocs(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		cluster, recs := liveFiles(t, 256)
		r := newResolver(t, unpacedOptions(cluster, 1024))
		blk := events.NewBlock(len(recs), 64*len(recs))
		if avg := testing.AllocsPerRun(20, func() {
			blk.Reset()
			r.TranslateBlock(blk, recs)
		}); avg != 0 {
			t.Errorf("warm TranslateBlock: %v allocs per %d-record batch, want 0", avg, len(recs))
		}
	})
	t.Run("miss", func(t *testing.T) {
		const nDirs = 1024
		cluster, recs := missBatch(t, nDirs, 2048)
		r := newResolver(t, unpacedOptions(cluster, nDirs/4))
		blk := events.NewBlock(len(recs), 64*len(recs))
		avg := testing.AllocsPerRun(5, func() {
			blk.Reset()
			r.TranslateBlock(blk, recs)
		})
		if st := r.Stats(); st.Cache.Evictions == 0 || st.Fid2PathStale == 0 {
			t.Fatalf("batch did not exercise the miss path on a full cache: %+v", st)
		}
		if per := avg / float64(len(recs)); per > 1 {
			t.Errorf("miss-path TranslateBlock: %.2f allocs/record, want <= 1", per)
		}
	})
}

// deadRecords fabricates n MTIME records for a FID that never existed:
// target and parent both fail to resolve, the worst case Algorithm 1
// keeps paying for without a negative cache.
func deadRecords(n int) []lustre.Record {
	recs := make([]lustre.Record, n)
	for i := range recs {
		recs[i] = lustre.Record{
			Index: uint64(i + 1),
			Type:  lustre.RecMtime,
			TFid:  lustre.FID{Seq: 0xdead, Oid: 42, Ver: 0},
			PFid:  lustre.FID{Seq: 0xdead, Oid: 7, Ver: 0},
			Name:  "ghost",
		}
	}
	return recs
}

// Without a negative TTL every record for a dead FID re-invokes fid2path
// (paper behaviour); with one, only the first record pays.
func TestNegativeCacheAbsorbsDeadFIDStorm(t *testing.T) {
	const n = 20
	run := func(ttl time.Duration) Stats {
		cluster := testCluster(0)
		r := newResolver(t, Options{Backend: cluster, CacheSize: 100, NegativeTTL: ttl})
		out := translate(r, deadRecords(n))
		if len(out) != n {
			t.Fatalf("events = %d, want %d", len(out), n)
		}
		for _, e := range out {
			if e.Path != "/"+ParentDirectoryRemoved+"/ghost" {
				t.Fatalf("path = %q", e.Path)
			}
		}
		return r.Stats()
	}
	plain := run(0)
	if plain.Fid2PathCalls != 2*n || plain.Fid2PathStale != 2*n {
		t.Errorf("without negative cache: %+v, want %d stale calls", plain, 2*n)
	}
	negative := run(pipeline.DefaultNegativeTTL)
	if negative.Fid2PathCalls != 2 || negative.Fid2PathStale != 2 {
		t.Errorf("with negative cache: %+v, want 2 stale calls", negative)
	}
	if negative.Cache.NegHits == 0 {
		t.Errorf("no negative hits recorded: %+v", negative.Cache)
	}
	if plain.Fid2PathErrors != 0 || negative.Fid2PathErrors != 0 {
		t.Errorf("stale failures misclassified as errors: %d / %d",
			plain.Fid2PathErrors, negative.Fid2PathErrors)
	}
}

// Concurrent TranslateBlock callers each check out their own pacing lane,
// and Busy aggregates what every lane spent.
func TestLaneAccountingAcrossWorkers(t *testing.T) {
	cluster := testCluster(0)
	cl := cluster.Client()
	for i := 0; i < 64; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := readRecords(t, cluster)
	r := newResolver(t, Options{
		Backend: cluster, CacheSize: 100, Workers: 4,
		EventOverhead: time.Microsecond,
	})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			translate(r, recs[w*16:(w+1)*16])
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if r.Workers() != 4 {
		t.Errorf("Workers = %d", r.Workers())
	}
	if busy := r.Busy(); busy < 64*time.Microsecond {
		t.Errorf("Busy = %v, want at least the 64 event overheads", busy)
	}
	r.ResetAccounting()
	if busy := r.Busy(); busy != 0 {
		t.Errorf("Busy after reset = %v", busy)
	}
}

// BenchmarkResolveStage measures resolve-stage throughput through the real
// pipeline stage (MapN driving TranslateBlock) on a cold cache, where
// every record is a miss and the simulated fid2path cost dominates — the
// configuration the worker-scaling acceptance criterion is stated for.
// Each iteration builds a fresh resolver so no iteration benefits from a
// warmed cache.
func BenchmarkResolveStage(b *testing.B) {
	const (
		nFiles    = 2048
		batchSize = 64
		cost      = 50 * time.Microsecond
	)
	cluster := testCluster(cost)
	cl := cluster.Client()
	for i := 0; i < nFiles; i++ {
		if err := cl.Create(fmt.Sprintf("/f%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	recs := readRecords(b, cluster)
	var batches [][]lustre.Record
	for i := 0; i < len(recs); i += batchSize {
		end := i + batchSize
		if end > len(recs) {
			end = len(recs)
		}
		batches = append(batches, recs[i:end])
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := New(Options{Backend: cluster, CacheSize: nFiles, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				p := pipeline.New(context.Background())
				src := pipeline.Source(p, "gen", 4, func(_ context.Context, emit func([]lustre.Record) bool) error {
					for _, batch := range batches {
						if !emit(batch) {
							return nil
						}
					}
					return nil
				})
				resolved := pipeline.MapN(p, "resolve", 4, workers, src,
					func(_ context.Context, batch []lustre.Record) (int, bool) {
						blk := events.NewBlock(len(batch), 64*len(batch))
						r.TranslateBlock(blk, batch)
						return blk.Len(), true
					})
				var out int
				pipeline.Sink(p, "count", resolved, func(_ context.Context, n int) {
					out += n
				})
				p.Wait()
				if out != len(recs) {
					b.Fatalf("resolved %d events, want %d", out, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
