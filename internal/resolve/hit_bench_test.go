package resolve

import (
	"testing"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
)

// benchTranslate times TranslateBlock of recs on a resolver one untimed
// pass has warmed, reporting ns/record beside allocs/op (per batch).
func benchTranslate(b *testing.B, r *Resolver, recs []lustre.Record) {
	blk := events.NewBlock(len(recs), 64*len(recs))
	r.TranslateBlock(blk, recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Reset()
		r.TranslateBlock(blk, recs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// BenchmarkResolveHit guards the warm-cache fast path: every record's FID
// is already cached, so translation should be a bare LRU probe per FID
// with no loader-closure allocation and no per-record throttle traffic.
// The accounted costs are set to 1ns so the benchmark measures the code,
// not the simulated pacing. allocs/op must read 0 (TestTranslateAllocs
// gates it).
func BenchmarkResolveHit(b *testing.B) {
	const nFiles = 1024
	cluster, recs := liveFiles(b, nFiles)
	benchTranslate(b, newResolver(b, unpacedOptions(cluster, 4*nFiles)), recs)
}

// BenchmarkResolveMiss is the other side: the churn-shaped batch of
// TestTranslateAllocs (dead target FIDs, live parents, a full cache a
// quarter the size of the directory set), so nearly every record walks
// Algorithm 1's failure branches.
func BenchmarkResolveMiss(b *testing.B) {
	const nDirs = 1024
	cluster, recs := missBatch(b, nDirs, 2048)
	benchTranslate(b, newResolver(b, unpacedOptions(cluster, nDirs/4)), recs)
}
