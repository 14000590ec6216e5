package resolve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
)

// goldenBacklog journals a seeded churn backlog on a 2-MDT cluster and
// returns each MDT's records, every file already dead: create, write,
// rename into another directory (same or new name, same or other MDT),
// unlink — over 256 directories — then a file whose parent is rmdir'd, a
// rename whose source parent is rmdir'd, and a MARK record spliced in.
func goldenBacklog(t testing.TB) (*lustre.Cluster, [][]lustre.Record) {
	t.Helper()
	cluster := lustre.NewCluster(lustre.Config{Name: "golden", NumMDS: 2})
	cl := cluster.Client()
	const nDirs = 256
	dir := func(i int) string { return fmt.Sprintf("/d%03d", i) }
	for i := 0; i < nDirs; i++ {
		must(t, cl.Mkdir(dir(i)))
	}
	must(t, cl.Mkdir("/src"))
	must(t, cl.Create("/src/moved"))
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 600; i++ {
		src := rng.Intn(nDirs)
		dst := (src + 1 + rng.Intn(nDirs-1)) % nDirs
		from := fmt.Sprintf("%s/c%d", dir(src), i)
		to := fmt.Sprintf("%s/c%d", dir(dst), i)
		if rng.Intn(4) == 0 {
			to = fmt.Sprintf("%s/r%d", dir(dst), i)
		}
		must(t, cl.Create(from))
		must(t, cl.Write(from, 1))
		must(t, cl.Rename(from, to))
		must(t, cl.Unlink(to))
	}
	must(t, cl.Mkdir("/gone"))
	must(t, cl.Create("/gone/orphan"))
	must(t, cl.Write("/gone/orphan", 1))
	must(t, cl.Unlink("/gone/orphan"))
	must(t, cl.Rmdir("/gone"))
	must(t, cl.Rename("/src/moved", dir(0)+"/kept"))
	must(t, cl.Rmdir("/src"))

	logs := make([][]lustre.Record, cluster.NumMDS())
	for mdt := range logs {
		log, err := cluster.Changelog(mdt)
		must(t, err)
		recs := log.Read(0, 1<<20)
		mid := len(recs) / 2
		recs = append(recs[:mid:mid], append([]lustre.Record{{Type: lustre.RecMark, Name: "mark"}}, recs[mid:]...)...)
		logs[mdt] = recs
	}
	return cluster, logs
}

// The translated stream — op, path, old path, cookie, in order — of the
// golden backlog through TranslateBlock with one serial worker and a cache
// 4x smaller than the directory set. The digest was recorded at the commit
// before the miss path was rebuilt (PR 18); it pins Algorithm 1's decisions
// (which joins, which ParentDirectoryRemoved, which cached reconstructions)
// across that rewrite. The hard-link case is TestUnlinkHardLinkReportsRemovedName.
func TestTranslateGoldenDigest(t *testing.T) {
	cluster, logs := goldenBacklog(t)
	h := sha256.New()
	total := 0
	for mdt, recs := range logs {
		r := newResolver(t, Options{
			Backend: cluster, CacheSize: 64, Workers: 1,
			EventOverhead: time.Nanosecond, CacheLookupCost: time.Nanosecond,
		})
		blk := events.NewBlock(len(recs), 64*len(recs))
		r.TranslateBlock(blk, recs)
		for i := 0; i < blk.Len(); i++ {
			fmt.Fprintf(h, "%d|%d|%s|%s|%d\n", mdt, blk.Op(i), blk.Path(i), blk.OldPath(i), blk.Cookie(i))
		}
		total += blk.Len()
	}
	const want = "d5a6e1bad5cf680c2f9a6620345e3671e1997cabdf7273ddca97a013cdff9a49"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || total != 3573 {
		t.Errorf("digest of %d events = %s, want 3573 events, %s", total, got, want)
	}
}
