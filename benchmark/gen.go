package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fsmonitor/internal/lustre"
)

// Namespace shapes. Both keep the namespace constant-size for a whole run —
// hot touches a fixed file set, churn creates and unlinks in pairs — so the
// simulator's live heap never becomes the thing measured.
const (
	hotDirs        = 64
	hotFilesPerDir = 64
	hotFiles       = hotDirs * hotFilesPerDir // every FID fits the 5000-entry cache
	churnDirs      = 20000                    // 4x the collectors' fid2path cache
)

type opKind uint8

const (
	opWrite opKind = iota
	opClose
	opCreate
	opRename
	opUnlink
)

type op struct {
	kind opKind
	path string
	to   string // opRename only
}

// step is the unit the generator issues atomically: hot = Write+CloseFile of
// one file; churn = Create, Write, Rename into another directory, Unlink.
type step struct {
	ops  [4]op
	n    int
	iter int // churn: the file's serial number (its name is c<iter>); -1 for hot
	src  int // churn: index of the directory the file is created in
	dst  int // churn: index of the directory the file is unlinked from
}

// opStream is the deterministic op sequence: a pure function of the profile
// and the seed, drawn from a single math/rand source.
type opStream struct {
	rng   *rand.Rand
	churn bool
	files []string // hot: the fixed file set
	dirs  []string // churn: the directory set
	iter  int
}

func newOpStream(churn bool, seed int64) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(seed)), churn: churn}
	if churn {
		s.dirs = make([]string, churnDirs)
		for i := range s.dirs {
			s.dirs[i] = fmt.Sprintf("/churn/d%05d", i)
		}
		return s
	}
	s.files = make([]string, hotFiles)
	for i := range s.files {
		s.files[i] = hotPath(i)
	}
	return s
}

func hotPath(i int) string {
	return fmt.Sprintf("/hot/d%02d/f%04d", i/hotFilesPerDir, i)
}

func (s *opStream) next() step {
	if !s.churn {
		f := s.files[s.rng.Intn(len(s.files))]
		return step{ops: [4]op{{kind: opWrite, path: f}, {kind: opClose, path: f}}, n: 2, iter: -1}
	}
	src := s.rng.Intn(len(s.dirs))
	dst := (src + 1 + s.rng.Intn(len(s.dirs)-1)) % len(s.dirs) // never src: a same-name rename into src is an error
	name := "/c" + strconv.Itoa(s.iter)
	from, to := s.dirs[src]+name, s.dirs[dst]+name
	st := step{
		ops:  [4]op{{kind: opCreate, path: from}, {kind: opWrite, path: from}, {kind: opRename, path: from, to: to}, {kind: opUnlink, path: to}},
		n:    4,
		iter: s.iter,
		src:  src,
		dst:  dst,
	}
	s.iter++
	return st
}

// generator executes an opStream against the simulated cluster and keeps the
// tallies the oracle compares the pipeline's output with.
type generator struct {
	s    *opStream
	cl   *lustre.Client
	logs []*lustre.Changelog

	dirMDT []uint8 // churn: MDT owning each directory, learned by probing

	events int // events the ops issued since the namespace build must produce
	live   int // files created minus files unlinked
	built  int // live as the namespace build left it: the constant-namespace rule says it stays there
	opErrs int

	// finalDir[iter-iterBase] is the directory file c<iter> is unlinked from:
	// the generator's own record of the final name. Sized once per phase
	// (beginPhase) so the consumer side can read it without a lock.
	finalDir []int32
	iterBase int
}

// newGenerator builds the namespace on cluster and purges the records that
// leaves in the Changelogs (MKDIR/CREAT and the probes), so the first event
// the pipeline sees is the workload's.
func newGenerator(cluster *lustre.Cluster, churn bool, seed int64) (*generator, error) {
	g := &generator{s: newOpStream(churn, seed), cl: cluster.Client()}
	for i := 0; ; i++ {
		log, err := cluster.Changelog(i)
		if err != nil {
			break
		}
		g.logs = append(g.logs, log)
	}
	if !churn {
		for d := 0; d < hotDirs; d++ {
			if err := g.cl.MkdirAll(fmt.Sprintf("/hot/d%02d", d)); err != nil {
				return nil, err
			}
		}
		for _, f := range g.s.files {
			if err := g.cl.Create(f); err != nil {
				return nil, err
			}
			g.live++
		}
		g.built = g.live
		g.purge()
		return g, nil
	}
	// A cross-MDT rename journals one extra record (RNMTO), so the expected
	// event count needs each directory's MDT. Probe it from outside: a
	// Create lands in the Changelog of the parent directory's MDT.
	g.dirMDT = make([]uint8, len(g.s.dirs))
	for i, d := range g.s.dirs {
		if err := g.cl.MkdirAll(d); err != nil {
			return nil, err
		}
		before := make([]int, len(g.logs))
		for m, log := range g.logs {
			before[m] = log.Len()
		}
		probe := d + "/probe"
		if err := g.cl.Create(probe); err != nil {
			return nil, err
		}
		for m, log := range g.logs {
			if log.Len() > before[m] {
				g.dirMDT[i] = uint8(m)
			}
		}
		if err := g.cl.Unlink(probe); err != nil {
			return nil, err
		}
	}
	g.purge()
	return g, nil
}

// purge discards whatever the Changelogs hold, as a reader that has consumed
// everything, now and later: with no other reader registered the records are
// dropped at once, and the reader never holds retention afterwards.
func (g *generator) purge() {
	for _, log := range g.logs {
		_ = log.Clear(log.Register(), math.MaxUint64) // fails only for an unregistered reader
	}
}

// beginPhase sizes the final-name record for up to maxSteps further steps.
func (g *generator) beginPhase(maxSteps int) {
	if g.s.churn {
		g.iterBase = g.s.iter
		g.finalDir = make([]int32, maxSteps)
	}
}

// issue runs the next step. Operation errors are counted, never expected:
// the workloads are built so that no operation fails.
func (g *generator) issue() {
	st := g.s.next()
	if st.iter >= 0 {
		g.finalDir[st.iter-g.iterBase] = int32(st.dst)
	}
	for _, o := range st.ops[:st.n] {
		var err error
		n, live := 1, 0
		switch o.kind {
		case opWrite:
			err = g.cl.Write(o.path, 1)
		case opClose:
			err = g.cl.CloseFile(o.path)
		case opCreate:
			err, live = g.cl.Create(o.path), 1
		case opUnlink:
			err, live = g.cl.Unlink(o.path), -1
		case opRename:
			err = g.cl.Rename(o.path, o.to)
			n = 2 // MOVED_FROM + MOVED_TO from the RENME record
			if g.dirMDT[st.dst] != g.dirMDT[st.src] {
				n = 3 // plus MOVED_TO from the target MDT's RNMTO record
			}
		}
		if err != nil {
			g.opErrs++
			continue
		}
		g.events += n
		g.live += live
	}
}

// preload issues steps until at least n more events are journalled and
// returns the exact number issued. With no collector running the records
// simply accumulate in the Changelogs.
func (g *generator) preload(n int) int {
	start := g.events
	for g.events-start < n {
		g.issue()
	}
	return g.events - start
}

// backlog is the number of records retained across the Changelogs.
func (g *generator) backlog() int {
	n := 0
	for _, log := range g.logs {
		n += log.Len()
	}
	return n
}
