package lustre

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Namespace errors.
var (
	ErrNotExist  = errors.New("lustre: no such file or directory")
	ErrExist     = errors.New("lustre: file exists")
	ErrNotDir    = errors.New("lustre: not a directory")
	ErrIsDir     = errors.New("lustre: is a directory")
	ErrNotEmpty  = errors.New("lustre: directory not empty")
	ErrBadPath   = errors.New("lustre: invalid path")
	ErrNoSpace   = errors.New("lustre: no space left on device")
	ErrStaleFID  = errors.New("lustre: fid2path: no such file or directory") // deleted or unknown FID
	ErrNoSuchMDT = errors.New("lustre: no such MDT")
)

// Config describes a simulated cluster. The testbed presets in testbeds.go
// reproduce the paper's three deployments.
type Config struct {
	Name       string
	NumMDS     int   // metadata servers, one MDT each (DNE when > 1)
	NumOSS     int   // object storage servers
	OSTsPerOSS int   // object storage targets per OSS
	OSTSizeGB  int   // capacity per OST
	StripeSize int64 // bytes per stripe unit
	StripeCnt  int   // default stripe count for new files

	// Fid2PathCost is the simulated service time of one fid2path
	// invocation. The cluster does not wait itself; the component that
	// calls Fid2Path (the collector's resolver) spends the cost on its
	// pacing throttle, so the cost occupies that component's service
	// capacity exactly as the slow external tool would (§IV-2:
	// "the fid2path tool is slow and can delay the reporting of events").
	Fid2PathCost time.Duration

	// OpLatency simulates metadata-operation service time by record type
	// (zero = no pacing). A paced client spends the latency on its own
	// throttle; it determines the baseline event generation rates of
	// Table V.
	OpLatency map[RecType]time.Duration
}

// withDefaults fills zero fields with sane values.
func (c Config) withDefaults() Config {
	if c.NumMDS <= 0 {
		c.NumMDS = 1
	}
	if c.NumOSS <= 0 {
		c.NumOSS = 1
	}
	if c.OSTsPerOSS <= 0 {
		c.OSTsPerOSS = 1
	}
	if c.OSTSizeGB <= 0 {
		c.OSTSizeGB = 10
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 1 << 20
	}
	if c.StripeCnt <= 0 {
		c.StripeCnt = 1
	}
	return c
}

// node is a namespace entry. Directories carry the MDT that owns them
// (Lustre DNE distributes directories across MDTs); a file's metadata
// operations are journalled on its parent directory's MDT.
type node struct {
	fid      FID
	name     string
	parent   *node
	dir      bool
	mdt      int
	size     int64
	mode     uint32
	mtime    time.Time
	children map[string]*node
	stripes  []stripeRef
	nlink    int
}

// Cluster is the simulated file system: the distributed namespace, one
// Changelog per MDT, and the object storage pool.
type Cluster struct {
	cfg  Config
	mu   sync.Mutex
	root *node
	// byFID indexes live nodes; fid2path fails for FIDs absent here,
	// which is exactly the deleted-FID behaviour Algorithm 1 handles.
	byFID map[FID]*node
	// extraLinks lists the additional dentries of hard-linked files
	// (only populated once a file has more than one name).
	extraLinks map[FID][]*node
	allocators []*fidAllocator
	changelogs []*Changelog
	oss        []*OSS
	nextOST    int
	clock      func() time.Time

	fid2pathCalls atomic.Uint64
	files, dirs   atomic.Int64
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:        cfg,
		byFID:      make(map[FID]*node),
		extraLinks: make(map[FID][]*node),
		clock:      time.Now,
	}
	for i := 0; i < cfg.NumMDS; i++ {
		c.allocators = append(c.allocators, newFIDAllocator(i))
		c.changelogs = append(c.changelogs, newChangelog(i))
	}
	for i := 0; i < cfg.NumOSS; i++ {
		c.oss = append(c.oss, newOSS(i, cfg.OSTsPerOSS, int64(cfg.OSTSizeGB)<<30))
	}
	c.root = &node{
		fid: FID{Seq: 0x200000007, Oid: 1}, name: "/", dir: true,
		mode: 0o755, mtime: c.clock(), children: map[string]*node{}, nlink: 2,
	}
	c.byFID[c.root.fid] = c.root
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumMDS returns the number of metadata servers.
func (c *Cluster) NumMDS() int { return len(c.changelogs) }

// Changelog returns MDT i's journal.
func (c *Cluster) Changelog(i int) (*Changelog, error) {
	if i < 0 || i >= len(c.changelogs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchMDT, i)
	}
	return c.changelogs[i], nil
}

// SetClock replaces the time source (deterministic tests).
func (c *Cluster) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
}

// Counts returns the numbers of live regular files and directories
// (excluding the root).
func (c *Cluster) Counts() (files, dirs int64) {
	return c.files.Load(), c.dirs.Load()
}

// Fid2PathCalls returns the lifetime number of fid2path invocations.
func (c *Cluster) Fid2PathCalls() uint64 { return c.fid2pathCalls.Load() }

// DirMDT reports which MDT a directory created at fullPath would be placed
// on — used by benchmarks to pin per-MDS workloads (the paper's Iota
// numbers are per-MDS, §V-D2).
func (c *Cluster) DirMDT(fullPath string) int { return c.dirMDT(fullPath) }

// dirMDT chooses the MDT for a new directory. MDT0 is the namespace root;
// with DNE, directories hash across all MDTs (modelling DNE remote
// directories) so that metadata load and Changelog records spread over
// every MDS, as on Iota (§V-D2).
func (c *Cluster) dirMDT(fullPath string) int {
	if len(c.changelogs) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(fullPath))
	return int(h.Sum32()) % len(c.changelogs)
}

// appendPath appends the absolute path of n to dst, growing dst once to the
// size a first walk up the tree measures and filling it leaf first on a
// second. Caller holds c.mu.
func appendPath(dst []byte, n *node) []byte {
	if n.parent == nil {
		return append(dst, '/')
	}
	size := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		size += 1 + len(cur.name)
	}
	dst = slices.Grow(dst, size)
	end := len(dst) + size
	dst = dst[:end]
	for cur := n; cur.parent != nil; cur = cur.parent {
		end -= len(cur.name)
		copy(dst[end:], cur.name)
		end--
		dst[end] = '/'
	}
	return dst
}

// AppendFid2Path appends the current absolute path of fid to dst,
// simulating the `lfs fid2path` tool: it is deliberately expensive
// (Config.Fid2PathCost) and fails with ErrStaleFID for FIDs whose objects
// have been removed (§IV-2: "In the case of UNLNK and RMDIR events,
// resolving target FIDs will give an error because that FID has already
// been deleted"), leaving dst as it was. The error is the bare sentinel: a
// dead FID is Algorithm 1's expected branch, taken about once per two
// records of a drained backlog, and the caller already holds the FID should
// it want it in a message. Into a buffer with room it allocates nothing.
func (c *Cluster) AppendFid2Path(dst []byte, fid FID) ([]byte, error) {
	c.fid2pathCalls.Add(1)
	c.mu.Lock()
	n, ok := c.byFID[fid]
	if ok {
		dst = appendPath(dst, n)
	}
	c.mu.Unlock()
	if !ok {
		return dst, ErrStaleFID
	}
	return dst, nil
}

// Fid2Path is AppendFid2Path returning a string.
func (c *Cluster) Fid2Path(fid FID) (string, error) {
	p, err := c.AppendFid2Path(nil, fid)
	return string(p), err
}

// Fid2PathCost returns the configured per-invocation service time.
func (c *Cluster) Fid2PathCost() time.Duration { return c.cfg.Fid2PathCost }

// walk resolves p. Caller holds c.mu.
func (c *Cluster) walk(p string) (*node, error) {
	if p == "/" {
		return c.root, nil
	}
	cur := c.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if !cur.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
		}
		cur = next
	}
	return cur, nil
}

func (c *Cluster) walkParent(p string) (*node, string, error) {
	dir, base := path.Split(p)
	if base == "" {
		return nil, "", fmt.Errorf("%w: %q", ErrBadPath, p)
	}
	parent, err := c.walk(path.Clean(dir))
	if err != nil {
		return nil, "", err
	}
	if !parent.dir {
		return nil, "", fmt.Errorf("%w: %q", ErrNotDir, dir)
	}
	return parent, base, nil
}

func cleanAbs(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, p)
	}
	return path.Clean(p), nil
}

// Info describes a namespace entry.
type Info struct {
	Path  string
	Name  string
	FID   FID
	IsDir bool
	Size  int64
	Mode  uint32
	MTime time.Time
	MDT   int
	Nlink int
}

// Stat returns information about p.
func (c *Cluster) Stat(p string) (Info, error) {
	p, err := cleanAbs(p)
	if err != nil {
		return Info{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.walk(p)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Path: p, Name: path.Base(p), FID: n.fid, IsDir: n.dir,
		Size: n.size, Mode: n.mode, MTime: n.mtime, MDT: n.mdt, Nlink: n.nlink,
	}, nil
}

// Exists reports whether p exists.
func (c *Cluster) Exists(p string) bool {
	_, err := c.Stat(p)
	return err == nil
}

// ReadDir lists the entries of directory p (unordered).
func (c *Cluster) ReadDir(p string) ([]Info, error) {
	p, err := cleanAbs(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.walk(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
	}
	out := make([]Info, 0, len(n.children))
	for name, ch := range n.children {
		out = append(out, Info{
			Path: path.Join(p, name), Name: name, FID: ch.fid, IsDir: ch.dir,
			Size: ch.size, Mode: ch.mode, MTime: ch.mtime, MDT: ch.mdt, Nlink: ch.nlink,
		})
	}
	return out, nil
}
