// Package resolve is the shared fid→path resolution layer: Algorithm 1
// (§IV-2) — Changelog record translation through an LRU cache with
// fid2path fallback — extracted out of the scalable collector so every
// consumer of Lustre records (scalable.Collector, dsi/lustredsi, benches)
// runs one implementation.
//
// A Resolver owns the concurrent machinery the paper's per-event cost
// analysis calls for: a sharded cache with singleflight miss coalescing
// and TTL'd negative caching of stale-FID failures (internal/cache), and
// a pool of pacing lanes so that, driven from a parallel pipeline stage
// (pipeline.MapN), N workers model N parallel resolution servers — the
// simulated fid2path cost is spent on per-worker throttles instead of one
// global serial server, and resolve-stage throughput scales with workers.
package resolve

import (
	"errors"
	"path"
	"strings"
	"sync/atomic"
	"time"

	"fsmonitor/internal/cache"
	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/pace"
	"fsmonitor/internal/pipeline"
)

// ParentDirectoryRemoved is the path component reported when both the
// target and its parent FID fail to resolve (Algorithm 1 line 41).
const ParentDirectoryRemoved = "ParentDirectoryRemoved"

// Backend is the slice of the cluster a resolver needs: the fid2path tool
// and its simulated per-invocation cost. *lustre.Cluster implements it.
type Backend interface {
	Fid2Path(lustre.FID) (string, error)
	Fid2PathCost() time.Duration
}

// Options configures a Resolver. Backend is required.
type Options struct {
	// Backend resolves FIDs (required).
	Backend Backend
	// MountPoint is the client mount path events are reported under
	// (default "/mnt/lustre").
	MountPoint string
	// Source tags emitted events (default "lustre").
	Source string
	// CacheSize is the fid2path cache capacity; 0 disables caching (the
	// paper's "without cache" configuration — no coalescing or negative
	// caching either, so the baseline stays a pure tool-per-miss path).
	CacheSize int
	// CacheShards is the cache shard count (default
	// pipeline.DefaultCacheShards).
	CacheShards int
	// NegativeTTL is how long stale-FID failures are negative-cached.
	// <= 0 disables negative caching (the default): Algorithm 1 then
	// pays the fid2path call on every dead-FID miss, which is the
	// paper's behaviour and what Table VIII's cache-size sweep measures.
	// pipeline.DefaultNegativeTTL is the recommended value when
	// enabling.
	NegativeTTL time.Duration
	// Workers is the number of pacing lanes — the parallel resolution
	// servers the resolver models. It should match the worker count of
	// the pipeline stage driving TranslateBlock (default
	// pipeline.DefaultResolveWorkers). With more than one worker,
	// concurrent batches race the cache-priming side effects that
	// dead-FID reconstruction depends on (a CREAT in one batch primes
	// the mapping a later MTIME needs once the FID is dead), so parallel
	// translation can degrade more paths to ParentDirectoryRemoved than
	// the serial collector; event order is unaffected.
	Workers int
	// EventOverhead is the accounted processing cost per record beyond
	// resolution (parsing, queueing; default 3µs).
	EventOverhead time.Duration
	// CacheLookupCost models one cache access including the maintenance
	// pressure of larger tables; 0 derives it from CacheSize (see
	// LookupCost).
	CacheLookupCost time.Duration
}

func (o Options) withDefaults() Options {
	if o.MountPoint == "" {
		o.MountPoint = "/mnt/lustre"
	}
	if o.Source == "" {
		o.Source = "lustre"
	}
	if o.CacheShards <= 0 {
		o.CacheShards = pipeline.DefaultCacheShards
	}
	if o.NegativeTTL < 0 {
		o.NegativeTTL = 0
	}
	if o.Workers <= 0 {
		o.Workers = pipeline.DefaultResolveWorkers
	}
	if o.EventOverhead <= 0 {
		o.EventOverhead = 3 * time.Microsecond
	}
	if o.CacheLookupCost <= 0 {
		o.CacheLookupCost = LookupCost(o.CacheSize)
	}
	return o
}

// LookupCost models the per-access cost of the fid→path cache: a base
// hash probe plus slight growth with table size (memory pressure). This
// is what makes oversized caches (7 500 in Table VIII) marginally worse
// than the 5 000-entry sweet spot.
func LookupCost(size int) time.Duration {
	// 400ns base probe + 40ps per cached entry of table pressure.
	return 400*time.Nanosecond + time.Duration(size*40/1000)*time.Nanosecond
}

// Stats is a snapshot of a resolver's counters.
type Stats struct {
	// Fid2PathCalls counts backend tool invocations.
	Fid2PathCalls uint64
	// Fid2PathStale counts invocations that failed with ErrStaleFID —
	// the expected failures Algorithm 1 handles for deleted FIDs
	// (UNLNK/RENME paths), not errors.
	Fid2PathStale uint64
	// Fid2PathErrors counts invocations that failed for any other
	// reason — real errors.
	Fid2PathErrors uint64
	// Cache is the aggregated cache snapshot (zero when caching is off).
	Cache cache.Stats
}

// Resolver translates Changelog records into events per Algorithm 1. Its
// methods are safe for concurrent use by up to Workers goroutines; the
// per-FID ordering of the translated stream is the caller's concern
// (pipeline.MapN preserves it).
type Resolver struct {
	opts  Options
	cache *cache.Cache[lustre.FID, string] // nil when CacheSize == 0

	// lanes is the pool of pacing throttles: each concurrent
	// TranslateBlock call checks one out for its batch, modelling one of
	// Workers parallel resolution servers. all keeps them enumerable for
	// accounting.
	lanes chan *pace.Throttle
	all   []*pace.Throttle

	calls atomic.Uint64
	stale atomic.Uint64
	errs  atomic.Uint64
}

// New builds a Resolver. It returns an error only on a missing backend.
func New(opts Options) (*Resolver, error) {
	opts = opts.withDefaults()
	if opts.Backend == nil {
		return nil, errors.New("resolve: Options.Backend is required")
	}
	r := &Resolver{
		opts:  opts,
		lanes: make(chan *pace.Throttle, opts.Workers),
	}
	for i := 0; i < opts.Workers; i++ {
		th := pace.NewThrottle()
		r.all = append(r.all, th)
		r.lanes <- th
	}
	if opts.CacheSize > 0 {
		r.cache = cache.New[lustre.FID, string](cache.Config[lustre.FID]{
			Capacity:    opts.CacheSize,
			Shards:      opts.CacheShards,
			Hash:        lustre.FID.Hash,
			NegativeTTL: opts.NegativeTTL,
			Negative:    isStale,
		})
	}
	return r, nil
}

// Workers returns the configured parallelism (pacing lane count).
func (r *Resolver) Workers() int { return r.opts.Workers }

// MountPoint returns the event root paths are reported under.
func (r *Resolver) MountPoint() string { return r.opts.MountPoint }

// laneAcc accumulates one batch's simulated costs against a pacing lane
// and settles them in a single Throttle.Spend. Per-record accounting paid
// the throttle's mutex (and a possible timer sleep) up to four times per
// record; the accumulator spends the identical total once per batch, so
// the modeled rate is unchanged while the bookkeeping overhead drops from
// O(records) to O(batches).
type laneAcc struct {
	th   *pace.Throttle
	owed time.Duration
}

func (a *laneAcc) spend(d time.Duration) { a.owed += d }

func (a *laneAcc) settle() {
	if a.owed > 0 {
		a.th.Spend(a.owed)
		a.owed = 0
	}
}

// TranslateBlock runs Algorithm 1 over recs, appending the resulting
// events directly into blk — the zero-copy capture path: the collector
// hands the block straight to the wire without materializing an []Event.
// It checks one pacing lane out for the whole batch, so up to Workers
// concurrent calls progress in parallel.
func (r *Resolver) TranslateBlock(blk *events.Block, recs []lustre.Record) {
	th := <-r.lanes
	acc := laneAcc{th: th}
	for i := range recs {
		r.appendRecord(&acc, blk, &recs[i])
	}
	acc.settle()
	r.lanes <- th
}

// Stats returns a snapshot of the resolver's counters.
func (r *Resolver) Stats() Stats {
	st := Stats{
		Fid2PathCalls:  r.calls.Load(),
		Fid2PathStale:  r.stale.Load(),
		Fid2PathErrors: r.errs.Load(),
	}
	if r.cache != nil {
		st.Cache = r.cache.Stats()
	}
	return st
}

// Busy returns total service time spent across every lane.
func (r *Resolver) Busy() time.Duration {
	var total time.Duration
	for _, th := range r.all {
		total += th.Busy()
	}
	return total
}

// Utilization returns busy time over elapsed wall time summed across
// lanes — the "cores used" measure, which exceeds 1.0 when more than one
// worker is saturated.
func (r *Resolver) Utilization() float64 {
	var total float64
	for _, th := range r.all {
		total += th.Utilization()
	}
	return total
}

// ResetAccounting restarts every lane's utilization window.
func (r *Resolver) ResetAccounting() {
	for _, th := range r.all {
		th.Reset()
	}
}

// isStale reports the expected deleted-FID failure. The backend returns the
// sentinel bare (about every other record of a drained backlog takes this
// branch), so the comparison almost never reaches errors.Is.
func isStale(err error) bool {
	return err == lustre.ErrStaleFID || errors.Is(err, lustre.ErrStaleFID)
}

// invoke runs the fid2path tool once, accounting its cost on the caller's
// lane; stale FIDs are the expected outcome Algorithm 1 handles, anything
// else is a real error.
func (r *Resolver) invoke(acc *laneAcc, fid lustre.FID) (string, error) {
	acc.spend(r.opts.Backend.Fid2PathCost())
	r.calls.Add(1)
	p, err := r.opts.Backend.Fid2Path(fid)
	switch {
	case err == nil:
	case isStale(err):
		r.stale.Add(1)
	default:
		r.errs.Add(1)
	}
	return p, err
}

// fid2path resolves through the cache per Algorithm 1 (cache.get; on miss
// invoke the tool and cache the mapping), accounting the costs on the
// caller's lane. Concurrent misses on one FID coalesce into a single tool
// invocation, and stale-FID failures are negative-cached so storms of
// records for dead FIDs stop re-invoking the tool.
//
// Hit or miss it is one probe — GetOrLoad's — and one modeled lookup: cost
// is spent per probe, never per lock. The loader closure is not retained by
// GetOrLoad, so it lives on this frame and a hit allocates nothing
// (TestTranslateAllocs gates it).
func (r *Resolver) fid2path(acc *laneAcc, fid lustre.FID) (string, error) {
	if fid.IsZero() {
		// The record carries no FID in this slot (e.g. MTIME records
		// have no parent FID); there is nothing to invoke the tool on.
		return "", lustre.ErrStaleFID
	}
	if r.cache == nil {
		return r.invoke(acc, fid)
	}
	acc.spend(r.opts.CacheLookupCost)
	return r.cache.GetOrLoad(fid, func() (string, error) { return r.invoke(acc, fid) })
}

// cacheOnly consults the cache without falling back to fid2path — used for
// deleted FIDs whose resolution is known to fail but whose mapping may
// still be cached from the create.
func (r *Resolver) cacheOnly(acc *laneAcc, fid lustre.FID) (string, bool) {
	if r.cache == nil {
		return "", false
	}
	acc.spend(r.opts.CacheLookupCost)
	return r.cache.Get(fid)
}

// joined is a resolved path as directory + final component, the form
// events.Block.AppendJoined takes: a path reconstructed from a parent
// directory is joined in the block's arena and never becomes a string. A
// whole path (a fid2path result, a cached mapping) has an empty name.
type joined struct{ dir, name string }

// removedDir stands in for a parent that no longer resolves either.
const removedDir = "/" + ParentDirectoryRemoved + "/"

// join is the one place a parent directory meets a record's name. A plain
// component stays apart; a name path.Join would rewrite (empty, dotted,
// slashed) still goes through it.
func join(parent, name string) joined {
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return joined{dir: path.Join(parent, name)}
	}
	return joined{parent, name}
}

// String builds the path with one concatenation — for the reconstructions
// that enter the cache, the only strings the miss path allocates.
func (j joined) String() string {
	switch {
	case j.name == "":
		return j.dir
	case strings.HasSuffix(j.dir, "/"):
		return j.dir + j.name
	}
	return j.dir + "/" + j.name
}

// viaParent is Algorithm 1's fallback for a FID that does not resolve: the
// parent's path plus the record's name, or — the parent deleted as well
// (line 41) — ParentDirectoryRemoved, reported as !ok.
func (r *Resolver) viaParent(acc *laneAcc, pfid lustre.FID, name string) (joined, bool) {
	parent, err := r.fid2path(acc, pfid)
	if err != nil {
		return joined{removedDir, name}, false
	}
	return join(parent, name), true
}

// subject resolves the FID a record is about. If it vanished between the
// operation and our processing the path is reconstructed from the parent,
// and with remember the reconstruction is cached so later records for the
// same (dead) FID — its MTIME, its UNLNK — resolve without further tool
// invocations.
func (r *Resolver) subject(acc *laneAcc, fid, pfid lustre.FID, name string, remember bool) joined {
	if p, err := r.fid2path(acc, fid); err == nil {
		return joined{dir: p}
	}
	j, ok := r.viaParent(acc, pfid, name)
	if ok && remember && r.cache != nil && !fid.IsZero() {
		p := j.String()
		r.cache.Set(fid, p)
		return joined{dir: p}
	}
	return j
}

// removed resolves the name an UNLNK/RMDIR took away. The target's mapping
// may survive in the cache from its CREAT; it is trusted only if it ends in
// the record's name — a cached path under another name is a hard link that
// is still there, and stays cached. A cache miss means fid2path, which
// fails for deleted FIDs (the call is still paid, though the negative cache
// absorbs repeats); a target that does resolve has a surviving hard link
// and fid2path reports that name, so the removed one comes via the parent.
func (r *Resolver) removed(acc *laneAcc, rec *lustre.Record) joined {
	target, cached := r.cacheOnly(acc, rec.TFid)
	if cached && path.Base(target) == rec.Name {
		r.cache.Delete(rec.TFid) // the FID is dead; keep the cache clean
		return joined{dir: target}
	}
	var err error
	if !cached {
		target, err = r.fid2path(acc, rec.TFid)
	}
	p, ok := r.viaParent(acc, rec.PFid, rec.Name)
	if !ok && err == nil {
		return joined{dir: target}
	}
	return p
}

// appendRecord implements Algorithm 1: resolve the record's FIDs into
// absolute paths, handling deleted targets (UNLNK/RMDIR resolve the
// parent; if the parent is gone too the event reports
// ParentDirectoryRemoved) and renames (resolve old and new paths). The
// resulting events are appended to blk. AppendJoined only fails on
// wire-limit violations (a 64KiB path, a 512Mi-event batch) that
// resolution of a Changelog batch cannot produce.
func (r *Resolver) appendRecord(acc *laneAcc, blk *events.Block, rec *lustre.Record) {
	acc.spend(r.opts.EventOverhead)
	e := events.Event{Root: r.opts.MountPoint, Time: rec.Time, Source: r.opts.Source}
	var p joined
	switch rec.Type {
	case lustre.RecMark:
		return

	case lustre.RecUnlnk, lustre.RecRmdir:
		e.Op = events.OpDelete
		if rec.Type == lustre.RecRmdir {
			e.Op |= events.OpIsDir
		}
		p = r.removed(acc, rec)

	case lustre.RecRenme:
		// Old path: source parent (sp=[]) + old name; new path: the
		// renamed file's FID (s=[]), which resolves to its new
		// location. Any cached mapping for the renamed FID predates the
		// rename and must be invalidated before resolving, or the event
		// would report the stale source path as the destination.
		old, _ := r.viaParent(acc, rec.SPFid, rec.Name)
		if r.cache != nil {
			r.cache.Delete(rec.SFid)
		}
		p = r.subject(acc, rec.SFid, rec.PFid, rec.SName, true)
		e.Cookie = uint32(rec.Index)
		e.Op, e.Path = events.OpMovedFrom, old.dir
		blk.AppendJoined(&e, old.name, "")
		e.Op, e.Path, e.OldPath = events.OpMovedTo, p.dir, old.dir
		blk.AppendJoined(&e, p.name, old.name)
		return

	case lustre.RecRnmto:
		e.Op = events.OpMovedTo
		p = r.subject(acc, rec.TFid, rec.PFid, rec.Name, false)

	default:
		// Creations and in-place updates: resolve the target FID.
		if e.Op = RecTypeToOp(rec.Type); e.Op == 0 {
			return
		}
		p = r.subject(acc, rec.TFid, rec.PFid, rec.Name, true)
	}
	e.Path = p.dir
	blk.AppendJoined(&e, p.name, "")
}

// RecTypeToOp maps Changelog record types onto the standard vocabulary.
func RecTypeToOp(t lustre.RecType) events.Op {
	switch t {
	case lustre.RecCreat, lustre.RecMknod:
		return events.OpCreate
	case lustre.RecMkdir:
		return events.OpCreate | events.OpIsDir
	case lustre.RecHlink, lustre.RecSlink:
		return events.OpCreate
	case lustre.RecMtime:
		return events.OpModify
	case lustre.RecCtime, lustre.RecSattr:
		return events.OpAttrib
	case lustre.RecXattr:
		return events.OpXattr
	case lustre.RecTrunc:
		return events.OpTruncate
	case lustre.RecClose:
		return events.OpCloseWrite
	case lustre.RecIoctl:
		return events.OpAttrib
	case lustre.RecOpen:
		return events.OpOpen
	case lustre.RecAtime:
		return events.OpAccess
	default:
		return 0
	}
}
