// Package robinhood implements the comparison baseline of §V-D5: a
// Robinhood-style policy engine that collects Lustre Changelog events with
// an iterative, client-side architecture. One server process on a Lustre
// client polls every MDS "one at a time in a round robin fashion"
// (§II-B2, Fig. 2), resolves FIDs itself, and saves events into a local
// database. There is no per-MDS collector and no aggregator on the MGS —
// the architectural difference FSMonitor's parallel design is evaluated
// against.
//
// Like the real Robinhood, the server can drive policies: rules whose
// filter matches an event trigger an action.
package robinhood

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lru"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/pace"
	"fsmonitor/internal/resolve"
	"fsmonitor/internal/telemetry"
)

// Options configures a Robinhood server.
type Options struct {
	// Cluster is the monitored file system.
	Cluster *lustre.Cluster
	// MountPoint is the event root (default "/mnt/lustre").
	MountPoint string
	// CacheSize is the client-side fid2path cache (0 = disabled).
	CacheSize int
	// BatchSize bounds records per Changelog poll (default 512).
	BatchSize int
	// PollCost is the accounted cost of one Changelog poll RPC to an
	// MDS (default 200µs) — the per-switch price of round-robin
	// iteration.
	PollCost time.Duration
	// EventOverhead is the accounted per-event processing cost
	// (default 3µs).
	EventOverhead time.Duration
	// IdleWait is the sleep when a full round finds no records
	// (default 1ms).
	IdleWait time.Duration
	// Store is the local database (nil = in-memory).
	Store *eventstore.Store
	// Telemetry, when non-nil, mirrors the server into the unified
	// registry under fsmon.robinhood.* — the comparison system reports
	// through the same namespace as the scalable monitor, so §V-D5
	// head-to-heads read off one snapshot. Nil costs nothing.
	Telemetry *telemetry.Registry
	// Logger receives component-tagged structured logs; nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MountPoint == "" {
		o.MountPoint = "/mnt/lustre"
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 512
	}
	if o.PollCost <= 0 {
		o.PollCost = 200 * time.Microsecond
	}
	if o.EventOverhead <= 0 {
		o.EventOverhead = 3 * time.Microsecond
	}
	if o.IdleWait <= 0 {
		o.IdleWait = time.Millisecond
	}
	return o
}

// Rule is one policy: events matching Filter trigger Action.
type Rule struct {
	Name   string
	Filter iface.Filter
	Action func(events.Event)
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Processed     uint64
	Fid2PathCalls uint64
	RulesFired    uint64
	Cache         lru.Stats
	BusyTime      time.Duration
	Utilization   float64
}

// Server is a running Robinhood-style collector and policy engine.
type Server struct {
	opts     Options
	cluster  *lustre.Cluster
	store    *eventstore.Store
	ownStore bool
	// res is Algorithm 1, the implementation the collectors run: §V-D5
	// compares architectures, so both sides translate a record the same
	// way. One lane — the server is a single client-side process.
	res *resolve.Resolver
	// throttle accounts the poll RPCs; translation is accounted on the
	// resolver's lane.
	throttle *pace.Throttle
	slog     *slog.Logger

	mu    sync.Mutex
	rules []Rule

	processed  atomic.Uint64
	rulesFired atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates and starts the server.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Cluster == nil {
		return nil, errors.New("robinhood: Options.Cluster is required")
	}
	res, err := resolve.New(resolve.Options{
		Backend:       opts.Cluster,
		MountPoint:    opts.MountPoint,
		Source:        "robinhood",
		CacheSize:     opts.CacheSize,
		Workers:       1,
		EventOverhead: opts.EventOverhead,
		// A client-side probe, flat in the table size.
		CacheLookupCost: 500 * time.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	store := opts.Store
	own := false
	if store == nil {
		store, err = eventstore.New(eventstore.Options{})
		if err != nil {
			return nil, err
		}
		own = true
	}
	s := &Server{
		opts:     opts,
		cluster:  opts.Cluster,
		store:    store,
		ownStore: own,
		res:      res,
		throttle: pace.NewThrottle(),
		done:     make(chan struct{}),
	}
	s.slog = telemetry.ComponentLogger(opts.Logger, "robinhood")
	s.registerTelemetry(opts.Telemetry)
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// registerTelemetry mirrors the server's counters into reg under
// fsmon.robinhood.*. All GaugeFuncs — the round-robin loop is untouched.
func (s *Server) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const prefix = "fsmon.robinhood"
	reg.GaugeFunc(prefix+".processed", func() float64 { return float64(s.processed.Load()) })
	reg.GaugeFunc(prefix+".fid2path_calls", func() float64 { return float64(s.res.Stats().Fid2PathCalls) })
	reg.GaugeFunc(prefix+".rules_fired", func() float64 { return float64(s.rulesFired.Load()) })
	reg.GaugeFunc(prefix+".utilization", s.utilization)
	s.store.RegisterTelemetry(reg, prefix+".store")
	if s.opts.CacheSize <= 0 {
		return
	}
	reg.GaugeFunc(prefix+".cache.hit_rate", func() float64 { return s.res.Stats().Cache.HitRate() })
	reg.GaugeFunc(prefix+".cache.len", func() float64 { return float64(s.res.Stats().Cache.Len) })
}

// AddRule installs a policy rule.
func (s *Server) AddRule(r Rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, r)
}

// run is the iterative main loop: poll MDS 0, then 1, ..., wrapping
// around — the round-robin collection the paper contrasts with
// FSMonitor's concurrent collectors.
func (s *Server) run() {
	defer s.wg.Done()
	n := s.cluster.NumMDS()
	readers := make([]string, n)
	since := make([]uint64, n)
	logs := make([]*lustre.Changelog, n)
	for i := 0; i < n; i++ {
		log, err := s.cluster.Changelog(i)
		if err != nil {
			s.slog.Error("changelog attach failed, server stopping", "mdt", i, "err", err)
			return
		}
		logs[i] = log
		readers[i] = log.Register()
	}
	defer func() {
		for i, log := range logs {
			_ = log.Deregister(readers[i])
		}
	}()
	blk := events.NewBlock(s.opts.BatchSize, 0)
	for {
		sawAny := false
		for i := 0; i < n; i++ {
			select {
			case <-s.done:
				return
			default:
			}
			// One poll RPC per MDS per round, records or not.
			s.throttle.Spend(s.opts.PollCost)
			recs := logs[i].Read(since[i], s.opts.BatchSize)
			if len(recs) == 0 {
				continue
			}
			sawAny = true
			blk.Reset()
			s.res.TranslateBlock(blk, recs)
			if _, err := s.store.AppendBlock(blk); err != nil {
				s.slog.Error("store append failed, server stopping", "mdt", i, "err", err)
				return
			}
			s.applyRules(blk)
			s.processed.Add(uint64(blk.Len()))
			since[i] = recs[len(recs)-1].Index
			_ = logs[i].Clear(readers[i], since[i])
		}
		if !sawAny {
			select {
			case <-s.done:
				return
			case <-time.After(s.opts.IdleWait):
			}
		}
	}
}

// applyRules runs the policies over a stored batch; a server with no rules
// materializes nothing.
func (s *Server) applyRules(blk *events.Block) {
	s.mu.Lock()
	rules := s.rules
	s.mu.Unlock()
	if len(rules) == 0 {
		return
	}
	blk.Intern() // every row's strings are read below: one copy for all of them
	for i := 0; i < blk.Len(); i++ {
		e := blk.Event(i)
		for _, r := range rules {
			if r.Filter.Match(e) {
				r.Action(e)
				s.rulesFired.Add(1)
			}
		}
	}
}

// Since queries the local database.
func (s *Server) Since(seq uint64, max int) ([]events.Event, error) {
	return s.store.Since(seq, max)
}

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	rs := s.res.Stats()
	return Stats{
		Processed:     s.processed.Load(),
		Fid2PathCalls: rs.Fid2PathCalls,
		RulesFired:    s.rulesFired.Load(),
		Cache:         rs.Cache.Stats,
		BusyTime:      s.throttle.Busy() + s.res.Busy(),
		Utilization:   s.utilization(),
	}
}

// utilization is the one server process's: polling plus translation.
func (s *Server) utilization() float64 { return s.throttle.Utilization() + s.res.Utilization() }

// ResetAccounting restarts the utilization window.
func (s *Server) ResetAccounting() {
	s.throttle.Reset()
	s.res.ResetAccounting()
}

// Close stops the server.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		if s.ownStore {
			s.store.Close()
		}
	})
}
