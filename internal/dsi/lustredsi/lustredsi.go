// Package lustredsi exposes the scalable Lustre monitor (internal/scalable)
// as a Data Storage Interface, so the FSMonitor core drives a distributed
// file system exactly as it drives a local one (§IV: "the design and
// implementation of the FSMonitor's scalable DSI for distributed file
// systems"). Opening the DSI deploys a collector per MDS and an
// aggregator, then feeds the aggregated stream into the standard pipeline.
package lustredsi

import (
	"errors"
	"fmt"

	"fsmonitor/internal/dsi"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/iface"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/scalable"
)

// Name is the backend name in the registry.
const Name = "lustre"

// DefaultCacheSize is the fid2path cache capacity used when the config
// does not specify one — the paper's empirically best value (Table VIII).
// A negative CacheSize disables the cache.
const DefaultCacheSize = 5000

// Register adds the backend; it matches FSType "lustre" exclusively.
func Register(reg *dsi.Registry) {
	reg.Register(Name, func(info dsi.StorageInfo) int {
		if info.FSType == "lustre" {
			return 100
		}
		return 0
	}, New)
}

// Backend carries the Lustre connection for dsi.Config.Backend: the
// cluster plus the scalable monitor's deployment options, declared once —
// in package scalable — and handed to Deploy whole. New fills only what the
// DSI knows better: the mount point, the cache size, and dsi.Config's
// context, registry and logger. CacheSize 0 means DefaultCacheSize and a
// negative one no cache.
type Backend struct {
	Cluster *lustre.Cluster
	scalable.DeployOptions
}

type lustreDSI struct {
	*dsi.Base
	mon *scalable.Monitor
	con *scalable.Consumer
}

// New deploys the scalable monitor for the cluster in cfg.Backend (either
// a *lustre.Cluster or a *Backend).
func New(cfg dsi.Config) (dsi.DSI, error) {
	var be Backend
	switch b := cfg.Backend.(type) {
	case *Backend:
		be = *b
	case *lustre.Cluster:
		be.Cluster = b
	default:
		return nil, fmt.Errorf("lustredsi: cfg.Backend must be *lustredsi.Backend or *lustre.Cluster, got %T", cfg.Backend)
	}
	if be.Cluster == nil {
		return nil, fmt.Errorf("lustredsi: no cluster provided")
	}
	if be.MountPoint == "" {
		be.MountPoint = cfg.Root
	}
	if be.CacheSize == 0 {
		be.CacheSize = DefaultCacheSize
	}
	if be.Context == nil {
		be.Context = cfg.Context
	}
	if be.Telemetry == nil {
		be.Telemetry = cfg.Telemetry
	}
	if be.Logger == nil {
		be.Logger = cfg.Logger
	}
	mon, err := scalable.Deploy(be.Cluster, be.DeployOptions)
	if err != nil {
		return nil, err
	}
	// The DSI forwards everything; recursive/path filtering is the
	// interface layer's job. Consumer-side filtering stays available to
	// direct users of package scalable.
	con, err := mon.NewConsumer(iface.Filter{Recursive: true}, 0)
	if err != nil {
		mon.Close()
		return nil, err
	}
	d := &lustreDSI{
		Base: dsi.NewBase(Name, cfg.Buffer),
		mon:  mon,
		con:  con,
	}
	d.AddPump()
	go d.pump()
	return d, nil
}

// pump forwards the consumer's batches into the DSI channel and, after each,
// acknowledges the tier up to what was forwarded: the core pipeline has its
// own store downstream, and an aggregation tier nobody acknowledges keeps
// every event for the life of the process.
func (d *lustreDSI) pump() {
	defer d.PumpDone()
	// emitted[p] is the highest seq of partition p handed to the DSI channel
	// (seq % partitions names the lane) — not the consumer's LastSeqVector,
	// which runs ahead of what this loop has passed on.
	emitted := make([]uint64, len(d.con.LastSeqVector()))
	parts := uint64(len(emitted))
	for {
		select {
		case <-d.Done():
			return
		case batch, ok := <-d.con.C():
			if !ok {
				return
			}
			for _, e := range batch {
				if !d.Emit(e) {
					return
				}
				p := e.Seq % parts
				emitted[p] = max(emitted[p], e.Seq)
			}
			// A partition store closing under a handoff or shutdown fails
			// one round; the next batch acknowledges past it.
			if err := d.mon.Ack(emitted); err != nil && !errors.Is(err, eventstore.ErrClosed) {
				d.EmitError(err)
			}
		}
	}
}

// Deployment exposes the underlying scalable monitor (stats, recovery).
func (d *lustreDSI) Deployment() *scalable.Monitor { return d.mon }

// ClusterMembers implements dsi.ClusterMemberLister: the aggregation
// cluster's member identities and reachable addresses, nil for classic
// (non-clustered) deployments.
func (d *lustreDSI) ClusterMembers() []dsi.ClusterMember {
	if d.mon.ClusterParts() == 0 {
		return nil
	}
	var out []dsi.ClusterMember
	for _, mi := range d.mon.ClusterMembers() {
		out = append(out, dsi.ClusterMember{ID: mi.ID, Endpoint: mi.Endpoint, Recovery: mi.Recovery})
	}
	return out
}

func (d *lustreDSI) Close() error {
	d.con.Close()
	d.mon.Close()
	d.CloseBase()
	return nil
}
