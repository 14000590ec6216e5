package scalable

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"fsmonitor/internal/cluster"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/telemetry"
)

// clusterReadyTimeout bounds the deployment's wait for membership
// convergence and full partition coverage.
const clusterReadyTimeout = 10 * time.Second

// clusterIDPrefix picks the member-ID prefix for the deployed nodes.
// Founding deployments keep the stable "n" prefix; joining deployments
// derive a host+pid prefix, so a second process joining via ClusterJoin
// can never reuse the founding process's IDs — two members both claiming
// "n0" would ignore each other's heartbeats and own the same partitions.
func clusterIDPrefix(opts DeployOptions) (string, error) {
	if p := opts.ClusterNodePrefix; p != "" {
		if !cluster.ValidID(p) {
			return "", fmt.Errorf("scalable: invalid ClusterNodePrefix %q (must be non-empty, no '.')", p)
		}
		return p, nil
	}
	if len(opts.ClusterJoin) == 0 {
		return "n", nil
	}
	host, _ := os.Hostname()
	host = sanitizeIDPart(host)
	if host == "" {
		host = "host"
	}
	return fmt.Sprintf("n-%s-%d-", host, os.Getpid()), nil
}

// sanitizeIDPart strips characters that are not valid inside a member ID
// (IDs ride in '.'-separated topic names).
func sanitizeIDPart(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == '.':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// endpointHost extracts the host of a "tcp://host:port" or "host:port"
// address, "" when it has none.
func endpointHost(ep string) string {
	ep = strings.TrimPrefix(ep, "tcp://")
	h, _, err := net.SplitHostPort(ep)
	if err != nil {
		return ""
	}
	return h
}

// clusterBindHost is the host every cluster socket of this deployment
// binds: the ClusterListen host when one is given (so all sockets — not
// just node 0's publisher — are reachable wherever the listen address
// is), the wildcard host when the deployment is otherwise configured for
// cross-process use, loopback for plain local TCP.
func clusterBindHost(opts DeployOptions) string {
	if h := endpointHost(opts.ClusterListen); h != "" {
		return h
	}
	if len(opts.ClusterJoin) > 0 || opts.ClusterListen != "" || opts.ClusterAdvertise != "" {
		return "0.0.0.0"
	}
	return "127.0.0.1"
}

// startMembers brings up Deploy's clustered aggregation tier: N
// aggregators, each a member holding its share of the partitions, in place
// of the single one — members first (and their recovery servers, so the
// advertised address rides in the join hello), then the routing observer
// the collectors will resolve partition owners against. On error the
// caller closes whatever was started.
func (m *Monitor) startMembers() error {
	opts := m.opts
	nodes := opts.ClusterNodes
	if nodes <= 0 {
		nodes = 1
	}
	// Every node must own at least one partition to contribute.
	parts := max(opts.StorePartitions, nodes)
	m.parts = parts
	dlog := telemetry.ComponentLogger(opts.Logger, "deploy")

	prefix, err := clusterIDPrefix(opts)
	if err != nil {
		return err
	}
	// Any cross-process configuration (listen bind, join addresses, an
	// advertise host) forces TCP for every cluster socket: inproc and
	// loopback-only binds have no address an external member could use.
	external := len(opts.ClusterJoin) > 0 || opts.ClusterListen != "" || opts.ClusterAdvertise != ""
	bindHost := clusterBindHost(opts)
	tcpBind := "tcp://" + net.JoinHostPort(bindHost, "0")

	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		ep := m.endpoint("clnode-" + id)
		ctl := ""
		if opts.Transport == "tcp" || external {
			ep, ctl = tcpBind, tcpBind
		}
		if i == 0 && opts.ClusterListen != "" {
			ep = opts.ClusterListen
		}
		join := opts.ClusterJoin
		if i > 0 {
			join = append([]string{m.Nodes[0].CtlEndpoint()}, opts.ClusterJoin...)
		}
		engine, err := eventstore.NewShardedClosed(parts, opts.Store)
		if err != nil {
			return err
		}
		n, err := NewAggregator(AggregatorOptions{
			ID:        id,
			Endpoint:  ep,
			Ctl:       ctl,
			Advertise: opts.ClusterAdvertise,
			Join:      join,
			Engine:    engine,
			Context:   opts.Context,
			Telemetry: opts.Telemetry,
			Logger:    opts.Logger,
		})
		if err != nil {
			return err
		}
		m.Nodes = append(m.Nodes, n)
		recBind := "127.0.0.1:0"
		if opts.Transport == "tcp" || external {
			recBind = net.JoinHostPort(bindHost, "0")
		}
		rec, err := NewRecoveryServer(n, recBind)
		if err != nil {
			return err
		}
		m.recoveries = append(m.recoveries, rec)
		n.SetRecovery(cluster.AdvertiseEndpoint(rec.Addr(), opts.ClusterAdvertise))
		if err := n.Start(); err != nil {
			return err
		}
	}
	for _, n := range m.Nodes {
		if err := n.Membership().WaitMembers(nodes, clusterReadyTimeout); err != nil {
			return err
		}
	}
	if len(opts.ClusterJoin) > 0 {
		// A joiner waits out a couple of heartbeat rounds for the existing
		// members' gossip, then refuses to run if any live member already
		// claims one of its IDs — two members under one ID would ignore
		// each other's heartbeats and append to the same sequence lanes.
		time.Sleep(2 * cluster.DefaultHeartbeatInterval)
		for _, n := range m.Nodes {
			if other, ok := n.Membership().Conflict(); ok {
				return fmt.Errorf("scalable: member ID %q already in use by a live cluster member at %s (set ClusterNodePrefix)", n.ID(), other.Endpoint)
			}
		}
	}
	// With no external members, the in-process nodes must converge on
	// full coverage before collectors start routing; joining an existing
	// cluster leaves coverage to members this process cannot see.
	if len(opts.ClusterJoin) == 0 {
		deadline := time.Now().Add(clusterReadyTimeout)
		for {
			owned := 0
			for _, n := range m.Nodes {
				owned += len(n.OwnedPartitions())
			}
			if owned == parts {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("scalable: cluster owns %d/%d partitions after %v", owned, parts, clusterReadyTimeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, mi := range m.ClusterMembers() {
		dlog.Info("cluster member ready", "id", mi.ID, "endpoint", mi.Endpoint, "ctl", mi.Ctl, "recovery", mi.Recovery)
	}

	// The routing observer: a receive-only membership participant whose
	// view the collectors resolve partition owners against. It owns no
	// partitions and broadcasts no heartbeats.
	obsCtl := tcpBind
	if opts.Transport != "tcp" && !external {
		obsCtl = m.endpoint("clrouter") + ".ctl"
	}
	obsJoin := append([]string{m.Nodes[0].CtlEndpoint()}, opts.ClusterJoin...)
	router, err := cluster.NewMembership(cluster.MembershipOptions{
		Self:     cluster.MemberInfo{ID: "router", Ctl: obsCtl},
		Observer: true,
		Join:     obsJoin,
		Parts:    parts,
		// The observer also folds peers' telemetry frames into the shared
		// federation, so the cluster view covers members joined from other
		// processes too.
		Federation: opts.Telemetry.Federation(),
		// And it routes peers' incident declarations into the local
		// flight recorder (when one is armed), so a deployment whose
		// nodes all live in other processes still captures coordinated
		// bundles. CaptureRemote dedups by ID against the in-process
		// nodes hearing the same frame.
		OnIncident: func(id, from, reason string) {
			opts.Telemetry.Flight().CaptureRemote(id, from, reason)
		},
		Advertise: opts.ClusterAdvertise,
		Logger:    opts.Logger,
	})
	if err != nil {
		return err
	}
	m.router = router
	router.Start()
	return router.WaitMembers(nodes, clusterReadyTimeout)
}

// ClusterMembers returns the identities and reachable addresses of every
// known cluster member: this process's nodes first, then members joined
// from other processes (from the observer's view). Deployments print
// these so operators know what to pass as -cluster-join and what
// consumers should dial.
func (m *Monitor) ClusterMembers() []cluster.MemberInfo {
	var out []cluster.MemberInfo
	for _, n := range m.Nodes {
		out = append(out, n.Membership().Self())
	}
	if m.router != nil {
		seen := make(map[string]bool, len(out))
		for _, mi := range out {
			seen[mi.ID] = true
		}
		for _, p := range m.router.Peers() {
			if !seen[p.ID] {
				out = append(out, p)
			}
		}
	}
	return out
}

// clusterEndpoints gathers what a consumer dials: every known member's
// publisher endpoint and recovery address, in ClusterMembers order.
func (m *Monitor) clusterEndpoints() (eps, recovery []string) {
	for _, mi := range m.ClusterMembers() {
		eps = append(eps, mi.Endpoint)
		if mi.Recovery != "" {
			recovery = append(recovery, mi.Recovery)
		}
	}
	return eps, recovery
}

// ClusterParts returns the clustered tier's partition count (0 for
// classic deployments).
func (m *Monitor) ClusterParts() int { return m.parts }
