// Package cluster coordinates N aggregator nodes into one logical
// aggregation tier. The store partitions introduced in PR 3 become the
// unit of distribution: an epoch-numbered assignment map (rendezvous
// hashing with a balance cap) gives every partition exactly one owning
// node, a small membership protocol over the msgq fabric (join hellos,
// heartbeats and leaves on the "cluster.membership" topic) keeps the map
// current as nodes come and go, and partition handoff is journal-cursor
// replay: the new owner reopens the partition's eventstore segment and
// continues its interleaved sequence lane exactly one stride past the
// last durable seq, so consumer cursor vectors stay exact across the
// move.
//
// The paper's topology claim — FSMonitor's tiers connect only through
// the messaging fabric, so any tier scales by adding processes — is what
// makes this layer possible without touching the collector/consumer
// contract: collectors route each batch slice to the owner's inbox topic
// ("events.node.<id>.p<part>"), nodes republish on the same per-partition
// topics a single partitioned aggregator would, and a one-node cluster is
// wire-identical to the classic deployment.
package cluster

import (
	"hash/fnv"
	"net"
	"sort"
	"strconv"
	"strings"
)

// MembershipTopic is the control topic membership heartbeats and leaves
// are broadcast on (each member publishes them on its own event pub).
const MembershipTopic = "cluster.membership"

// TelemetryTopic is the topic members publish federated telemetry
// snapshots on, piggybacking the heartbeat cadence and the same pub/sub
// mesh the membership protocol already maintains.
const TelemetryTopic = "cluster.telemetry"

// MemberInfo identifies a cluster member and how to reach it.
type MemberInfo struct {
	// ID is the unique member name. It must not contain '.' (it is
	// embedded in routed topic names, where '.' is the separator).
	ID string `json:"id"`
	// Endpoint is the member's publisher endpoint: routed event traffic
	// in, membership broadcasts and republished batches out. Peers join
	// through it: a hello goes upstream on their link to it.
	Endpoint string `json:"ep"`
	// Recovery is the member's recovery-server address, "" when the
	// member serves no recovery (observers).
	Recovery string `json:"rec,omitempty"`
}

// ValidID reports whether id is usable as a member ID.
func ValidID(id string) bool {
	return id != "" && !strings.Contains(id, ".")
}

// AdvertiseEndpoint rewrites the host of a bound address to the
// externally reachable one — a node that binds "tcp://0.0.0.0:7400" must
// advertise a host peers can actually dial. bound may be a msgq endpoint
// ("tcp://host:port") or a bare "host:port" (recovery-server addresses);
// the port is always kept from the bind (ports are per-socket, the
// advertised host is shared). An empty host, an inproc endpoint, or an
// unparseable address returns bound unchanged.
func AdvertiseEndpoint(bound, host string) string {
	if host == "" || bound == "" {
		return bound
	}
	scheme, rest := "", bound
	if i := strings.Index(bound, "://"); i >= 0 {
		scheme, rest = bound[:i+3], bound[i+3:]
		if scheme != "tcp://" {
			return bound
		}
	}
	_, port, err := net.SplitHostPort(rest)
	if err != nil {
		return bound
	}
	return scheme + net.JoinHostPort(host, port)
}

// Assignment is an epoch-numbered partition→owner map. It is a pure
// function of the member set and the partition count, so every node that
// has converged on the same view computes the same map without any
// consensus round; the epoch only orders map generations.
type Assignment struct {
	Epoch uint64
	Parts int
	// Owner[p] is the owning member ID of partition p ("" when the view
	// had no members).
	Owner []string
}

// OwnerOf returns the owner of partition part, "" when unassigned or out
// of range.
func (a Assignment) OwnerOf(part int) string {
	if part < 0 || part >= len(a.Owner) {
		return ""
	}
	return a.Owner[part]
}

// Owned returns the sorted partitions assigned to id.
func (a Assignment) Owned(id string) []int {
	if id == "" {
		return nil
	}
	var out []int
	for p, o := range a.Owner {
		if o == id {
			out = append(out, p)
		}
	}
	return out
}

// rendezvousScore is the highest-random-weight hash for (member,
// partition): FNV-1a over "<id>#<part>".
func rendezvousScore(id string, part int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(part)))
	return h.Sum64()
}

// Assign computes the assignment map for the given member IDs:
// capacity-capped rendezvous hashing. Each partition independently ranks
// the members by rendezvous score and takes the best-ranked one still
// under the balance cap of ceil(parts/members). Pure rendezvous is
// balanced only in expectation — with few partitions per node it happily
// gives one node everything — while the cap guarantees a perfect split;
// rendezvous underneath keeps the map stable, so membership changes move
// few partitions beyond the departed node's own.
func Assign(epoch uint64, parts int, members []string) Assignment {
	a := Assignment{Epoch: epoch, Parts: parts, Owner: make([]string, parts)}
	ids := append([]string(nil), members...)
	sort.Strings(ids)
	ids = compactIDs(ids)
	if len(ids) == 0 {
		return a
	}
	capacity := (parts + len(ids) - 1) / len(ids)
	load := make(map[string]int, len(ids))
	// Pass 1: pure rendezvous. Stable under membership change, but
	// balanced only in expectation.
	for p := range a.Owner {
		best := ""
		var bestScore uint64
		for _, id := range ids {
			if s := rendezvousScore(id, p); best == "" || s > bestScore {
				best, bestScore = id, s
			}
		}
		a.Owner[p] = best
		load[best]++
	}
	// Pass 2: deterministically shed overloaded members' weakest-scored
	// partitions to their best-scoring under-capacity alternative. Only
	// overflow moves, so the stability of pass 1 survives the balancing.
	for _, id := range ids {
		for load[id] > capacity {
			worst := -1
			var worstScore uint64
			for p, o := range a.Owner {
				if o != id {
					continue
				}
				if s := rendezvousScore(id, p); worst < 0 || s < worstScore {
					worst, worstScore = p, s
				}
			}
			alt := ""
			var altScore uint64
			for _, cand := range ids {
				if cand == id || load[cand] >= capacity {
					continue
				}
				if s := rendezvousScore(cand, worst); alt == "" || s > altScore {
					alt, altScore = cand, s
				}
			}
			a.Owner[worst] = alt
			load[id]--
			load[alt]++
		}
	}
	return a
}

// compactIDs removes adjacent duplicates and empty strings from a sorted
// slice.
func compactIDs(ids []string) []string {
	out := ids[:0]
	for i, id := range ids {
		if id == "" || (i > 0 && id == ids[i-1]) {
			continue
		}
		out = append(out, id)
	}
	return out
}
