package scalable

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"fsmonitor/internal/events"
	"fsmonitor/internal/eventstore"
	"fsmonitor/internal/msgq"
)

// The recovery protocol lets a consumer on another machine replay missed
// events from the aggregator's reliable store (§IV-2: "An API is provided
// to the consumers to retrieve historic events from the database whenever
// a fault occurs"). One request frame carries the resume point — a single
// sequence number ("since", the classic form, unchanged on the wire) or a
// per-partition cursor vector ("sincev", for partitioned stores); the
// server streams batch frames and terminates with an end frame.
const (
	recoveryReqTopic    = "since"
	recoveryVecReqTopic = "sincev"
	recoveryBatchTopic  = "batch"
	recoveryEndTopic    = "end"
	recoveryErrTopic    = "error"
	// recoveryOwnedTopic is the optional coverage frame a source that holds
	// only some partitions (a cluster member) sends first in a "sincev"
	// response: the partitions its answer actually covers. Other sources
	// never send it, so the classic recovery wire is untouched; clients
	// ignore the frame unless they asked for coverage.
	recoveryOwnedTopic = "owned"
	recoveryBatchMax   = 1024
)

// RecoverySnapshotter is the optional recovery-source extension of a
// source that may hold only some partitions: one call captures coverage and
// queryability atomically, so the "owned" frame and the events that follow
// it describe the same store set even while a rebalance is moving
// partitions. Reading coverage and querying separately would let a
// partition released in between be claimed as covered with its events
// silently missing — the fan-out client would accept the round and drop
// that partition's history. A nil snapshot means the source answers for
// every partition (a classic aggregator): no coverage frame is sent.
type RecoverySnapshotter interface {
	RecoverySnapshot() RecoverySourceSnapshot
}

// RecoverySourceSnapshot is one frozen coverage+query view. A snapshot
// whose stores close mid-query returns an error, failing the round so
// the fan-out client retries against the new owner.
type RecoverySourceSnapshot interface {
	OwnedPartitions() []int
	RecoveryPager
}

// RecoveryPager is what a RecoveryServer serves: a store that pages the
// rows a cursor vector of Partitions() entries does not cover as wire
// batches, through the eventstore.Pager a connection keeps.
// *eventstore.Store, *eventstore.Sharded (and its snapshots) and
// *Aggregator implement it.
type RecoveryPager interface {
	Partitions() int
	NextPage(p *eventstore.Pager, max int) ([]byte, error)
}

// RecoveryServer serves the recovery API over TCP.
type RecoveryServer struct {
	src       RecoveryPager
	ln        net.Listener
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewRecoveryServer starts serving src at addr (e.g. "127.0.0.1:0").
func NewRecoveryServer(src RecoveryPager, addr string) (*RecoveryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &RecoveryServer{src: src, ln: ln}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound address.
func (s *RecoveryServer) Addr() string { return s.ln.Addr().String() }

func (s *RecoveryServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *RecoveryServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	pg := eventstore.NewPager() // every page of this connection is built in it
	for {
		req, err := msgq.ReadFrame(r)
		if err != nil {
			return
		}
		src, cursors := s.src, []uint64(nil)
		switch req.Topic {
		case recoveryReqTopic:
			// A scalar cutoff is a uniform cursor vector.
			seq := decodeSeq(req.Payload)
			cursors = make([]uint64, src.Partitions())
			for i := range cursors {
				cursors[i] = seq
			}
		case recoveryVecReqTopic:
			if cursors = decodeSeqVector(req.Payload); cursors == nil {
				_ = msgq.WriteFrame(w, msgq.Message{Topic: recoveryErrTopic, Payload: []byte("bad cursor vector")})
				return
			}
			// Coverage header: only a source holding a subset sends it, so a
			// classic aggregator's response stream is unchanged. The
			// snapshot freezes coverage and query together — the frame and
			// the events describe the same store set even mid-rebalance.
			if ss, ok := src.(RecoverySnapshotter); ok {
				if snap := ss.RecoverySnapshot(); snap != nil {
					if err := msgq.WriteFrame(w, msgq.Message{Topic: recoveryOwnedTopic, Payload: encodeParts(snap.OwnedPartitions())}); err != nil {
						return
					}
					src = snap
				}
			}
		default:
			_ = msgq.WriteFrame(w, msgq.Message{Topic: recoveryErrTopic, Payload: []byte("bad request")})
			return
		}
		if !stream(w, pg, src, cursors) {
			return
		}
	}
}

// stream pages src from cursors until it is used up, one batch frame per
// page, then ends the response; reports whether the connection is still
// usable for another request. Each cursor advances past the rows of its own
// partition, so paging makes progress however unevenly partitions drain.
func stream(w *bufio.Writer, pg *eventstore.Pager, src RecoveryPager, cursors []uint64) bool {
	if len(cursors) != src.Partitions() {
		msg := fmt.Sprintf("cursor vector has %d entries, store has %d partitions", len(cursors), src.Partitions())
		_ = msgq.WriteFrame(w, msgq.Message{Topic: recoveryErrTopic, Payload: []byte(msg)})
		return false
	}
	pg.Start(cursors)
	for {
		page, err := src.NextPage(pg, recoveryBatchMax)
		if err != nil {
			_ = msgq.WriteFrame(w, msgq.Message{Topic: recoveryErrTopic, Payload: []byte(err.Error())})
			return false
		}
		if page == nil {
			return msgq.WriteFrame(w, msgq.Message{Topic: recoveryEndTopic, Payload: nil}) == nil
		}
		if err := msgq.WriteFrame(w, msgq.Message{Topic: recoveryBatchTopic, Payload: page}); err != nil {
			return false
		}
	}
}

// Close stops the server.
func (s *RecoveryServer) Close() {
	s.closeOnce.Do(func() {
		s.ln.Close()
		s.wg.Wait()
	})
}

// RecoveryClient implements RecoverySource (and VectorRecoverySource)
// against a RecoveryServer, so a remote consumer can pass it as
// ConsumerOptions.Recover.
type RecoveryClient struct {
	addr string
}

// NewRecoveryClient targets the server at addr.
func NewRecoveryClient(addr string) *RecoveryClient {
	return &RecoveryClient{addr: addr}
}

// Since implements RecoverySource over the wire.
func (c *RecoveryClient) Since(seq uint64, max int) ([]events.Event, error) {
	evs, _, err := c.request(msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(seq)}, max)
	return evs, err
}

// SinceVector implements VectorRecoverySource over the wire. Remote
// consumers pass their per-partition cursors (ConsumerOptions.SinceVector
// feeds them automatically).
func (c *RecoveryClient) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	evs, _, err := c.SinceVectorOwned(cursors, max)
	return evs, err
}

// SinceVectorOwned is the fan-out form of SinceVector: alongside the
// events it returns the partitions the server's store actually covers —
// the "owned" frame a cluster node sends. owned is nil when the server is
// a classic single store serving every partition.
func (c *RecoveryClient) SinceVectorOwned(cursors []uint64, max int) ([]events.Event, []int, error) {
	return c.request(msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(cursors)}, max)
}

// request sends req and collects the answer. Batch frames are decoded as
// they arrive only to be checked and counted; their payloads are held until
// the stream ends and then materialized into a result sized once — one
// string per page, no slice regrown on the way to half a million events.
func (c *RecoveryClient) request(req msgq.Message, max int) ([]events.Event, []int, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if err := msgq.WriteFrame(w, req); err != nil {
		return nil, nil, err
	}
	var (
		pages [][]byte
		total int
		owned []int
		blk   = events.NewBlock(recoveryBatchMax, 0)
	)
	for done := false; !done; {
		f, err := msgq.ReadFrame(r)
		if err != nil {
			return nil, nil, err
		}
		switch f.Topic {
		case recoveryOwnedTopic:
			if owned = decodeParts(f.Payload); owned == nil {
				return nil, nil, fmt.Errorf("scalable: recovery server: bad coverage frame")
			}
		case recoveryBatchTopic:
			if err := events.DecodeBlockInto(blk, f.Payload); err != nil {
				return nil, nil, err
			}
			pages = append(pages, f.Payload)
			total += blk.Len()
			done = max > 0 && total >= max
		case recoveryEndTopic:
			done = true
		case recoveryErrTopic:
			return nil, nil, fmt.Errorf("scalable: recovery server: %s", f.Payload)
		default:
			return nil, nil, fmt.Errorf("scalable: unexpected recovery frame %q", f.Topic)
		}
	}
	if total == 0 {
		return nil, owned, nil
	}
	out := make([]events.Event, 0, total)
	for _, p := range pages {
		if err := events.DecodeBlockInto(blk, p); err != nil {
			return nil, nil, err
		}
		blk.Intern()
		out = blk.AppendEventsTo(out)
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, owned, nil
}

// encodeParts/decodeParts frame a partition list for the "owned" coverage
// frame, reusing the cursor-vector encoding. An empty list (a node that
// currently owns nothing) round-trips as a non-nil empty slice so it stays
// distinguishable from "frame absent".
func encodeParts(parts []int) []byte {
	v := make([]uint64, len(parts))
	for i, p := range parts {
		v[i] = uint64(p)
	}
	return encodeSeqVector(v)
}

func decodeParts(b []byte) []int {
	v := decodeSeqVector(b)
	if v == nil {
		return nil
	}
	out := make([]int, len(v))
	for i, p := range v {
		out[i] = int(p)
	}
	return out
}
