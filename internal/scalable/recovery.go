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

// RecoveryClient implements RecoverySource against a RecoveryServer, so a
// remote consumer can pass it as ConsumerOptions.Recover.
type RecoveryClient struct{ addr string }

// NewRecoveryClient targets the server at addr.
func NewRecoveryClient(addr string) *RecoveryClient {
	return &RecoveryClient{addr: addr}
}

// RecoverPages implements RecoverySource over the wire. One cursor is sent
// as the classic scalar request ("since"), a vector as "sincev".
func (c *RecoveryClient) RecoverPages(cursors []uint64, page func(*events.Block) error) error {
	req := msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(cursors)}
	if len(cursors) == 1 {
		req = msgq.Message{Topic: recoveryReqTopic, Payload: encodeSeq(cursors[0])}
	}
	_, err := c.request(req, page)
	return err
}

// SinceVector returns the events the cursor vector does not cover, in
// global seq order, in one slice (max <= 0: all of them).
func (c *RecoveryClient) SinceVector(cursors []uint64, max int) ([]events.Event, error) {
	evs, _, err := c.collect(cursors)
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	return evs, err
}

// collect sends cursors as a "sincev" request and gathers the answer's
// events, each page's strings copied once, with the partitions the server's
// "owned" frame says it covers (nil when the server is a classic single
// store serving every partition).
func (c *RecoveryClient) collect(cursors []uint64) ([]events.Event, []int, error) {
	var evs []events.Event
	owned, err := c.request(msgq.Message{Topic: recoveryVecReqTopic, Payload: encodeSeqVector(cursors)}, func(blk *events.Block) error {
		evs = blk.AppendEventsTo(evs)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return evs, owned, nil
}

// request sends req and hands each batch frame of the answer to page as it
// lands, decoded into one reused block over the frame's payload; the frame
// goes back to the reader's one-buffer free list once page returns, so the
// block is page's only during the call. It returns the coverage frame's
// partitions, if the server sent one.
func (c *RecoveryClient) request(req msgq.Message, page func(*events.Block) error) ([]int, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := msgq.WriteFrame(bufio.NewWriter(conn), req); err != nil {
		return nil, err
	}
	next := msgq.FrameReader(bufio.NewReader(conn))
	blk := events.NewBlock(0, 0)
	var owned []int
	for {
		f, err := next()
		if err != nil {
			return nil, err
		}
		switch f.Topic {
		case recoveryOwnedTopic:
			if owned = decodeParts(f.Payload); owned == nil {
				err = fmt.Errorf("scalable: recovery server: bad coverage frame")
			}
		case recoveryBatchTopic:
			if err = events.DecodeBlockInto(blk, f.Payload); err == nil {
				err = page(blk)
			}
		case recoveryEndTopic:
			return owned, nil
		case recoveryErrTopic:
			err = fmt.Errorf("scalable: recovery server: %s", f.Payload)
		default:
			err = fmt.Errorf("scalable: unexpected recovery frame %q", f.Topic)
		}
		f.Done()
		if err != nil {
			return nil, err
		}
	}
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
