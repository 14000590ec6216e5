package msgq

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

// leasePub binds a publisher on an in-process name derived from the test
// and, when tcp is set, on a loopback port as well; it returns the two
// addresses.
func leasePub(t testing.TB, tcp bool, opts ...PubOption) (pub *Pub, inproc, tcpAddr string) {
	t.Helper()
	pub = NewPub(opts...)
	t.Cleanup(pub.Close)
	if tcp {
		// TCP first: Addr reports the first bound endpoint with its real port.
		if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		tcpAddr = pub.Addr()
	}
	inproc = fmt.Sprintf("inproc://lease-%s-%d", t.Name(), time.Now().UnixNano())
	if err := pub.Bind(inproc); err != nil {
		t.Fatal(err)
	}
	return pub, inproc, tcpAddr
}

// leaseSub attaches one more subscriber to pub at addr and returns once pub
// would deliver to it. WaitReady alone does not say that over TCP: the
// publisher may not have accepted the connection or read the SUB frame yet.
func leaseSub(t testing.TB, pub *Pub, addr, prefix string, opts ...SubOption) *Sub {
	t.Helper()
	before := pub.Subscribers()
	sub := NewSub(opts...)
	t.Cleanup(sub.Close)
	sub.Subscribe(prefix)
	if err := sub.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	registered := func() bool {
		set := pub.attached.Load()
		if len(set.tcp)+len(set.peers) != before+1 {
			return false
		}
		for _, s := range set.tcp {
			s.mu.Lock()
			n := len(s.prefixes)
			s.mu.Unlock()
			if n == 0 {
				return false
			}
		}
		return true
	}
	waitFor(t, registered, "subscriber at "+addr+" to register with the publisher")
	return sub
}

// bigBlock is a block whose wire image (~512 KiB) fills a loopback
// connection's buffers within a few dozen frames.
func bigBlock(t testing.TB) *events.Block {
	t.Helper()
	path := "/" + strings.Repeat("p", 32<<10)
	b := events.NewBlock(16, 16*len(path))
	for i := 0; i < 16; i++ {
		if err := b.AppendEvent(events.Event{Root: "/mnt", Op: events.OpCreate, Path: path, Time: time.Unix(0, int64(i)), Source: "mdt0"}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// One reference per queue that accepted the frame — three in-process peers
// and a TCP subscriber — and the release hook runs exactly once, after the
// last of them.
func TestLeaseExactCount(t *testing.T) {
	pub, inproc, tcpAddr := leasePub(t, true)
	peers := []*Sub{leaseSub(t, pub, inproc, "events."), leaseSub(t, pub, inproc, "events."), leaseSub(t, pub, inproc, "")}
	leaseSub(t, pub, inproc, "other.") // attached, not matching: holds nothing
	remote := leaseSub(t, pub, tcpAddr, "events.")

	blk := benchBlock(t)
	var released atomic.Int32
	release := func(b *events.Block) {
		if b != blk {
			t.Errorf("release hook got block %p, want the published %p", b, blk)
		}
		released.Add(1)
	}
	if n := pub.PublishLeasedCtx(context.Background(), "events.mdt0", blk, release, Message{}); n != 4 {
		t.Fatalf("delivered to %d queues, want 4", n)
	}
	got := recvN(t, remote.C(), 1)[0]
	if got.Block != nil || got.lease == nil || got.lease.blk != nil || got.lease.release != nil {
		t.Fatal("a block pointer or the publisher's lease crossed TCP: a received frame carries its connection's, on the payload alone")
	}
	if dec, err := events.DecodeBlock(got.Payload); err != nil || dec.Len() != blk.Len() {
		t.Fatalf("TCP subscriber decoded %v, %v", dec, err)
	}
	got.Done() // returns the payload to the connection; the publisher's count is not this side's to touch
	if n := released.Load(); n != 0 {
		t.Fatalf("released %d times by the TCP receiver's Done with every in-process peer still holding the block", n)
	}
	for i, p := range peers {
		m := recvN(t, p.C(), 1)[0]
		if m.Block != blk {
			t.Fatalf("peer %d got block %p, want %p", i, m.Block, blk)
		}
		if n := released.Load(); n != 0 {
			t.Fatalf("released %d times with peer %d still holding the block", n, i)
		}
		m.Done()
	}
	// The TCP queue's reference goes once its writer has written the frame,
	// which the subscriber receiving it does not order; wait for it.
	waitFor(t, func() bool { return released.Load() == 1 }, "release after the last reference")
	time.Sleep(20 * time.Millisecond)
	if n := released.Load(); n != 1 {
		t.Fatalf("released %d times, want exactly once", n)
	}
}

// A publish nobody accepts changes nothing: the caller keeps the block and
// still owes the parent its Done.
func TestLeaseZeroDeliveredKeepsOwnership(t *testing.T) {
	up, upAddr, _ := leasePub(t, false)
	upSub := leaseSub(t, up, upAddr, "")
	down, downAddr, _ := leasePub(t, false)
	leaseSub(t, down, downAddr, "other.")

	var log []string
	hook := func(name string) func(*events.Block) {
		return func(*events.Block) { log = append(log, name) }
	}
	if n := up.PublishLeasedCtx(context.Background(), "events.mdt0", benchBlock(t), hook("parent"), Message{}); n != 1 {
		t.Fatalf("upstream delivered %d, want 1", n)
	}
	parent := recvN(t, upSub.C(), 1)[0]
	if n := down.PublishLeasedCtx(context.Background(), "events.mdt0", benchBlock(t), hook("child"), parent); n != 0 {
		t.Fatalf("downstream delivered %d, want 0", n)
	}
	if len(log) != 0 {
		t.Fatalf("hooks ran on a publish nobody accepted: %v", log)
	}
	parent.Done()
	if len(log) != 1 || log[0] != "parent" {
		t.Fatalf("after the caller's own Done the hooks ran %v, want [parent]", log)
	}
}

// The aggregator's shape: a clone published downstream aliases the block it
// was received in, so the clone's hook runs first and only then is the
// upstream message Done — and neither before the last downstream receiver.
func TestLeaseParentChain(t *testing.T) {
	up, upAddr, _ := leasePub(t, false)
	upSub := leaseSub(t, up, upAddr, "")
	down, downAddr, _ := leasePub(t, false)
	consumers := []*Sub{leaseSub(t, down, downAddr, ""), leaseSub(t, down, downAddr, "")}

	var mu sync.Mutex
	var log []string
	hook := func(name string) func(*events.Block) {
		return func(*events.Block) { mu.Lock(); log = append(log, name); mu.Unlock() }
	}
	ctx := context.Background()
	if n := up.PublishLeasedCtx(ctx, "events.mdt0", benchBlock(t), hook("collector block"), Message{}); n != 1 {
		t.Fatalf("upstream delivered %d, want 1", n)
	}
	parent := recvN(t, upSub.C(), 1)[0]
	clone := events.NewBlock(0, 0)
	clone.CloneFrom(parent.Block)
	if n := down.PublishLeasedCtx(ctx, "agg.events", clone, hook("clone"), parent); n != 2 {
		t.Fatalf("downstream delivered %d, want 2", n)
	}
	for i, c := range consumers {
		if len(log) != 0 {
			t.Fatalf("hooks %v ran with consumer %d still holding the clone", log, i)
		}
		recvN(t, c.C(), 1)[0].Done()
	}
	if len(log) != 2 || log[0] != "clone" || log[1] != "collector block" {
		t.Fatalf("release order %v, want [clone, collector block]", log)
	}
}

// Messages that carry no lease ignore Done, however often it is called.
func TestDoneUnleasedIsNoop(t *testing.T) {
	pub, inproc, _ := leasePub(t, false)
	sub := leaseSub(t, pub, inproc, "")
	ctx := context.Background()
	pub.PublishCtx(ctx, "t", []byte("payload"))
	pub.PublishBlockCtx(ctx, "t", benchBlock(t))
	for _, m := range append(recvN(t, sub.C(), 2), Message{}) {
		m.Done()
		m.Done()
		if m.lease != nil {
			t.Fatalf("message on %q carries a lease nobody asked for", m.Topic)
		}
	}
}

// stalledTCP sets up the two cases below: a blocking publisher with a
// one-frame TCP queue, an in-process peer that takes everything, and a TCP
// subscriber that has stopped reading, so that after a few big frames its
// queue is full and its writer is stuck in a write. It publishes leased
// frames until one misses the TCP queue (its 100 ms context ran out) and
// returns how often each publish's hook has run, the indexes the TCP queue
// accepted, and the one it missed.
func stalledTCP(t *testing.T) (released []atomic.Int32, peer, remote *Sub, accepted []int, missed int) {
	t.Helper()
	pub, inproc, tcpAddr := leasePub(t, true, WithBlockOnFull(), WithHWM(1))
	peer = leaseSub(t, pub, inproc, "", WithRecvBuffer(256))
	remote = leaseSub(t, pub, tcpAddr, "", WithRecvBuffer(1))
	blk := bigBlock(t)
	released = make([]atomic.Int32, 256)
	missed = -1
	for i := range released {
		i := i
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		n := pub.PublishLeasedCtx(ctx, "events.mdt0", blk, func(*events.Block) { released[i].Add(1) }, Message{})
		cancel()
		if n == 2 {
			accepted = append(accepted, i)
			continue
		}
		if n != 1 {
			t.Fatalf("publish %d reached %d queues, want the in-process peer at least", i, n)
		}
		missed = i
		break
	}
	if missed < 0 || len(accepted) < 2 {
		t.Fatalf("the TCP queue never filled: %d frames of %d KiB accepted", len(accepted), len(blk.Wire())>>10)
	}
	// The in-process peer finishes with every frame.
	for _, m := range recvN(t, peer.C(), len(accepted)+1) {
		m.Done()
	}
	return released, peer, remote, accepted, missed
}

// A context canceled under WithBlockOnFull takes that queue out of the
// count — the frame's one remaining reference is the in-process peer's —
// while frames still sitting in the TCP queue keep their blocks out of the
// pool until the writer has sent them.
func TestLeaseCtxCancelWithFramesQueued(t *testing.T) {
	released, _, remote, accepted, missed := stalledTCP(t)
	if n := released[missed].Load(); n != 1 {
		t.Errorf("the frame the TCP queue missed was released %d times after its only holder was done, want 1", n)
	}
	// The queue holds one frame, so the last one accepted is still in it and
	// the writer is stuck partway through the one before.
	queued, writing := accepted[len(accepted)-1], accepted[len(accepted)-2]
	time.Sleep(20 * time.Millisecond)
	if n := released[queued].Load(); n != 0 {
		t.Fatalf("frame %d released %d times while still queued for the TCP subscriber", queued, n)
	}
	if n := released[writing].Load(); n != 0 {
		t.Fatalf("frame %d released %d times while its wire image was still being written", writing, n)
	}
	// The subscriber reads again: every accepted frame is written, then released.
	go func() {
		for range remote.C() {
		}
	}()
	waitFor(t, func() bool {
		for _, i := range accepted {
			if released[i].Load() != 1 {
				return false
			}
		}
		return true
	}, "every written frame released exactly once")
	for i := range released {
		if n := released[i].Load(); n > 1 {
			t.Errorf("frame %d released %d times", i, n)
		}
	}
}

// A subscriber that detaches with frames still queued never has them
// released on its behalf: they were not written, nobody says Done for them,
// and their blocks fall to the GC instead of the pool.
func TestLeaseDetachWithFramesQueued(t *testing.T) {
	released, _, remote, accepted, _ := stalledTCP(t)
	queued := accepted[len(accepted)-1]
	remote.Close()
	time.Sleep(50 * time.Millisecond) // the writer fails its write and leaves
	if n := released[queued].Load(); n != 0 {
		t.Fatalf("frame %d released %d times: it was queued, never written, when its subscriber left", queued, n)
	}
	for i := range released {
		if n := released[i].Load(); n > 1 {
			t.Errorf("frame %d released %d times", i, n)
		}
	}
}

// A second Done for one received message is a bug the count catches while
// the lease record is still out of the pool.
func TestLeaseDoubleDonePanics(t *testing.T) {
	pub, inproc, _ := leasePub(t, false)
	a, b := leaseSub(t, pub, inproc, ""), leaseSub(t, pub, inproc, "")
	var released atomic.Int32
	pub.PublishLeasedCtx(context.Background(), "t", benchBlock(t), func(*events.Block) { released.Add(1) }, Message{})
	m := recvN(t, a.C(), 1)[0]
	m.Done()
	m.Done() // takes b's reference: the block is released under b's feet...
	defer func() {
		if recover() == nil {
			t.Error("a Done beyond the count did not panic")
		}
	}()
	recvN(t, b.C(), 1)[0].Done() // ...and b's own Done finds the count gone
}

// The lease costs the publish path no allocation: the record is pooled and
// the hook is whatever func value the caller already holds.
func TestPublishLeasedAllocatesNothing(t *testing.T) {
	pub, inproc, _ := leasePub(t, false, WithBlockOnFull())
	sub := leaseSub(t, pub, inproc, "", WithRecvBuffer(1))
	blk, ctx := benchBlock(t), context.Background()
	release := func(*events.Block) {}
	if allocs := testing.AllocsPerRun(200, func() {
		pub.PublishLeasedCtx(ctx, "events.mdt0", blk, release, Message{})
		m := <-sub.C()
		m.Done()
	}); allocs != 0 {
		t.Errorf("a leased publish to one in-process peer allocates %v times, want 0", allocs)
	}
}

// BenchmarkPublishLeased is one leased block through one in-process peer
// and back: publish, receive, Done, release hook.
func BenchmarkPublishLeased(b *testing.B) {
	pub, inproc, _ := leasePub(b, false, WithBlockOnFull())
	sub := leaseSub(b, pub, inproc, "", WithRecvBuffer(1))
	blk, ctx := events.NewBlock(0, 0), context.Background()
	release := func(*events.Block) {}
	round := func() {
		pub.PublishLeasedCtx(ctx, "events.mdt0", blk, release, Message{})
		m := <-sub.C()
		m.Done()
	}
	round() // builds the first lease record, so -benchtime 1x reads steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
