package msgq

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fsmonitor/internal/pipeline"
)

func recvN(t *testing.T, ch <-chan Message, n int) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(20 * time.Second)
	for len(out) < n {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d messages", len(out), n)
			}
			out = append(out, m)
		case <-deadline:
			t.Fatalf("timeout after %d/%d messages", len(out), n)
		}
	}
	return out
}

func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	msgs := []Message{
		{Topic: "a", Payload: []byte("hello")},
		{Topic: "", Payload: nil},
		{Topic: "events.mdt0", Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, m := range msgs {
		if err := writeMessage(w, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := readMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topic != want.Topic || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("message %d mismatch", i)
		}
	}
}

func TestFrameQuick(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeMessage(w, Message{Topic: topic, Payload: payload}); err != nil {
			return false
		}
		got, err := readMessage(bufio.NewReader(&buf))
		return err == nil && got.Topic == topic && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMessage(w, Message{Topic: "t", Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := readMessage(bufio.NewReader(bytes.NewReader(full[:cut]))); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

func TestParseEndpoint(t *testing.T) {
	if _, err := parseEndpoint("bogus://x"); err == nil {
		t.Error("accepted bogus scheme")
	}
	if _, err := parseEndpoint("tcp://"); err == nil {
		t.Error("accepted empty tcp addr")
	}
	if _, err := parseEndpoint("inproc://"); err == nil {
		t.Error("accepted empty inproc name")
	}
	e, err := parseEndpoint("tcp://127.0.0.1:9999")
	if err != nil || e.kind != epTCP || e.addr != "127.0.0.1:9999" {
		t.Errorf("tcp parse = %+v, %v", e, err)
	}
}

func testPubSub(t *testing.T, ep string) {
	pub := NewPub()
	if err := pub.Bind(ep); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("events.")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pub.Publish("events.mdt0", []byte(fmt.Sprintf("e%d", i)))
		pub.Publish("other.topic", []byte("filtered"))
	}
	msgs := recvN(t, sub.C(), 100)
	for i, m := range msgs {
		if m.Topic != "events.mdt0" {
			t.Fatalf("message %d topic %q", i, m.Topic)
		}
		if string(m.Payload) != fmt.Sprintf("e%d", i) {
			t.Fatalf("message %d payload %q (out of order?)", i, m.Payload)
		}
	}
	// A Subscribe on the ready link makes WaitReady wait until the
	// publisher has applied it: one publish on the new prefix is enough.
	sub.Subscribe("more.")
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := pub.PublishCtx(context.Background(), "more.1", nil); n != 1 {
		t.Fatalf("the publish after WaitReady reached %d queues, want 1", n)
	}
	if m := recvN(t, sub.C(), 1)[0]; m.Topic != "more.1" {
		t.Fatalf("got %q, want the publish on the new prefix", m.Topic)
	}
}

func TestPubSubTCP(t *testing.T)    { testPubSub(t, "tcp://127.0.0.1:0") }
func TestPubSubInproc(t *testing.T) { testPubSub(t, "inproc://pubsub-basic") }

func TestPubMultipleSubscribers(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const numSubs = 4
	subs := make([]*Sub, numSubs)
	for i := range subs {
		subs[i] = NewSub()
		defer subs[i].Close()
		subs[i].Subscribe("")
		if err := subs[i].Connect(pub.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := subs[i].WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		pub.Publish("t", []byte{byte(i)})
	}
	for si, s := range subs {
		msgs := recvN(t, s.C(), 50)
		for i, m := range msgs {
			if m.Payload[0] != byte(i) {
				t.Fatalf("sub %d message %d = %d", si, i, m.Payload[0])
			}
		}
	}
}

func TestSubPrefixFiltering(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://prefix-filter"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("a.")
	sub.Subscribe("b.")
	if err := sub.Connect("inproc://prefix-filter"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub.Publish("a.1", []byte("1"))
	pub.Publish("c.1", []byte("no"))
	pub.Publish("b.1", []byte("2"))
	msgs := recvN(t, sub.C(), 2)
	if msgs[0].Topic != "a.1" || msgs[1].Topic != "b.1" {
		t.Errorf("topics = %s, %s", msgs[0].Topic, msgs[1].Topic)
	}
	sub.Unsubscribe("a.")
	pub.Publish("a.2", []byte("no"))
	pub.Publish("b.2", []byte("3"))
	msgs = recvN(t, sub.C(), 1)
	if msgs[0].Topic != "b.2" {
		t.Errorf("after unsubscribe got %q", msgs[0].Topic)
	}
}

// stallPub binds a publisher with a one-frame queue per subscriber over the
// transport and attaches one subscriber with a one-frame receive queue that
// nobody reads.
func stallPub(t *testing.T, tcp bool, opts ...PubOption) (*Pub, *Sub) {
	pub, inproc, tcpAddr := leasePub(t, tcp, append(opts, WithHWM(1))...)
	addr := inproc
	if tcp {
		addr = tcpAddr
	}
	return pub, leaseSub(t, pub, addr, "", WithRecvBuffer(1))
}

// stallPayload is big enough that a few frames fill a loopback connection.
var stallPayload = bytes.Repeat([]byte{1}, 256<<10)

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "inproc"
}

// A subscriber that makes no room for one stall bound is evicted, over
// either transport: the publish that waited the bound out reaches nobody,
// and the publisher moves on. The subscriber finds what reached it before
// the eviction, then the link-loss report — which waits for room, so the
// stalled subscriber is not linked again meanwhile — and, once it reads
// again, a fresh link.
func TestPubEvictsSlowSubscriber(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			pub, sub := stallPub(t, tcp)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			sent := 0
			var took time.Duration
			for {
				began := time.Now()
				n := pub.PublishCtx(ctx, "t", stallPayload)
				took = time.Since(began)
				if n == 0 {
					break
				}
				sent++
				if q := pub.Queued(); !tcp && sent == 1 && (len(q) != 1 || q[0] != 1) {
					t.Errorf("after one publish to an in-process subscriber that reads nothing, Queued = %v, want [1]", q)
				}
			}
			if ctx.Err() != nil {
				t.Fatalf("no eviction after %d publishes", sent)
			}
			if took < pipeline.StallBound {
				t.Errorf("the evicting publish waited %v, want at least the %v stall bound", took, pipeline.StallBound)
			}
			if n := pub.Evicted(); n != 1 {
				t.Errorf("Evicted = %d, want 1", n)
			}
			waitFor(t, func() bool { return pub.Subscribers() == 0 }, "the evicted subscriber to detach")
			if q := pub.Queued(); len(q) != 0 {
				t.Errorf("Queued = %v once the only subscriber is detached, want none", q)
			}
			time.Sleep(50 * time.Millisecond)
			if n := pub.Subscribers(); n != 0 {
				t.Fatalf("a subscriber that still reads nothing was linked again (%d attached)", n)
			}
			got := 0
			for m := range sub.C() {
				if m.LinkLost() {
					break
				}
				if !bytes.Equal(m.Payload, stallPayload) {
					t.Fatalf("frame %d is not a published one", got)
				}
				got++
			}
			// In process every accepted frame is in the receive queue; over TCP
			// the ones still in the publisher's send queue went with the link.
			if got == 0 || got > sent || !tcp && got != sent {
				t.Errorf("received %d of %d accepted frames before the report", got, sent)
			}
			if err := sub.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			// The re-link is reported too, ahead of what it carries and
			// before WaitReady returns: in process before the attach, over
			// TCP on the publisher's first echo answer.
			select {
			case m := <-sub.C():
				if !m.LinkLost() {
					t.Fatalf("the first message after the re-link is %q, want the report", m.Topic)
				}
			default:
				t.Fatal("the re-link was not reported by the time the link was ready")
			}
			if n := pub.PublishCtx(ctx, "after", nil); n != 1 {
				t.Fatalf("the first publish on the ready re-link reached %d queues, want 1", n)
			}
			if m := recvN(t, sub.C(), 1)[0]; m.Topic != "after" {
				t.Fatalf("after the re-link report got %q, want the publish", m.Topic)
			}
		})
	}
}

// A routed inbox is never evicted, however long it makes no room, over
// either transport: a cluster member's intake has no cursor to fetch a
// forwarded batch again. The wait ends with ctx instead, and every accepted
// frame arrives, once, with no link report.
func TestPubHoldsRoutedInbox(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			pub, inproc, tcpAddr := leasePub(t, tcp, WithHWM(1))
			addr := inproc
			if tcp {
				addr = tcpAddr
			}
			sub := leaseSub(t, pub, addr, NodeSubscription("n1"), WithRecvBuffer(1))
			ctx, cancel := context.WithTimeout(context.Background(), 4*pipeline.StallBound)
			defer cancel()
			sent := 0
			for pub.PublishCtx(ctx, NodeTopic("n1", 0), stallPayload) == 1 {
				sent++
			}
			if ctx.Err() == nil {
				t.Fatalf("a publish reached nobody before ctx ended (%d accepted)", sent)
			}
			if n := pub.Evicted(); n != 0 {
				t.Fatalf("Evicted = %d, want 0: a routed inbox is held", n)
			}
			for i, m := range recvN(t, sub.C(), sent) {
				if m.LinkLost() || !bytes.Equal(m.Payload, stallPayload) {
					t.Fatalf("message %d is %q, want accepted frame %d", i, m.Topic, i)
				}
			}
			select {
			case m := <-sub.C():
				t.Fatalf("after the %d accepted frames got %q", sent, m.Topic)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

// Under WithBlockOnFull nobody is evicted, however long the wait — and a
// canceled context unwinds it, over either transport.
func TestPublishCtxUnwindsOnFullQueue(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			pub, _ := stallPub(t, tcp, WithBlockOnFull())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for pub.PublishCtx(ctx, "t", stallPayload) == 1 {
				}
			}()
			time.Sleep(2 * pipeline.StallBound)
			select {
			case <-done:
				t.Fatal("a publish into a full queue returned before its context ended")
			default:
			}
			cancel()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("the publish was still blocked 1s after its context was canceled")
			}
			if n, subs := pub.Evicted(), pub.Subscribers(); n != 0 || subs != 1 {
				t.Errorf("blocking publisher evicted %d and has %d subscribers, want 0 and 1", n, subs)
			}
		})
	}
}

// A closed socket takes no more connections: Connect says so and leaves
// nothing behind — no registered conn, so no connLoop.
func TestSubConnectAfterClose(t *testing.T) {
	sub := NewSub()
	sub.Close()
	if err := sub.Connect("inproc://connect-after-close"); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect on a closed socket = %v, want ErrClosed", err)
	}
	if n := len(sub.conns); n != 0 {
		t.Errorf("closed socket registered %d conns", n)
	}
}

// Membership's OnPeer connects from its sub loop while Kill closes the same
// socket. Under -race this is the wg.Add/wg.Wait pair; in any build, every
// connLoop a racing Connect started must be gone once Close returns.
func TestSubConnectRacesClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		sub := NewSub()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					err := sub.Connect(fmt.Sprintf("inproc://connect-race-%d-%d-%d", round, g, i))
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("Connect = %v", err)
					}
				}
			}()
		}
		sub.Close()
		wg.Wait()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "connLoops exit")
}

func TestSubReconnect(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := pub.Addr()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect(addr); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub.Publish("t", []byte("one"))
	recvN(t, sub.C(), 1)
	// Kill the publisher: the subscriber is told in band. Bring up a new
	// one on the same port.
	pub.Close()
	if m := recvN(t, sub.C(), 1)[0]; !m.LinkLost() {
		t.Errorf("after the publisher closed got %q, want the link-loss report", m.Topic)
	}
	pub2 := NewPub()
	if err := pub2.Bind(addr); err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A ready link has its subscription applied: one publish is enough, and
	// it arrives behind the re-link's report.
	pub2.Publish("t", []byte("two"))
	got := recvN(t, sub.C(), 2)
	if !got[0].LinkLost() {
		t.Errorf("the re-link's first message is %q, want its report", got[0].Topic)
	}
	if string(got[1].Payload) != "two" {
		t.Errorf("after reconnect got %q", got[1].Payload)
	}
}

func TestConnectBeforeBind(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://late-bind"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	pub := NewPub()
	if err := pub.Bind("inproc://late-bind"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub.Publish("t", []byte("hi"))
	msgs := recvN(t, sub.C(), 1)
	if string(msgs[0].Payload) != "hi" {
		t.Error("late bind delivery failed")
	}
}

func TestInprocDoubleBind(t *testing.T) {
	p1 := NewPub()
	if err := p1.Bind("inproc://dup"); err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2 := NewPub()
	if err := p2.Bind("inproc://dup"); err == nil {
		t.Error("double bind succeeded")
	}
}

// Frames go upstream on a ready link to the publisher's inbox, over either
// transport: only once the publisher has attached the sender (a reply
// published on reading the frame reaches it), in order, and all of them
// past a reader slower than the inbox is deep. Send refuses a link that is
// not ready and a control topic, and a frame sent before anyone reads the
// inbox waits in it. With the inbox full and unread, Sub.Close lets a waiting
// sender go, and Pub.Close closes the inbox under a waiting reader.
func TestSubSendUpstream(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			pub, addr, tcpAddr := leasePub(t, tcp)
			unbound := "inproc://upstream-unbound-" + t.Name()
			if tcp {
				addr, unbound = tcpAddr, "tcp://127.0.0.1:1"
			}
			sub := NewSub()
			defer sub.Close()
			if err := sub.Send(addr, Message{Topic: "hello"}); err == nil {
				t.Fatal("Send on an endpoint never connected succeeded")
			}
			if err := sub.Connect(unbound); err != nil {
				t.Fatal(err)
			}
			if err := sub.Send(unbound, Message{Topic: "hello"}); err == nil {
				t.Fatal("Send on a link that is not ready succeeded")
			}
			if tcp { // nor is a connection whose echo request is never answered
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				mute := "tcp://" + ln.Addr().String()
				if err := sub.Connect(mute); err != nil {
					t.Fatal(err)
				}
				conn, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				r := bufio.NewReader(conn)
				for m, err := readMessage(r); m.Topic != ctlEcho; m, err = readMessage(r) {
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := sub.Send(mute, Message{Topic: "hello"}); err == nil {
					t.Fatal("Send on a connection awaiting its echo succeeded")
				}
			}
			if err := sub.Connect(addr); err != nil {
				t.Fatal(err)
			}
			if err := sub.WaitEndpointReady(addr, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if err := sub.Send(addr, Message{Topic: ctlSubscribe, Payload: []byte("x")}); err == nil {
				t.Fatal("Send of a control topic succeeded")
			}
			if err := sub.Send(addr, Message{Topic: "early"}); err != nil {
				t.Fatal(err)
			}
			sub.Subscribe("") // its echo answer comes back once the publisher has read the frame ahead
			if err := sub.WaitEndpointReady(addr, 10*time.Second); err != nil {
				t.Fatal(err)
			}

			inbox := pub.Inbox()
			if m := recvN(t, inbox, 1)[0]; m.Topic != "early" {
				t.Fatalf("first inbox frame %q, want the one sent before the inbox was read", m.Topic)
			}
			for i := 0; i < 50; i++ { // each Send as early as the link lets it
				s := NewSub()
				s.Subscribe(fmt.Sprintf("reply%d", i))
				if err := s.Connect(addr); err != nil {
					t.Fatal(err)
				}
				for s.Send(addr, Message{Topic: "hello", Payload: []byte{byte(i)}}) != nil {
					time.Sleep(20 * time.Microsecond)
				}
				m := recvN(t, inbox, 1)[0]
				if m.Topic != "hello" || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
					t.Fatalf("inbox frame %d: %q %v", i, m.Topic, m.Payload)
				}
				if n := pub.PublishCtx(context.Background(), fmt.Sprintf("reply%d", i), nil); n != 2 {
					t.Fatalf("the reply to frame %d reached %d queues, want the sender's and sub's", i, n)
				}
				recvN(t, s.C(), 1)
				s.Close()
			}

			n := 4 * cap(inbox)
			go func() {
				for i := 0; i < n; i++ {
					if err := sub.Send(addr, Message{Topic: "seq", Payload: []byte(fmt.Sprint(i))}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			waitFor(t, func() bool { return len(inbox) == cap(inbox) }, "a full inbox") // the link waits on its reader
			for i, m := range recvN(t, inbox, n) {
				if string(m.Payload) != fmt.Sprint(i) {
					t.Fatalf("inbox frame %d is %q", i, m.Payload)
				}
			}

			sent := make(chan error, 1)
			go func() {
				payload := bytes.Repeat([]byte{1}, 16<<10)
				for {
					if err := sub.Send(addr, Message{Topic: "fill", Payload: payload}); err != nil {
						sent <- err
						return
					}
				}
			}()
			waitFor(t, func() bool { return len(inbox) == cap(inbox) }, "a full inbox")
			time.Sleep(50 * time.Millisecond) // in process the sender waits; over TCP the connection fills
			sub.Close()
			select {
			case <-sent:
			case <-time.After(10 * time.Second):
				t.Fatal("Sub.Close did not let the waiting sender go")
			}
			read := make(chan struct{})
			go func() {
				defer close(read)
				for range inbox {
				}
			}()
			waitFor(t, func() bool { return len(inbox) == 0 }, "the inbox drained")
			pub.Close()
			select {
			case <-read:
			case <-time.After(10 * time.Second):
				t.Fatal("Pub.Close did not close the inbox under its reader")
			}
		})
	}
}

func TestPubSubHighVolume(t *testing.T) {
	pub := NewPub(WithBlockOnFull())
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	go func() {
		payload := bytes.Repeat([]byte{1}, 64)
		for i := 0; i < n; i++ {
			pub.Publish("events", payload)
		}
	}()
	recvN(t, sub.C(), n)
	if pub.Evicted() != 0 {
		t.Errorf("evicted %d with blocking pub", pub.Evicted())
	}
}

func TestWaitReadyInproc(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://waitready"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://waitready"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A ready subscriber receives the very next publish — no slow-joiner
	// loss.
	pub.Publish("t", []byte("first"))
	msgs := recvN(t, sub.C(), 1)
	if string(msgs[0].Payload) != "first" {
		t.Errorf("got %q", msgs[0].Payload)
	}
}

func TestWaitReadyTimesOutUnbound(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://never-bound-xyz"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(100 * time.Millisecond); err == nil {
		t.Error("WaitReady succeeded with no publisher")
	}
}

func TestWaitReadyNoConnections(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	if err := sub.WaitReady(50 * time.Millisecond); err == nil {
		t.Error("WaitReady succeeded with zero endpoints")
	}
}
