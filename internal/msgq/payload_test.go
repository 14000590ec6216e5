package msgq

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fsmonitor/internal/events"
	"fsmonitor/internal/events/eventstest"
)

// payloadRig is a blocking publisher on a loopback port and one TCP
// subscriber with a receive queue of depth frames, with returned payload
// buffers poisoned: a buffer that went back to its connection while a test
// still reads it shows eventstest.PoisonByte.
func payloadRig(t testing.TB, depth int) (pub *Pub, sub *Sub, addr string) {
	t.Helper()
	PoisonReturnedPayloads(eventstest.PoisonByte)
	t.Cleanup(func() { PoisonReturnedPayloads(0) })
	pub, _, addr = leasePub(t, true, WithBlockOnFull())
	sub = leaseSub(t, pub, addr, "", WithRecvBuffer(depth))
	return pub, sub, addr
}

// connBufs is the free list of sub's current connection to addr.
func connBufs(sub *Sub, addr string) *bufList {
	sub.mu.Lock()
	c := sub.conns[addr]
	sub.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bufs
}

func (l *bufList) stats() (made, idle int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.made, len(l.free)
}

// holds reports whether buf is idle in the list.
func (l *bufList) holds(buf []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.free {
		if &b[:1][0] == &buf[:1][0] {
			return true
		}
	}
	return false
}

// framePayload is frame i's payload: 4 KiB that name i every eight bytes
// and never contain the poison byte.
func framePayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%07d.", i)), 512)
}

func publishFrames(pub *Pub, from, to int) {
	for i := from; i < to; i++ {
		pub.PublishCtx(context.Background(), "events.mdt0", framePayload(i))
	}
}

func checkFrame(t *testing.T, m Message, i int) {
	t.Helper()
	if m.Topic != "events.mdt0" || !bytes.Equal(m.Payload, framePayload(i)) {
		t.Fatalf("frame %d arrived on %q as %d bytes starting %x, want its own payload", i, m.Topic, len(m.Payload), m.Payload[:min(8, len(m.Payload))])
	}
}

// A subscriber that says Done after every frame is handed the same few
// buffers over and over, never more than its queue holds: the publisher here
// stays within one queue's worth of the receiver.
func TestPayloadBuffersRecycle(t *testing.T) {
	const frames, depth = 500, 10
	pub, sub, addr := payloadRig(t, depth)
	for i := 0; i < frames; i++ {
		if i%depth == 0 {
			publishFrames(pub, i, i+depth)
		}
		m := recvN(t, sub.C(), 1)[0]
		checkFrame(t, m, i)
		if m.lease == nil {
			t.Fatalf("frame %d read from a TCP connection carries no lease", i)
		}
		m.Done()
	}
	if made, _ := connBufs(sub, addr).stats(); made > depth {
		t.Errorf("%d frames, each Done, were read into %d distinct buffers; want at most the queue's depth, %d", frames, made, depth)
	}
}

// A message the receiver holds keeps its bytes while 200 later frames come
// and go through the buffers around it.
func TestPayloadHeldIntact(t *testing.T) {
	pub, sub, _ := payloadRig(t, 4)
	go publishFrames(pub, 0, 201)
	held := recvN(t, sub.C(), 1)[0]
	for i := 1; i <= 200; i++ {
		m := recvN(t, sub.C(), 1)[0]
		checkFrame(t, m, i)
		m.Done()
	}
	checkFrame(t, held, 0)
	held.Done()
}

// A receiver that never says Done (membership control frames, a traced
// benchmark pass) is delivered every frame intact, each in memory of its
// own that the GC takes back.
func TestPayloadNeverDone(t *testing.T) {
	const frames = 300
	pub, sub, addr := payloadRig(t, 4)
	go publishFrames(pub, 0, frames)
	got := recvN(t, sub.C(), frames)
	for i, m := range got {
		checkFrame(t, m, i)
	}
	if made, idle := connBufs(sub, addr).stats(); made != frames || idle != 0 {
		t.Errorf("%d frames nobody said Done for: %d buffers made, %d idle; want one each and none back", frames, made, idle)
	}
}

// The free list keeps every buffer that comes back, bar one above
// maxKeptBuf, and makes one only when it has none to hand out: over random
// bursts of frames, each followed by most of their buffers coming back in
// random order, it holds exactly the buffers that came back and were not
// taken again, and never more than it made.
func TestBufListKeepsWhatComesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := &bufList{}
	var out [][]byte
	idle := 0
	check := func(what string) {
		t.Helper()
		if made, got := l.stats(); got != idle || got > made {
			t.Fatalf("%s: %d buffers idle, want %d; %d made", what, got, idle, made)
		}
	}
	for round := 0; round < 20; round++ {
		for n := rng.Intn(300); len(out) < n; {
			size := 1 + rng.Intn(4096)
			if rng.Intn(100) == 0 {
				size = maxKeptBuf + 1
			}
			out = append(out, l.get(size))
			idle = max(idle-1, 0)
			check("after a get")
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for keep := rng.Intn(len(out)/8 + 1); len(out) > keep; {
			buf := out[len(out)-1]
			out = out[:len(out)-1]
			l.put(buf)
			if cap(buf) <= maxKeptBuf {
				idle++
				if !l.holds(buf) {
					t.Fatalf("round %d: a returned %d-byte buffer was dropped", round, cap(buf))
				}
			}
			check("after a put")
		}
	}
}

// The aggregator's shape over TCP: a block decoded over a received payload
// is republished on lease with the received message as parent. The payload
// goes back to its connection only after the block's release hook has run.
func TestPayloadParentDoneAfterRelease(t *testing.T) {
	up, upSub, _ := payloadRig(t, 4)
	down, downAddr, _ := leasePub(t, false)
	consumer := leaseSub(t, down, downAddr, "")

	src := benchBlock(t)
	want := append([]byte(nil), src.Wire()...)
	up.PublishBlockCtx(context.Background(), "events.mdt0", src)
	parent := recvN(t, upSub.C(), 1)[0]
	blk, err := events.DecodeBlock(parent.Payload)
	if err != nil {
		t.Fatal(err)
	}
	atRelease := ""
	release := func(b *events.Block) {
		if b != blk {
			t.Errorf("release hook got block %p, want %p", b, blk)
		}
		atRelease = b.Path(1) // the decoded block still reads the payload here
	}
	if n := down.PublishLeasedCtx(context.Background(), "agg.events", blk, release, parent); n != 1 {
		t.Fatalf("downstream delivered %d, want 1", n)
	}
	m := recvN(t, consumer.C(), 1)[0]
	if !bytes.Equal(parent.Payload, want) {
		t.Fatal("the payload changed while the republished block was still out")
	}
	m.Done()
	if atRelease != "/b" {
		t.Errorf("the release hook read path %q through the decoded block, want %q: the payload went back first", atRelease, "/b")
	}
	if !bytes.Equal(parent.Payload, bytes.Repeat([]byte{eventstest.PoisonByte}, len(want))) {
		t.Error("after the last downstream Done the payload buffer is not back with its connection")
	}
}

// A reconnect starts a fresh free list: a buffer still held from the dropped
// connection is never refilled by its successor, and when it is finally Done
// it goes back to the list nobody reads from.
func TestPayloadReconnectFreshList(t *testing.T) {
	pub, sub, addr := payloadRig(t, 4)
	publishFrames(pub, 0, 1)
	held := recvN(t, sub.C(), 1)[0]
	old := connBufs(sub, addr)

	sub.mu.Lock()
	c := sub.conns[addr]
	sub.mu.Unlock()
	c.mu.Lock()
	c.raw.Close()
	c.mu.Unlock()
	// Ready on the new connection: the publisher has its subscription.
	waitFor(t, func() bool { return connBufs(sub, addr) != old && c.isReady() }, "the subscriber to reconnect")
	go publishFrames(pub, 1, 201)
	for i := 1; i <= 200; {
		m := recvN(t, sub.C(), 1)[0]
		if m.LinkLost() { // the dropped link's report, and the new one's
			continue
		}
		checkFrame(t, m, i)
		if &m.Payload[0] == &held.Payload[0] {
			t.Fatalf("frame %d was read into a buffer a receiver still holds from the dropped connection", i)
		}
		m.Done()
		i++
	}
	checkFrame(t, held, 0)
	held.Done()
	if !old.holds(held.Payload) || connBufs(sub, addr).holds(held.Payload) {
		t.Error("the held buffer did not go back to the dropped connection's own list")
	}
}

// The receive side of a TCP hop in steady state allocates nothing per
// frame: the payload buffer and the lease record come back with Done, the
// topic string is the previous frame's.
func BenchmarkTCPHopLeased(b *testing.B) {
	pub, _, addr := leasePub(b, true, WithBlockOnFull())
	sub := leaseSub(b, pub, addr, "", WithRecvBuffer(4))
	payload, ctx := bytes.Repeat([]byte("x"), 32<<10), context.Background()
	round := func() {
		pub.PublishCtx(ctx, "events.mdt0", payload)
		m := <-sub.C()
		m.Done()
	}
	for i := 0; i < 16; i++ { // first buffer, first lease record, the topic string
		round()
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// frameBytes is one well-formed frame.
func frameBytes(topic string, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMessage(w, Message{Topic: topic, Payload: payload}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzFrame feeds damaged frame streams to both readers — the plain one
// behind ReadFrame and the leased one a Sub's TCP connection uses, the
// latter through a reader window smaller than some topics — and requires an
// error or the same frames from both, never a panic, and never memory a
// length field asked for beyond maxFrame.
func FuzzFrame(f *testing.F) {
	good := frameBytes("events.mdt0", []byte("payload"))
	long := frameBytes(strings.Repeat("t", 200), []byte("after a topic longer than the window"))
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(long)
	f.Add(good[:len(good)-3])                                  // cut mid-payload
	f.Add(good[:6])                                            // cut mid-topic
	f.Add(good[:2])                                            // cut inside a length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                 // topic length beyond the limit
	f.Add([]byte{1, 0, 0, 0, 't', 0xff, 0xff, 0xff, 0x7f})     // payload length beyond the limit
	f.Add([]byte{1, 0, 0, 0, 't', 0, 0, 0x10, 0, 'a', 'b'})    // a megabyte announced, two bytes sent
	f.Add(append(frameBytes("", nil), frameBytes("", nil)...)) // empty topic, empty payload
	f.Fuzz(func(t *testing.T, stream []byte) {
		plain := bufio.NewReader(bytes.NewReader(stream))
		leased := frameReader{r: bufio.NewReaderSize(bytes.NewReader(stream), 16), bufs: &bufList{}}
		for {
			want, werr := ReadFrame(plain)
			got, gerr := leased.next()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("ReadFrame: %v; leased reader: %v", werr, gerr)
			}
			if werr != nil {
				return
			}
			if got.Topic != want.Topic || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("leased reader read %q/%x, ReadFrame %q/%x", got.Topic, got.Payload, want.Topic, want.Payload)
			}
			if cap(got.Payload) > maxFrame || cap(want.Payload) > maxFrame {
				t.Fatalf("a payload buffer of %d bytes, beyond the %d-byte limit", max(cap(got.Payload), cap(want.Payload)), maxFrame)
			}
			if leased := got.lease != nil; leased != (len(got.Payload) > 0) {
				t.Fatalf("a %d-byte payload, leased: %v; want a lease on every payload that holds a buffer", len(got.Payload), leased)
			}
			got.Done()
		}
	})
}
