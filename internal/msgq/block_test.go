package msgq

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fsmonitor/internal/events"
)

func benchBlock(t *testing.T) *events.Block {
	t.Helper()
	b := events.NewBlock(2, 128)
	for _, e := range []events.Event{
		{Root: "/mnt", Op: events.OpCreate, Path: "/a", Time: time.Unix(0, 1), Source: "mdt0"},
		{Root: "/mnt", Op: events.OpDelete, Path: "/b", Time: time.Unix(0, 2), Source: "mdt0"},
	} {
		if err := b.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// In-process subscribers receive the block pointer itself and no payload;
// TCP subscribers receive its wire image and a nil Block.
func TestPublishBlockInproc(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://block-pub"); err != nil {
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
	blk := benchBlock(t)
	delivered, shared := pub.PublishBlockCtx(context.Background(), "events.mdt0", blk)
	if delivered != 1 || !shared {
		t.Fatalf("delivered=%d shared=%v, want 1/true", delivered, shared)
	}
	m := recvN(t, sub.C(), 1)[0]
	if m.Block != blk {
		t.Fatalf("inproc receiver got Block %p, want the published pointer %p", m.Block, blk)
	}
	if m.Payload != nil {
		t.Fatalf("inproc receiver got a %d-byte payload beside the block", len(m.Payload))
	}
}

func TestPublishBlockTCP(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
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
	blk := benchBlock(t)
	delivered, shared := pub.PublishBlockCtx(context.Background(), "events.mdt0", blk)
	if delivered != 1 || !shared {
		t.Fatalf("delivered=%d shared=%v, want 1/true", delivered, shared)
	}
	m := recvN(t, sub.C(), 1)[0]
	if m.Block != nil {
		t.Fatal("block pointer crossed TCP")
	}
	got, err := events.DecodeBlock(m.Payload)
	if err != nil {
		t.Fatalf("decode received payload: %v", err)
	}
	if got.Len() != blk.Len() || got.Path(0) != blk.Path(0) {
		t.Fatalf("decoded block mismatch")
	}
}

// With no matching subscriber the publish is free: nothing is delivered,
// the block stays exclusively owned, and the wire image is never built.
func TestPublishBlockNoSubscriber(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://block-none"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("other.")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	blk := benchBlock(t)
	delivered, shared := pub.PublishBlockCtx(context.Background(), "events.mdt0", blk)
	if delivered != 0 || shared {
		t.Fatalf("delivered=%d shared=%v, want 0/false", delivered, shared)
	}
}

// Publishing to in-process subscribers only hands over the pointer: no
// wire image is built or cached on their account, so nothing the size of
// a payload is allocated however often the block is published.
func TestPublishBlockInprocBuildsNoWire(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://block-nowire"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub(WithRecvBuffer(64))
	defer sub.Close()
	sub.Subscribe("events.")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	blk := events.NewBlock(512, 32<<10)
	for i := 0; i < 512; i++ {
		if err := blk.AppendEvent(events.Event{Root: "/mnt/lustre", Op: events.OpModify, Path: "/dir/file", Time: time.Unix(0, int64(i)), Source: "mdt0"}); err != nil {
			t.Fatal(err)
		}
	}
	wireLen := uint64(len(blk.Wire()))
	blk.Reset() // drops the cached image along with the rows
	for i := 0; i < 512; i++ {
		blk.AppendEvent(events.Event{Root: "/mnt/lustre", Op: events.OpModify, Path: "/dir/file", Time: time.Unix(0, int64(i)), Source: "mdt0"})
	}
	ctx := context.Background()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if n, shared := pub.PublishBlockCtx(ctx, "events.mdt0", blk); n != 1 || !shared {
			t.Fatalf("delivered=%d shared=%v, want 1/true", n, shared)
		}
		if m := <-sub.C(); m.Block != blk || m.Payload != nil {
			t.Fatalf("received Block %p with a %d-byte payload, want the pointer alone", m.Block, len(m.Payload))
		}
	}
	runtime.ReadMemStats(&after)
	if perPublish := (after.TotalAlloc - before.TotalAlloc) / runs; perPublish*8 > wireLen {
		t.Fatalf("%d B allocated per in-process publish of a block whose wire image is %d B", perPublish, wireLen)
	}
}
