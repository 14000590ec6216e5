package events

// The wire layout of an event batch. The scalable monitor ships batches of
// events from collectors to the aggregator and from the aggregator to
// consumers (§IV-2) in this compact binary format, as the message-queue
// payload; Block (block.go) is its one encoder and decoder — EncodeTo,
// AppendRowsTo, DecodeBlockInto — and codec_ref_test.go holds the
// event-by-event reference implementation the tests compare Block against.
//
// Batch layout (all integers little-endian):
//
//	u32 count | [i64 stamp] | [trace] | count * event
//
// stamp is the monitor's capture timestamp for the whole batch: all
// events of one Changelog read share the moment the monitor first saw
// them, so latency tracing is batch metadata, not a per-event field. It
// rides the wire (surviving the aggregator's no-decode forwarding) and is
// present only when the batchStamped bit is set in the count word —
// untraced deployments (the default) are byte-identical to a build without
// tracing. The body of an event-store journal record is this layout without
// stamp or trace (Block.AppendRowsTo): journal bytes are a function of the
// events alone.
//
// trace is the sampled span-trace section, present only when the
// batchTraced bit is set:
//
//	u64 traceID | u8 nspans | nspans * (u8 tier | i64 unixNano | u8 len(node) node)
//
// traceID is the sampled event's EventKey; each tier the batch passes
// through appends one span (see trace.go), tagged with the recording
// cluster node's ID ("" outside the aggregation cluster — one length byte
// on the wire). Batches without a sampled event never carry the section,
// so 1-in-N sampling costs (9 + (10+len(node))*spans) wire bytes on
// roughly one batch in N/batchSize.
//
// Event layout:
//
//	u32 op | u32 cookie | u64 seq | i64 unixNano
//	u16 len(root) root | u16 len(path) path | u16 len(old) old | u8 len(src) src

const maxStr = 1<<16 - 1

// Batch-header flag bits in the count word, far outside any real batch
// size and masked off on decode.
const (
	// batchStamped flags a capture-stamped batch.
	batchStamped = uint32(1) << 31
	// batchTraced flags a batch carrying a span-trace section.
	batchTraced = uint32(1) << 30

	batchFlags = batchStamped | batchTraced
)
