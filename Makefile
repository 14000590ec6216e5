GO ?= go

.PHONY: all build fmt vet staticcheck loc test race soak fuzz-smoke bench-smoke bench-aggregator bench-telemetry bench-trace bench-mount bench-cluster bench-journey trace-sample audit-smoke incident-smoke check

all: check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any source file (the named roots keep
# it out of .bench_build/, which holds a copy of the tree).
fmt:
	@out=$$(gofmt -l *.go cmd examples internal benchmark); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# staticcheck runs when the binary is available (CI installs it; dev
# machines without it skip with a note rather than failing the gate).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

# loc prints the figure every simplicity PR is gated on: committed non-test
# Go lines outside benchmark/ (the benchmark's own module may not change in
# such a PR, so it is not part of the count).
loc:
	@git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l

race:
	$(GO) test -race -shuffle=on ./...

# soak is the gate on block, payload and cache-buffer recycling: SOAK
# repeats, under the race detector, of msgq's lease and receive-buffer unit
# tests, of the resolver cache's aliasing tests (entry and flight buffers
# handed from key to key while readers copy out) and of the poisoning test —
# every pool overwrites a block, and every TCP connection a payload buffer,
# with a sentinel before taking it back, and two consumers (in-process and
# TCP behind a clone or a TCP hop in, or both in process on one block) must
# be delivered exactly what was written — and of the recovery pager's test
# (a live engine paged to the wire while a writer appends and purges and the
# retention bound drop, and Reset in place, the segments it reads) and of the
# consumer's paged replay (one store through the wire client, the in-process
# aggregator and a fan-out, receive buffers poisoned as they return), and of
# the stall tests (a subscriber evicted past the stall bound over either
# transport, a blocking publish unwound by its context, a never-read
# consumer beside a drained one, and the aggregator's Close behind one), then
# SOAK quick runs of the event-journey benchmark, cycling the four workloads
# with a fresh seed each, every one of which must report failed = 0 (its
# oracle checks loss, duplication, order and paths).
# A block handed back while something still reads it is a race the detector
# may miss and a seed may dodge; two hundred of each has not missed one yet.
# CI runs SOAK=20. The internal/scalable line takes ≈ 76 s per count under
# -race on 2 vCPUs, so its timeout is 90 s per count plus 10 min, not go
# test's fixed 10 min.
SOAK ?= 200
soak:
	$(GO) test -race -count=$(SOAK) -run 'TestLease|TestDoneUnleased|TestPublishLeased|TestPayload|TestPubEvictsSlowSubscriber|TestPublishCtxUnwindsOnFullQueue|TestPubHoldsRoutedInbox' ./internal/msgq/
	$(GO) test -race -count=$(SOAK) -run 'TestRecycledFlightsKeepTheirKeys|TestReadersNeverSeeAnotherKeysBytes|TestValuesAreCopies' ./internal/cache/
	$(GO) test -race -count=$(SOAK) -timeout $$(($(SOAK) * 90 + 600))s -run 'TestRecycledBlocksPoisoned|TestRecoveryPagingUnderDrops|TestConsumerReplayPages|TestStalledConsumerStallsNothing|TestAggregatorCloseWithStalledConsumer|TestEvictedConsumerHealsUnderLiveTraffic|TestForwardToStalledOwnerLosesNothing' ./internal/scalable/
	@i=0; while [ $$i -lt $(SOAK) ]; do \
		for w in hot_inproc hot_tcp_journal churn_cold_4part crash_recovery; do \
			[ $$i -lt $(SOAK) ] || break; i=$$((i+1)); \
			out=$$(bash benchmark/run.sh --workload $$w --seed $$i --quick --trace 0 2>&1) || { echo "$$out"; echo "soak: $$w seed $$i failed"; exit 1; }; \
			line=$$(printf '%s\n' "$$out" | tail -n 1); \
			echo "soak: $$w seed $$i $$(printf '%s' "$$line" | grep -o '"attempted":[0-9]*,"correct":[a-z]*,"failed":[0-9]*')"; \
			printf '%s' "$$line" | grep -q '"failed":0,' || { echo "$$out"; exit 1; }; \
		done; \
	done; echo "soak: $$i quick benchmark runs, failed = 0 on every one"

# fuzz-smoke runs every Fuzz* target in the repository for 5 s each: long
# enough to replay the seed corpus and mutate a few thousand inputs, so a
# parser that panics or over-allocates on damaged bytes fails the gate
# instead of waiting for a dedicated fuzzing run.
fuzz-smoke:
	@grep -rHo --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*' . | \
	while IFS=: read -r file fn; do \
		echo "fuzz $$(dirname $$file) $${fn#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }$$" -fuzztime 5s "$$(dirname $$file)" || exit 1; \
	done

# bench-smoke runs one iteration of the fast micro-benchmarks (resolver
# scaling, the resolver's miss path beside its hit path, cache contention,
# filling an empty cache (a few allocations per shard, not two per entry),
# pipeline stages, aggregator partitions, fid2path appending into a reused
# buffer (0 allocs/op), and the five per-batch contracts of the journey: a
# Changelog read is a view (0 B/op), a fresh block's wire
# image is one allocation, the consumer's deliver stage reads no clock per
# event, a leased publish allocates nothing, a frame over loopback TCP that
# is received and Done allocates nothing either), one recovery replay served
# to a discarding reader (RecoveryServe: a fixed handful of allocations per
# request, not per page), the same replay through a restarted consumer
# (ConsumerRecover: ns and B per event, pages taken as they land), the same
# replay materialized in process (ShardedSinceVector: the result slice is
# sized once), one journal reopen
# (StoreOpen: B/op is the segments kept, not the file), 10 000 hot rows
# stored in one batch (StoreHotRows: at most 44 B a row in the segment,
# root and source held once, seqs implied by the segment's first and
# stride), one 512-row hot payload decoded into a pooled block
# (DecodeBlock: ns per block, 0 allocs), and one watchdog
# evaluation over a full 300-series x 256-sample window, as a CI regression
# canary; the slow paper-table benches stay out of it.
bench-smoke:
	$(GO) test -run '^$$' -bench 'ResolveStage|ResolveMiss|ResolveHit|GetOrLoad|CacheFill|AggregatorThroughput|AppendFid2Path|ChangelogRead|BlockWireFresh|ConsumerDeliver|PublishLeased|TCPHopLeased|RecoveryServe|ConsumerRecover|ShardedSinceVector|StoreOpen|StoreHotRows|DecodeBlock|HealthEvaluate' -benchtime 1x -benchmem \
		./internal/resolve/ ./internal/cache/ ./internal/bench/ ./internal/lustre/ ./internal/events/ ./internal/scalable/ ./internal/msgq/ ./internal/telemetry/ ./internal/eventstore/

# bench-aggregator measures aggregation-tier store throughput at 1/2/4
# partitions, paced (AggregatorThroughput, 1µs accounted cost per event)
# and raw (AggregatorThroughputRaw, pacing dialed to 1ns so the metric is
# the pipeline's own mechanical ceiling).
bench-aggregator:
	$(GO) test -run '^$$' -bench 'AggregatorThroughput(Raw)?/' -benchmem ./internal/bench/

# bench-telemetry runs the aggregator bench with and without a live
# registry attached; the events/s delta is the observability overhead
# (acceptance: telemetry enabled costs < 5%).
bench-telemetry:
	$(GO) test -run '^$$' -bench 'AggregatorThroughput(Telemetry)?/' -benchmem ./internal/bench/

# bench-trace runs the telemetry-enabled aggregator bench with and
# without 1-in-1024 per-event span tracing armed; the events/s delta is
# the tracing overhead (acceptance: < 5% at ~1-in-1000 sampling).
bench-trace:
	$(GO) test -run '^$$' -bench 'AggregatorThroughputT(elemetry|raced)/' -benchmem ./internal/bench/

# bench-mount measures the mount-composed namespace's routing overhead
# against direct single-DSI attach at two levels: the raw pump pair
# (Direct/MountAttach: channel forward vs rewrite+route+forward — the
# absolute per-event cost, ~200ns) and the end-to-end monitor pair
# (MonitorThroughputDirect/Mounted: full capture→resolve→store path).
# Acceptance: < 5% end-to-end events/s delta on multi-core hosts, where
# the mount pump runs beside the resolution loop; on a single-core host
# the pump serializes and the delta degrades toward the raw pair's ratio,
# so judge the gate by the multi-core number.
bench-mount:
	$(GO) test -run '^$$' -bench 'DirectAttach|MountAttach$$|MountAttachNested|Route$$' -benchtime 1s -benchmem \
		./internal/dsi/mount/
	$(GO) test -run '^$$' -bench 'MonitorThroughput' -benchtime 100000x -benchmem ./internal/bench/

# bench-cluster measures aggregate store throughput of the clustered
# aggregation tier at 1/2/4 members over 4 partitions. The accounted
# per-event aggregation cost (2µs) is paced per store lane, exactly as in
# the classic aggregator (a lane is the paper's serial store thread,
# whoever runs it), so the model's ceiling is lanes/cost = 2M events/s at
# every member count and the old ">= 1.6x from 1 node to 2" gate — which
# one throttle per node guaranteed by construction — is no longer a
# prediction. It is still what this bench measures on a 2-core host
# (~0.5M / 1.0M / 2.0M): one aggregator has a single dispatcher in front
# of its lanes, and when the intake queue holds long single-partition runs
# the lanes take turns (bench-aggregator shows the same, partitions=4 ~
# partitions=1), so what members add is intake pipelines. The 1->2 ratio is
# reported, not gated. Acceptance: no member count below the figure the
# per-node throttle gave it (0.50M / 0.94M / 2.00M, EXPERIMENTS.md).
# The Telemetry variant re-runs with the observability plane armed — gauges,
# conservation audit, federated snapshots — and the events/s delta is
# the enabled-plane overhead (acceptance: < 5%).
bench-cluster:
	$(GO) test -run '^$$' -bench 'ClusterThroughput/' -benchmem ./internal/bench/

# bench-journey runs the event-journey benchmark (BENCHMARK.json): its own
# module's tests — which `go test ./...` at the root does not reach — then
# each of the four workloads exactly as the benchmark's driver invokes them
# (seed 1, 10 measured seconds, untraced). A run exits non-zero when its
# oracle finds a lost, duplicated, reordered or mis-resolved event. The
# result lines land in bench-journey.json, one object per workload — the
# artifact CI uploads so the end-to-end numbers can be followed across
# commits. With BENCH=<n> they are also written to BENCH_<n>.json — the
# committed trajectory (ROADMAP item 4a) — with the commit, core count and
# Go version; PARENT=<checkout of the parent commit in which `make
# bench-journey` has run> adds that checkout's results as the "parent"
# section, so each file carries the pair it was judged on.
bench-journey:
	cd benchmark && $(GO) test ./...
	@rm -f bench-journey.json
	@for w in hot_inproc hot_tcp_journal churn_cold_4part crash_recovery; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 10 --trace 0) || { echo "$$out"; exit 1; }; \
		printf '{"workload":"%s","result":%s}\n' $$w "$$(printf '%s\n' "$$out" | tail -n 1)" | tee -a bench-journey.json; \
	done
	@if [ -n "$(BENCH)" ]; then { \
		section() { printf '"commit":"%s","results":[\n' "$$(git -C "$$1" describe --always --dirty --abbrev=40)"; sed '$$!s/$$/,/' "$$1/bench-journey.json"; printf ']'; }; \
		printf '{"bench":%s,"nproc":%s,"go":"%s",\n' "$(BENCH)" "$$(nproc)" "$$($(GO) env GOVERSION)"; \
		section .; \
		if [ -n "$(PARENT)" ]; then printf ',\n"parent":{'; section "$(PARENT)"; printf '}'; fi; \
		printf '}\n'; \
	} > BENCH_$(BENCH).json; echo "wrote BENCH_$(BENCH).json"; fi

# audit-smoke is the delivery-conservation gate: deploy a 2-node
# cluster, stream a batch of events through capture → store → deliver,
# and require the audit to balance to zero with no sequence violations
# while /cluster/metrics and /cluster/metrics/prom parse. The merged
# cluster metrics document lands in cluster-metrics.json — the artifact
# CI uploads so a conservation break is diagnosable from the run.
audit-smoke:
	FSMON_AUDIT_SMOKE_OUT=$(CURDIR)/cluster-metrics.json \
		$(GO) test -count=1 -run 'TestAuditSmoke' ./internal/scalable/

# incident-smoke is the flight-recorder gate: deploy a 2-node cluster
# with the recorder armed, inject a pipeline stall under live load, and
# require a diagnostic bundle within one watchdog window that names the
# tripping rule and holds boosted-rate traces, sampler history, and the
# log ring. The bundle lands in incident-bundle.json — the artifact CI
# uploads so a tripped gate is diagnosable from the run.
incident-smoke:
	FSMON_INCIDENT_SMOKE_OUT=$(CURDIR)/incident-bundle.json \
		$(GO) test -count=1 -run 'TestIncidentSmoke' ./internal/scalable/

# trace-sample drives the simulated-Lustre demo workload with every
# event traced end to end and writes the completed span chains to
# traces.json — the CI sample artifact, loadable in chrome://tracing.
trace-sample:
	$(GO) run ./cmd/fsmon -lustre iota -demo -partitions 2 -trace-sample 1 -trace-out traces.json >/dev/null

# check is the pre-PR gate: everything must build, be gofmt-clean, vet (and
# staticcheck, where installed) clean, pass the full suite under the race detector,
# survive a fuzz smoke of every parser, hold the tracing-overhead and
# mount-routing benches, run the event-journey
# benchmark with its oracle green, keep the cluster delivery-conservation
# audit balanced, and prove the incident flight recorder captures an
# injected stall.
check: build fmt vet staticcheck race fuzz-smoke bench-trace bench-mount bench-journey audit-smoke incident-smoke
