GO ?= go
COVER_MIN ?= 85
FWD_COVER_MIN ?= 80
FUZZTIME ?= 30s
# package:target pairs; go test accepts one -fuzz pattern per invocation.
FUZZ_TARGETS = \
	internal/fwd:FuzzGTMHeader internal/fwd:FuzzStripeHeader \
	internal/fwd:FuzzGTMCompactHeader internal/fwd:FuzzMcastHeader \
	internal/fwd:FuzzRelData internal/fwd:FuzzRelAck internal/fwd:FuzzRelDesc \
	internal/health:FuzzHealthProbe internal/flow:FuzzFlowCredit \
	internal/agg:FuzzAggFrame

.PHONY: check build vet test race bench bench-identical cover fuzz stripe-gate r2-gate o2-gate c1-gate m1-gate b1-gate allocs-gate soak

# check includes the facade API-surface golden test (api_test.go vs
# api.txt) via the race lane; regen the listing after an intentional API
# change with: MADGO_REGEN_API=1 $(GO) test -run TestAPISurfaceGolden .
check: build vet race cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem
	$(GO) run ./cmd/madbench -json o1 > BENCH_o1.json
	$(GO) run ./cmd/madbench -json p1 > BENCH_p1.json
	$(GO) run ./cmd/madbench -json s1 > BENCH_s1.json
	$(GO) run ./cmd/madbench -json r2 > BENCH_r2.json
	$(GO) run ./cmd/madbench -json o2 > BENCH_o2.json
	$(GO) run ./cmd/madbench -json c1 > BENCH_c1.json
	$(GO) run ./cmd/madbench -json m1 > BENCH_m1.json
	$(GO) run ./cmd/madbench -json b1 > BENCH_b1.json

# bench-identical regenerates every archived BENCH_*.json into a temporary
# directory and fails on any difference from the committed file. The
# simulation is deterministic, so a change that claims to leave behaviour
# untouched must reproduce each archive byte for byte. The only lines
# filtered out are the two wall-clock notes of BENCH_o2.json, which time the
# host rather than the model.
BENCH_IDS = b1 c1 m1 o1 o2 p1 r2 s1

bench-identical:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; fail=0; \
	for id in $(BENCH_IDS); do \
		$(GO) run ./cmd/madbench -json $$id > "$$tmp/got.json"; \
		cp BENCH_$$id.json "$$tmp/want.json"; \
		if [ $$id = o2 ]; then \
			grep -v ' wall-clock: ' "$$tmp/got.json" > "$$tmp/got.f" || true; \
			grep -v ' wall-clock: ' "$$tmp/want.json" > "$$tmp/want.f" || true; \
			mv "$$tmp/got.f" "$$tmp/got.json"; mv "$$tmp/want.f" "$$tmp/want.json"; \
		fi; \
		if diff -u "$$tmp/want.json" "$$tmp/got.json" > "$$tmp/diff"; then \
			echo "BENCH_$$id.json: identical"; \
		else \
			echo "BENCH_$$id.json: differs from a fresh run"; cat "$$tmp/diff"; fail=1; \
		fi; \
	done; exit $$fail

# stripe-gate archives the striping sweep and fails unless K=2 goodput on
# the dual-rail topology is >= 1.5x the K=1 baseline at 64-128 KB. The
# simulation is deterministic, so the gate test reruns the exact sweep the
# JSON archive came from.
stripe-gate:
	$(GO) run ./cmd/madbench -json s1 > BENCH_s1.json
	$(GO) test ./internal/bench -run '^TestS1StripeSpeedupGate$$' -v

# r2-gate archives the self-healing recovery run and fails unless the rail
# the fault plan flaps dead is re-admitted after probation and goodput
# re-converges to >= 90% of the pre-fault dual-rail level. Deterministic,
# so the gate test reruns the exact stream the JSON archive came from.
r2-gate:
	$(GO) run ./cmd/madbench -json r2 > BENCH_r2.json
	$(GO) test ./internal/bench -run '^TestR2SelfHealingGate$$' -v

# o2-gate archives the flight-recorder overhead run and fails unless (a)
# goodput with the recorder armed stays within 5% of the disarmed run (it
# is identical: recording costs no virtual time and zero allocations — the
# alloc-regression test pins the latter), and (b) the critical-path
# analyzer calls the depth-1 stream swap-overhead-bound (§3.4.1) and clears
# the verdict at depth 8. Deterministic, so the gate test reruns the exact
# streams the JSON archive came from.
o2-gate:
	$(GO) run ./cmd/madbench -json o2 > BENCH_o2.json
	$(GO) test ./internal/bench -run '^TestO2FlightGate$$' -v
	$(GO) test ./internal/flight -run 'ZeroAllocs' -v

# c1-gate archives the 64-sender incast fairness run and fails unless the
# FIFO baseline is measurably unfair (Jain <= 0.80), the credit + DRR
# scheduler equalizes per-sender goodput (Jain >= 0.90), and aggregate
# goodput stays within 5% of the serialized single-sender ceiling.
# Deterministic, so the gate test reruns the exact incast the JSON archive
# came from.
c1-gate:
	$(GO) run ./cmd/madbench -json c1 > BENCH_c1.json
	$(GO) test ./internal/bench -run '^TestC1FlowGate$$' -v

# m1-gate archives the eager small-message sweep and fails unless the
# eager+aggregation configuration delivers >= 3x the seed framing's goodput
# for every mice size up to 1 KB while the 64/128 KB parity points, which
# bypass the coalescer, stay within 2% of the seed. Deterministic, so the
# gate test reruns the exact sweep the JSON archive came from.
m1-gate:
	$(GO) run ./cmd/madbench -json m1 > BENCH_m1.json
	$(GO) test ./internal/bench -run '^TestM1EagerGate$$' -v
	$(GO) test ./internal/agg -run 'AllocsNothing' -v

# b1-gate archives the broadcast fan-out comparison and fails unless
# gateway-native multicast delivers >= 2x the unicast fan-out's aggregate
# goodput at 8+ receivers on the 2-gateway chain, every receiver's payload
# is byte-identical, and the first gateway's ingress byte count is
# independent of the receiver count. Deterministic, so the gate test reruns
# the exact streams the JSON archive came from.
b1-gate:
	$(GO) run ./cmd/madbench -json b1 > BENCH_b1.json
	$(GO) test ./internal/bench -run '^TestB1McastGate$$' -v

# allocs-gate pins the host cost of the simulation core's hot path: zero
# allocations per scheduled callback and per Sleep resume (vtime), at most
# two per Spawn run to completion (the process record and its Proc handle;
# the coroutine is reused), zero per water-filling pass at 8 and 64 flows
# (fluid), at most two per fluid transfer (the Flow and its Waker), plus the
# flight recorder's and the aggregator's zero-allocation pins, and the
# allocation count of one forwarded 1 KB eager message end to end (the
# packer/unpacker dispatch adds none). It then prints the per-layer
# host-cost microbenchmarks, which are not gated: wall-clock time depends
# on the host.
allocs-gate:
	$(GO) test ./internal/vtime ./internal/fluid -run 'Allocs' -v
	$(GO) test ./internal/flight -run 'ZeroAllocs' -v
	$(GO) test ./internal/agg -run 'AllocsNothing' -v
	$(GO) test ./internal/fwd -run '^TestForwardedSendAllocs$$' -v
	$(GO) test ./internal/vtime ./internal/fluid -run '^$$' -bench 'SimEvent|ProcSwitch|Spawn|FluidTransfer' -benchmem

# soak runs the chaos property tests — random link flaps under load with
# byte-identical payload, epoch-convergence and rail-readmission
# assertions — and the many-senders contention wall (2..64 senders x
# topology x mode x flow on/off, byte-identical delivery without deadlock),
# all with the race detector on.
soak:
	$(GO) test -race ./internal/fwd -run '^TestChaosSoakSelfHealing$$|^TestHealth' -v
	$(GO) test -race ./internal/fwd -run '^TestManySendersContentionWall$$' -v
	$(GO) test -race ./internal/health

# fuzz smokes every wire-codec fuzz target for FUZZTIME each (go test
# accepts a single -fuzz pattern per invocation, hence the pkg:target
# loop). CI runs this with the default 30s per target.
fuzz:
	@set -e; for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "fuzz ./$$pkg $$t ($(FUZZTIME))"; \
		$(GO) test ./$$pkg -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); \
	done

# cover gates the observability packages — the metrics registry and the
# tracer are the measurement substrate every perf claim rests on — and the
# forwarding engine itself, whose gate FWD_COVER_MIN covers the gateway
# pipeline, the GTM and the reliable codecs.
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs ./internal/trace
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "obs+trace coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_fwd.out ./internal/fwd
	@$(GO) tool cover -func=cover_fwd.out | awk -v min=$(FWD_COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "fwd coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_flight.out ./internal/flight
	@$(GO) tool cover -func=cover_flight.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "flight coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_flow.out ./internal/flow
	@$(GO) tool cover -func=cover_flow.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "flow coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_agg.out ./internal/agg
	@$(GO) tool cover -func=cover_agg.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "agg coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
	$(GO) test -coverprofile=cover_coll.out ./internal/coll
	@$(GO) tool cover -func=cover_coll.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { cov = $$3; sub(/%/, "", cov); \
		   printf "coll coverage: %s%% (gate: %s%%)\n", cov, min; \
		   if (cov + 0 < min) { print "coverage below gate"; exit 1 } }'
