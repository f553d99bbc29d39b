GO ?= go

.PHONY: all build vet test test-race bench bench-check bench-baseline obs-smoke serve-smoke sessions-smoke durability-smoke incident-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the executor's shared
# stats/cache, the parallel candidate pool, the Lawler fan-out, the
# workspace threading that ties them together, the resilience layer
# (shared breakers/jitter stream) with its fault injector, the
# observability substrate (spans/metrics shared across the candidate pool),
# the plan result cache (shared LRU hit from every candidate worker), the
# warm≡cold equivalence property test in simuser, the telemetry server
# (subscriber ring, rolling SLO windows), the session host (pin/evict
# locking under concurrent create/attach/refresh/evict), and the root
# package's concurrent-scrape tests — including the race-build-only
# 1000-session fleet sustaining refreshes under a binding memory budget
# while /metrics is scraped and the span stream followed.
test-race:
	$(GO) test -race -timeout 20m ./internal/engine ./internal/intlearn ./internal/steiner ./internal/workspace ./internal/resilience ./internal/services ./internal/obs ./internal/obs/flight ./internal/obs/serve ./internal/plancache ./internal/scenario ./internal/session ./internal/simuser .

bench:
	$(GO) test -bench . -benchtime 2s -run '^$$' .
	mkdir -p bin/bench
	$(GO) run ./cmd/scpbench -exp overhead -bench-out bin/bench/BENCH_3.json -trace bin/bench/trace_pipeline.json

# Observability smoke: the overhead experiment against its committed
# baseline — the traced, recorded and served arms of the cold refresh
# loop must each stay within their budget (10%, 2%, 10%) — plus the
# machine-readable metrics report and a Chrome trace in bin/bench/.
obs-smoke:
	mkdir -p bin/bench
	$(GO) run ./cmd/scpbench -exp overhead -baseline BENCH_3.json -bench-out bin/bench/BENCH_3.json -trace bin/bench/trace_pipeline.json

# Telemetry-server smoke: start `scpbench -serve` against a live demo
# session, curl the operational endpoints, and lint the /metrics body
# with the exposition-format validator (fails on duplicate or untyped
# series). Mirrors what an orchestrator and a Prometheus scraper do.
serve-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	./bin/scpbench -serve 127.0.0.1:19464 -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19464/readyz && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19464/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19464/healthz | grep -q '"status": "ok"' && \
	curl -sf -o /dev/null 'http://127.0.0.1:19464/debug/pprof/heap?debug=1' && \
	curl -sf http://127.0.0.1:19464/trace/stream | head -1 | grep -q '"name"' && \
	curl -sf 'http://127.0.0.1:19464/decisions?q=Geocoder' | grep -q '"candidate"' && \
	echo "serve-smoke: ok"

# Multi-tenant session smoke: boot the session host server (3-session
# cap, two tenants pre-seeded), walk the /sessions lifecycle over HTTP —
# create the third session, watch the next create shed with 503 and
# /readyz flip to 503 under the induced overload, evict and attach a
# seeded session through its snapshot, destroy to recover readiness —
# and lint the per-tenant /metrics families with the exposition
# validator.
sessions-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	./bin/scpbench -serve 127.0.0.1:19465 -serve-sessions 3 -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19465/readyz && break; sleep 0.2; done; \
	curl -sf -X POST 'http://127.0.0.1:19465/sessions?tenant=smoke' | grep -q '"id": "s000003"' && \
	test "$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://127.0.0.1:19465/sessions)" = 503 && \
	curl -s http://127.0.0.1:19465/readyz | grep -q 'shedding' && \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:19465/readyz)" = 503 && \
	curl -sf -X POST http://127.0.0.1:19465/sessions/s000001/evict | grep -q '"resident": false' && \
	curl -sf -X POST http://127.0.0.1:19465/sessions/s000001/attach | grep -q '"resident": true' && \
	curl -sf -X DELETE -o /dev/null http://127.0.0.1:19465/sessions/s000003 && \
	curl -sf -o /dev/null http://127.0.0.1:19465/readyz && \
	curl -sf http://127.0.0.1:19465/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19465/metrics | grep -q 'copycat_session_resident{session="s000001",tenant="alice"}' && \
	curl -sf http://127.0.0.1:19465/sessions | grep -q '"tenant": "bob"' && \
	echo "sessions-smoke: ok"

# Durable-host smoke: boot the session host with a file-backed store on
# a fresh directory, evict a seeded session so its snapshot hits disk,
# stop the server with SIGTERM (which checkpoints the resident fleet),
# then restart over the same directory and attach the evicted session
# through its on-disk snapshot — the kill-and-restart story end to end,
# with the tenant label surviving.
durability-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	rm -rf bin/durability-store && \
	./bin/scpbench -serve 127.0.0.1:19466 -serve-sessions 8 -store-dir bin/durability-store -serve-wait 60s & \
	PID=$$!; trap 'kill $$PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19466/readyz && break; sleep 0.2; done; \
	curl -sf -X POST http://127.0.0.1:19466/sessions/s000001/evict | grep -q '"resident": false' && \
	curl -sf http://127.0.0.1:19466/metrics | grep -q 'copycat_sessions_store_snapshots 1' && \
	kill $$PID && wait $$PID 2>/dev/null; \
	test -f bin/durability-store/s000001.snap && \
	test -f bin/durability-store/s000002.snap && \
	./bin/scpbench -serve 127.0.0.1:19466 -serve-sessions 8 -store-dir bin/durability-store -serve-wait 60s & \
	PID=$$!; trap 'kill $$PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do curl -sf -o /dev/null http://127.0.0.1:19466/readyz && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19466/sessions | grep -q '"tenant": "alice"' && \
	curl -sf -X POST http://127.0.0.1:19466/sessions/s000001/attach | grep -q '"resident": true' && \
	curl -sf -X POST 'http://127.0.0.1:19466/sessions?tenant=smoke' | grep -q '"id": "s000003"' && \
	echo "durability-smoke: ok"

# Flight-recorder incident smoke: boot the telemetry server with a 90%
# service fault rate and an incident directory, wait for a breaker to
# open and the flight recorder to capture, then verify the whole
# post-mortem path: /incidents lists a breaker.open bundle, the full
# bundle is served by id, a self-contained JSON bundle landed on disk,
# `scpbench -analyze-incident` reconstructs the timeline naming the
# breaker transition, /metrics passes the exposition lint and exports a
# non-zero copycat_incidents_captured_total.
incident-smoke:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	$(GO) build -o bin/expolint ./cmd/expolint
	rm -rf bin/incidents && \
	./bin/scpbench -serve 127.0.0.1:19467 -serve-faults 0.9 -incident-dir bin/incidents -serve-wait 60s & \
	trap 'kill %1 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do curl -s http://127.0.0.1:19467/incidents | grep -q '"trigger": "breaker.open"' && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:19467/incidents | grep -q '"trigger": "breaker.open"' && \
	ID=$$(curl -sf http://127.0.0.1:19467/incidents | grep -o '"id": "inc-[^"]*breaker-open"' | head -1 | cut -d'"' -f4) && \
	curl -sf http://127.0.0.1:19467/incidents/$$ID | grep -q '"runtime"' && \
	test -f bin/incidents/$$ID.json && \
	./bin/scpbench -analyze-incident bin/incidents/$$ID.json | grep -q -- '-> open' && \
	./bin/scpbench -analyze-incident bin/incidents/$$ID.json | grep -q 'trigger   breaker.open' && \
	curl -sf http://127.0.0.1:19467/metrics | ./bin/expolint && \
	curl -sf http://127.0.0.1:19467/metrics | grep -qE 'copycat_incidents_captured_total [1-9]' && \
	echo "incident-smoke: ok"

# Benchmark gates: re-run every gated experiment against its committed
# baseline and write the fresh reports to bin/bench/. Each report
# carries an env block (Go version, GOMAXPROCS, CPU, commit) and the
# verdict of every gate; a failing gate still writes its report, and
# the error names the gate and its layer. The gates (see
# EXPERIMENTS.md): overhead — each observability arm within its budget
# by the median of 10 ABBA pairs; refresh — warm and cold work counts
# equal to the baseline, warm ≡ cold, warm allocs per refresh ≤ 1.10×
# the baseline, cold/warm speedup ≥ 30×; capacity — availability
# ≥ 99%, admission rejections at every point, churn at the knee;
# durability — ≥ 2× compression, every session checkpointed and
# recovered; accuracy — the scenario set, convergence, and mean
# MRR/recall within 0.05; scale — world drift, tiered p99 ≤ 2× the
# baseline, agreement, and the within-run speedup floors.
bench-check:
	mkdir -p bin/bench
	$(GO) build -o bin/scpbench ./cmd/scpbench
	./bin/scpbench -exp overhead -baseline BENCH_3.json -bench-out bin/bench/BENCH_3.json
	./bin/scpbench -exp refresh -baseline BENCH_4.json -bench-out bin/bench/BENCH_4.json
	./bin/scpbench -exp capacity -baseline BENCH_6.json -bench-out bin/bench/BENCH_6.json
	./bin/scpbench -exp durability -baseline BENCH_7.json -bench-out bin/bench/BENCH_7.json
	./bin/scpbench -exp accuracy -baseline BENCH_8.json -bench-out bin/bench/BENCH_8.json
	./bin/scpbench -exp scale -baseline BENCH_9.json -bench-out bin/bench/BENCH_9.json

# Rewrite the committed baselines — the only target that does. Review
# the diff (and its gates block: the gates relative to a baseline are
# skipped here) before committing it.
bench-baseline:
	$(GO) build -o bin/scpbench ./cmd/scpbench
	./bin/scpbench -exp overhead -bench-out BENCH_3.json
	./bin/scpbench -exp refresh -bench-out BENCH_4.json
	./bin/scpbench -exp capacity -bench-out BENCH_6.json
	./bin/scpbench -exp durability -bench-out BENCH_7.json
	./bin/scpbench -exp accuracy -bench-out BENCH_8.json
	./bin/scpbench -exp scale -bench-out BENCH_9.json

# Tier-1 gate: everything a PR must keep green.
check: build vet test test-race
