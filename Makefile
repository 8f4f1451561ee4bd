# Convenience targets around the Go toolchain; `make check` is the full
# verification gate (build + vet + tests + race detector).

GO ?= go

.PHONY: build test vet race check serve-smoke chaos-smoke chaos-serve campaign-smoke bench bench-kernels bench-trees bench-lanes bench-serve bench-sim fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check:
	sh scripts/check.sh

serve-smoke:
	sh scripts/serve_smoke.sh

chaos-smoke:
	sh scripts/chaos_smoke.sh

# Serving-tier resilience drill: chaos-armed HTTP server, breaker trip
# into degraded fallback, bounded errors, half-open recovery.
chaos-serve:
	sh scripts/serve_chaos_smoke.sh

campaign-smoke:
	sh scripts/campaign_smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

bench-kernels:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/linalg/ ./internal/ml/nn/

bench-trees:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/ml/tree/

# f64 reference vs compiled f32 lane, side by side: GEMM, tree
# ensembles, and network forward passes on serving-sized batches.
bench-lanes:
	$(GO) test -run='^$$' -bench='BenchmarkLane' -benchmem ./internal/linalg/ ./internal/ml/tree/ ./internal/ml/nn/

bench-serve:
	sh scripts/serve_bench.sh

# Collection throughput: compiled cell evaluators vs the pre-rewrite
# reference substrate, serial and parallel, into BENCH_sim.json.
bench-sim:
	sh scripts/sim_bench.sh

# Dataset parser round trip, then both serving lanes differentially
# through the shared batch pipeline (seed corpus in
# internal/core/testdata/fuzz/).
fuzz:
	$(GO) test ./internal/profile/ -fuzz FuzzDatasetRoundTrip -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzLaneDifferential -fuzztime 30s
