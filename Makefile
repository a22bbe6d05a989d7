GO ?= go

.PHONY: check vet build test race validate bench ps-smoke serve server-smoke crash-smoke metrics-smoke chaos clean

# The gate for every change: vet, build, and the full test suite under
# the race detector (channels carry every cross-thread dependence, so
# -race doubles as a transformation-correctness oracle).
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Differential validation across every workload with a reproducible,
# logged seed: SEED=N make validate re-runs an exact sweep.
SEED ?= 1
validate:
	$(GO) run ./cmd/dswpsim -workload all -validate -seed $(SEED)

# Every go test benchmark for one iteration: a compile-and-run smoke.
# Performance is measured by the repository benchmark:
# python3 perfbench/run.py --workload loops|serve|churn (BENCHMARK.json).
bench:
	$(GO) test -bench . -benchtime 1x ./...

# Replication smoke: the psdswp differential suite under -race.
ps-smoke:
	$(GO) test -race ./internal/psdswp/

# Run the pipeline-as-a-service daemon locally (ADDR=:8080 make serve).
ADDR ?= :7537
serve:
	$(GO) run ./cmd/dswpd -addr $(ADDR)

# Full HTTP smoke: build dswpd, serve every workload over POST /run,
# scrape /metrics and /healthz, short closed-loop load, graceful drain.
server-smoke:
	RACE=1 scripts/server_smoke.sh

# Durability smoke: SIGKILL dswpd mid-request, plant torn checkpoint
# artifacts, restart against the same -ckpt-dir, and require bit-identical
# recovery with the corruption skipped.
crash-smoke:
	RACE=1 scripts/crash_smoke.sh

# Telemetry smoke: lint the Prometheus exposition, round-trip a traced
# request through /debug/requests/{id}, check the windowed series and
# pprof isolation on the debug listener.
metrics-smoke:
	RACE=1 scripts/metrics_smoke.sh

# The chaos soak under the race detector, both drivers at the pinned CI
# seeds: the supervisor driver (faults, panics, stalls, cancellation and
# crash recovery on plain, packed and replicated pipelines) and the
# service driver (seeded failpoint schedules against live engines with
# concurrent mixed traffic). Contract: correct digest or typed error,
# no hang, empty checkpoint store after drain, no leaked goroutines.
# `go run ./cmd/dswpchaos -driver D -seed N` replays a schedule.
chaos:
	$(GO) run -race ./cmd/dswpchaos -driver supervisor -seed 20250806 -timeout 30s
	$(GO) run -race ./cmd/dswpchaos -driver service -seed 20260808 -runs 8 -v

clean:
	$(GO) clean ./...
