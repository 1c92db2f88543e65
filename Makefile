GO ?= go
# Pinned staticcheck release (supports the module's go 1.22 directive).
STATICCHECK_VERSION ?= 2024.1.1
FUZZTIME ?= 30s

.PHONY: all build fmt-check vet staticcheck test race torture torture-repl fuzz-smoke paper bench bench-quick bench-par bench-repl ci

all: ci

# The benchmark (bench/) is a module of its own, which ./... does not
# reach: vet builds it against the engine's current API.
build:
	$(GO) build ./...
	cd bench && GOFLAGS=-mod=mod $(GO) vet ./...

# Fail if any file needs gofmt; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet, at a pinned tool version so CI runs are
# reproducible.  Needs network access the first time (go run fetches the
# pinned module); CI's race job runs this on the pinned toolchain.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short torture run: the crash-recovery sweeps at reduced depth, as a
# quick fault-coverage gate for every change (quel's: a multi-row
# replace recovers all old or all new).
torture:
	$(GO) test -short -count=1 -run 'Torture|Fault|Poison' ./internal/storage/ ./internal/wal/ ./internal/quel/
	$(GO) test -short -count=1 ./internal/fault/...

# Replication torture: the full crash/ship-failure/promote sweep (leader
# crash mid-batch, replica crash mid-apply, promote under load), at full
# depth -- the sweep converges in seconds.
torture-repl:
	$(GO) test -count=1 -run 'ReplicationTorture' ./internal/repl/

# Short coverage-guided fuzz runs over every decoder that takes bytes
# off the wire or out of a file: the network frame codec, the tuple
# codec of segments and the log, the DARMS parser, the SMF reader, and
# the ingest stream scanner; over stored rows, which must read as the
# tuples the codec decodes; over the key encoding, whose byte order
# must agree with value.Compare; over the QUEL parser and planner, whose
# results must match the naive executor; and over the page pruning of
# full scans, which must keep every row the sargs accept.
# New crashers land in the package's testdata/fuzz/ corpus; CI uploads
# them.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecodeMessage$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire/
	$(GO) test -fuzz='^FuzzDecodeTuple$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/value/
	$(GO) test -fuzz='^FuzzRow$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/value/
	$(GO) test -fuzz='^FuzzKeyOrder$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/value/
	$(GO) test -fuzz='^FuzzPlannerDifferential$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/quel/
	$(GO) test -fuzz='^FuzzScanPrune$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/quel/
	$(GO) test -fuzz='^FuzzDARMS$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/darms/
	$(GO) test -fuzz='^FuzzSMF$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/midi/
	$(GO) test -fuzz='^FuzzStream$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/ingest/

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The paper's figures and its table of measurements, as printed: every
# figure generator and every row of internal/experiments at test sizes.
# go test checks their content and shapes; this checks the printers.
paper:
	$(GO) run ./cmd/figures > /dev/null
	$(GO) run ./cmd/mdmbench -quick

# The repository's benchmark (bench/, BENCHMARK.json) at smoke scale:
# its own unit tests, then all four workloads untraced and traced.  An
# operation that fails its oracle fails the run.  Span files land in
# bench/out/; full-scale runs and -compare are described in
# bench/README.md.
bench-quick:
	cd bench && $(GO) test ./...
	bash bench/run.sh -quick

# The two scenarios bench/ declares out of scope, as plain run targets:
# each prints its sweep with the host CPU count and enforces its own
# floor, with no committed baseline.
#
# Parallel executor: the morsel-driven worker pool over the 100k-note /
# 1k-score corpus across a 1/2/4/8 worker sweep; fails if the 8-worker
# speedup drops below 2x on a machine with at least 4 CPUs.
bench-par:
	$(GO) run ./cmd/mdmbench -par

# Read replicas: aggregate read throughput of a WAL-shipping cluster
# across a 1/2/4 replica sweep; fails if the 4-replica aggregate drops
# below 2x single-node throughput.
bench-repl:
	$(GO) run ./cmd/mdmbench -repl

ci: fmt-check vet build race torture torture-repl paper bench-quick
