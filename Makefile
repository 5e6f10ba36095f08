GO ?= go

.PHONY: all build vet lint vetself vetgolden golden test race chaos fuzz cover adminsmoke perfcheck bench dhtbench churnsoak churnbench stress loc deadcode ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant checks: bpvet enforces the transport/agent
# discipline (see DESIGN.md "Enforced invariants"), and gofmt keeps the
# tree canonically formatted. There is no baseline: any finding fails
# the run.
lint:
	$(GO) run ./cmd/bpvet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The analyzers are held to their own rules: bpvet over its own source
# and driver.
vetself:
	$(GO) run ./cmd/bpvet ./internal/vet ./cmd/bpvet

# Golden-fixture drift guard: regenerate the committed analyzer-output
# files and fail if that dirties the tree — wording or ordering changes
# must land as reviewed golden diffs, never silently.
vetgolden:
	$(GO) test ./internal/vet/ -run TestFixtureGolden -update
	@git diff --exit-code -- internal/vet/testdata/golden || \
		{ echo "bpvet golden fixtures drifted: review and commit the diff above"; exit 1; }

# BENCH golden fence: regenerate the -fig churn, -fig dht and -fig nochurn
# reports at seed 1 and demand byte equality with the committed
# BENCH_PR9.json, BENCH_PR10.json and BENCH_PR5.json — a simulator refactor
# that moves any figure fails here. A reviewed change regenerates them with
# `make churnbench CHURNJSON=BENCH_PR9.json` / `make dhtbench` / `make bench
# BENCHFIG=nochurn BENCHJSON=BENCH_PR5.json`.
golden:
	$(GO) test -count=1 -run 'TestBenchGolden' ./internal/bench/

test:
	$(GO) test ./...

# Full suite under the race detector — the bar every PR must clear.
race:
	$(GO) test -race ./...

# Just the fault-injection suites: every TestChaos scenario over faultnet
# (core, liglo, observatory, and any package that adds one) plus the
# transport tests — hardening and transport.Call's bounds.
chaos:
	$(GO) test -race -run 'TestChaos' ./...
	$(GO) test -race ./internal/transport/...

# Short fuzz passes over the wire codec, the agent packet decoders and
# every package's table of control messages (wiretest.Fuzz).
# Each target gets a few seconds — enough to shake out regressions in
# the corpus without turning CI into a fuzz farm.
# FuzzRecordMatches and FuzzMatchPlan get longer: they are the equivalence
# proofs Store.Match rests on (record-level match == decodeObject +
# Object.Matches, and the keys gathered beside it never excuse a match;
# planned Match == page walk with its keys warm, partly dropped or cold ==
# page walk without keys == MatchFunc(Matches) over mutation, reopen and
# crash sequences).
FUZZTIME ?= 5s
MATCHFUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzEncodeEnvelope -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzExtensions -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodePacket -fuzztime $(FUZZTIME) ./internal/agent/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResults -fuzztime $(FUZZTIME) ./internal/agent/
	$(GO) test -run '^$$' -fuzz FuzzCompileFilter -fuzztime $(FUZZTIME) ./internal/agent/
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime $(FUZZTIME) ./internal/agent/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDepart -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzProtoCodecs -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeObject -fuzztime $(FUZZTIME) ./internal/storm/
	$(GO) test -run '^$$' -fuzz FuzzRecordMatches -fuzztime $(MATCHFUZZTIME) ./internal/storm/
	$(GO) test -run '^$$' -fuzz FuzzMatchPlan -fuzztime $(MATCHFUZZTIME) ./internal/storm/
	$(GO) test -run '^$$' -fuzz FuzzChordCodecs -fuzztime $(FUZZTIME) ./internal/chord/
	$(GO) test -run '^$$' -fuzz FuzzRingCodecs -fuzztime $(FUZZTIME) ./internal/liglo/
	$(GO) test -run '^$$' -fuzz FuzzProtoCodecs -fuzztime $(FUZZTIME) ./internal/liglo/

# Coverage profile across every package, suitable for `go tool cover`
# and for upload as a CI artifact.
COVERPROFILE ?= coverage.out
cover:
	$(GO) test -covermode=atomic -coverprofile=$(COVERPROFILE) ./...
	@$(GO) tool cover -func=$(COVERPROFILE) | tail -1

# End-to-end smoke of the observability surfaces: boots the daemon stack
# with -admin semantics and scrapes /metrics, /healthz and a query trace
# over real HTTP, then boots two nodes plus the fleet observatory and
# scrapes the merged fleet snapshot, /fleet/health (rules armed, both
# members up, nothing firing) and /fleet/dashboard the same way.
adminsmoke:
	$(GO) test -race -count=1 -run 'TestAdminEndpointSmoke' ./cmd/bestpeer/
	$(GO) test -race -count=1 -run 'TestFleetObservatorySmoke' ./cmd/bpobs/
	$(GO) test -race -count=1 -run 'TestLigloRingSmoke' ./cmd/liglo/

# Allocation budget of one query hop: exact allocs/op bounds on the
# envelope codec and Store.Match — the warm scan of a plain store, its
# first scan after open and the plan of an indexed one — (they run in
# `make test` too, and skip under -race), then the same operations' ns/op,
# B/op and allocs/op for the log (StoreMatchCold/scan, /scan-first and
# /plan among them, each at 1k, 10k and 100k objects: ≈ 1 min and a
# 100 MB store more than the rest). Only the counts gate; timings on a
# shared runner do not.
perfcheck:
	$(GO) test -count=1 -run 'TestAllocBudget' -v .
	$(GO) test -run '^$$' -bench 'Envelope|Match' -benchmem .

# Machine-readable benchmark report: every simulated figure (including
# the flood-vs-qroute traffic comparison and the churn-at-scale run
# with its health/alert timeline) plus the reconfiguration-convergence
# timelines, uploaded as a CI artifact. No committed file holds the
# -fig all report (BENCH_PR9.json is the -fig churn one), so the default
# output is untracked. CI passes BENCHFIG=nochurn: `make golden` has
# already regenerated the churn and dht figures there.
BENCHJSON ?= bench-report.json
BENCHFIG ?= all
bench:
	$(GO) run ./cmd/bpbench -fig $(BENCHFIG) -json $(BENCHJSON)

# The T4 chord-vs-flood-vs-BPR comparison (static wire-frame run plus
# the churn trace), as committed in BENCH_PR10.json and uploaded as a
# CI artifact.
DHTJSON ?= BENCH_PR10.json
dhtbench:
	$(GO) run ./cmd/bpbench -fig dht -json $(DHTJSON)

# Bounded race-enabled churn soak: a live 8-node fleet under kill/restart
# churn with queries flowing, asserting post-churn recall recovery and
# zero leaked goroutines. ~60s of churn plus recovery and teardown.
CHURNSOAK_MS ?= 60000
churnsoak:
	CHURNSOAK_MS=$(CHURNSOAK_MS) $(GO) test -race -count=1 -timeout 300s \
		-run 'TestChurnSoak' -v ./internal/bench/

# Churn-at-scale benchmark artifact alone (10k-node simulated fleet).
CHURNJSON ?= churn-report.json
churnbench:
	$(GO) run ./cmd/bpbench -fig churn -json $(CHURNJSON)

# Load-sensitive flake hunt: three busy loops per core (killed on exit,
# however the run ends) beside `go test -count=STRESS_COUNT -cpu 1`, then
# the failure count. A plain -count run on an idle machine misses the
# scheduling races a loaded runner hits. The default runs core's leave
# and repair tests; the test binary is built before the load starts.
STRESS_COUNT ?= 40
STRESS_RUN ?= ^Test(Leave|Leaver|Repair|Replenish|Sweep|Rejoined|Hint)
STRESS_PKG ?= ./internal/core/
stress:
	$(GO) test -count=1 -run '^$$' $(STRESS_PKG)
	@log=$$(mktemp); pids=; \
	trap 'kill $$pids 2>/dev/null; rm -f $$log' EXIT INT TERM; \
	for i in $$(seq $$((3 * $$(nproc)))); do \
		sh -c 'while :; do :; done' & pids="$$pids $$!"; \
	done; \
	$(GO) test -count=$(STRESS_COUNT) -cpu 1 -run '$(STRESS_RUN)' $(STRESS_PKG) >$$log 2>&1; st=$$?; \
	cat $$log; \
	echo "stress: $$(grep -c '^--- FAIL' $$log) failed, -count=$(STRESS_COUNT) -run '$(STRESS_RUN)'"; \
	exit $$st

# The ledger ROADMAP keeps: lines of Go that are not tests and not the
# benchmark harness.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# The dead-code fence (deadcode_test.go) lists with a reason, in four
# sections of testdata/deadcode.allow: [unreachable] declarations under
# internal/ that no command, example, benchmark/ file or facade export
# reaches; [facade] entries no binary reads; [unset] option fields that
# only tests set; [exported] exported names under internal/ that no other
# package's code names. It runs in `make test` too and skips under -race, so
# `make race` alone misses it.
deadcode:
	$(GO) test -count=1 -run 'TestDeadCode' -v .

ci: build deadcode vet lint vetself vetgolden golden race perfcheck fuzz adminsmoke cover

clean:
	$(GO) clean -testcache
