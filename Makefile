GO ?= go

.PHONY: check build vet fmt lint test race fuzz-smoke stress bench bench-compare demo docs-lint swarm loc knobs

# check is the tier-1 gate: everything CI runs (CI invokes this target).
# vet covers every package, including the control-channel mux and codec in
# internal/wire and internal/dist; lint runs the distlint invariant
# analyzers (lock/sentinel/context/epoch/codec rules — see
# docs/ARCHITECTURE.md "Checked invariants"). The docs lint (markdown
# links/anchors + README block compilation) is gated through `test`, which
# runs the root package's TestMarkdownDocs and TestREADMECodeBlocksCompile;
# docs-lint below re-runs just those for fast iteration on documentation.
check: build vet fmt lint test race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint enforces the repository's machine-checked invariants; exit 1 on any
# finding, 2 if a package fails to load.
lint:
	$(GO) run ./cmd/distlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke gives each wire-protocol and journal-recovery fuzzer a few
# seconds of coverage growth on every check; longer runs are a manual
# `go test -fuzz` away.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s
	$(GO) test ./internal/dist/ -run '^$$' -fuzz FuzzControlPreamble -fuzztime 5s
	$(GO) test ./internal/dist/ -run '^$$' -fuzz FuzzBulkKey -fuzztime 5s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzFlatCodec -fuzztime 5s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzMuxServe -fuzztime 5s
	$(GO) test ./internal/journal/ -run '^$$' -fuzz FuzzJournalReplay -fuzztime 5s

# stress repeats the suites whose failures have been timing flakes — the
# coordinator and swarm packages, and the two tests that once failed on
# fast or loaded hosts — so a flake is a red build, not a note; and, under
# the race detector, the seeded unit-lifecycle invariant test, the two
# control-connection lifetime tests (a parked donor's death, a clean Close),
# the offloaded-payload lifetime test (a replica fetching after a held
# result), the donor loop's stage table and exact-unit cancel test (its
# cancel poller runs beside Run), the trust bar's demotion and two-donor
# quorum liveness tests, the server's batch sizing from each donor's
# measured unit time (in process and over the wire), and the mux's own
# suite.
stress:
	$(GO) test -count=20 ./internal/dist/ ./internal/swarm/
	$(GO) test -count=5 -run 'TestCoordinatorCrashRecoveryRealNetwork|TestNetworkMatchesRunLocal' . ./internal/dist/
	$(GO) test -race -count=10 -run TestAttemptLifecycleInvariants ./internal/dist/
	$(GO) test -race -count=20 -run 'TestParkedDonorDeathLeasesNothing|TestCloseAnswersEveryParkedDonorOverTheWire|TestHeldReplicaLeavesOffloadedPayloadFetchable|TestSiblingCancelNoticeSparesLiveUnits|TestDonorLoopStages|TestDemotedDonorIsSpotCheckedAgain|TestTwoDonorQuorumWithProbationDrains|TestWaitTasksSizesBatchFromDonorRate' ./internal/dist/
	$(GO) test -race -count=20 -run TestMux ./internal/wire/

# loc prints the non-blank, non-comment line count of every non-test file in
# the coordinator packages and their sum — the number a simplification PR
# reports before and after (ROADMAP: "report net lines removed").
loc:
	@for f in $$(ls internal/dist/*.go internal/wire/*.go internal/sched/*.go internal/journal/*.go | grep -v _test.go); do \
		printf '%6d %s\n' $$(grep -vE '^\s*(//|$$)' $$f | wc -l) $$f; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# knobs prints how many values an operator or embedder can set, one line per
# item plus their sum — the other number a simplification PR reports before
# and after: the exported fields of dist.ServerOptions, dist.DonorOptions and
# swarm.Config (a "RedialMin, RedialMax" line counts 2), the exported With*
# options of internal/dist, and the flags each cmd/*/main.go defines.
knobs:
	@{ for s in dist.ServerOptions:internal/dist/server.go dist.DonorOptions:internal/dist/donor.go swarm.Config:internal/swarm/swarm.go; do \
		name=$${s%%:*}; awk -v t="$${name#*.}" -v label="$$name fields" \
			'$$0 ~ "^type " t " struct" { on = 1; next } on && /^}/ { on = 0 } \
			on && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { m = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", m) + 1 } \
			END { printf "%6d %s\n", n, label }' "$${s#*:}"; \
	done; \
	printf '%6d dist With* options\n' $$(cat $$(ls internal/dist/*.go | grep -v _test.go) | grep -c '^func With[A-Z]'); \
	for f in cmd/*/main.go; do \
		printf '%6d %s flags\n' $$(grep -cE 'flag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(' $$f) $$(dirname $$f); \
	done; } | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# bench covers every package carrying benchmarks (the root harness plus
# internal packages like align), so a bench added in a new file or package
# is picked up without editing this target again.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-compare BASE=<rev> [PAIRS=<n>] is the paired before/after run of the
# end-to-end benchmark: it checks BASE out in a detached worktree under
# .bench_build/, runs `bash bench/run.sh -seed 1` in that tree and in this
# one PAIRS times (default 10), alternating which tree goes first, and
# prints one line per pair — the verdict counts of `-compare BASE THIS` and
# each workload's makespan B/A, plus any verdict that is not ok. Reports,
# logs and full compare tables stay in .bench_build/compare/; the worktree
# is removed on exit. From an uncommitted tree, BASE=HEAD is the parent.
PAIRS ?= 10
bench-compare:
	$(if $(BASE),,$(error bench-compare needs BASE=<rev>))
	@set -eu; root=$$(pwd); out=$$root/.bench_build/compare; base=$$root/.bench_build/base; \
	rm -rf "$$out"; mkdir -p "$$out"; \
	git worktree remove --force "$$base" 2>/dev/null || true; \
	git worktree add --detach "$$base" "$(BASE)" >/dev/null 2>&1; \
	trap 'git worktree remove --force "$$base"; git worktree prune' EXIT; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="base this"; [ $$((i % 2)) -eq 0 ] && order="this base"; \
		ran=yes; \
		for side in $$order; do \
			dir=$$root; [ $$side = base ] && dir=$$base; \
			bash "$$dir/bench/run.sh" -seed 1 -out "$$out/$$side-$$i.json" >"$$out/$$side-$$i.log" 2>&1 || ran=no; \
		done; \
		if [ $$ran = no ]; then echo "pair $$i: a run failed, see $$out/*-$$i.log"; continue; fi; \
		bash bench/run.sh -compare "$$out/base-$$i.json" "$$out/this-$$i.json" >"$$out/compare-$$i.txt" || true; \
		awk -v p=$$i -v first="$${order%% *}" \
			'{ n[$$NF]++ } $$2 == "makespan_s" { m = m " " $$1 " " $$(NF-1) } $$NF != "ok" { bad = bad " " $$1 ":" $$2 "=" $$NF } \
			END { printf "pair %d (%s first): %d ok, %d unresolved, %d worse | makespan B/A%s%s\n", p, first, n["ok"], n["unresolved"], n["worse"], m, (bad == "" ? "" : " | not ok:" bad) }' \
			"$$out/compare-$$i.txt"; \
	done

# swarm runs the full-scale donor-swarm soak under the race detector: 1024
# shaped donors, 8 problems across three priority tiers, 10% abrupt churn,
# speculation on — asserting zero double-folds, completed <= dispatched and
# empty lease tables at exit. The 256-donor smoke rides the normal test and
# race targets (so `make check` covers the swarm path); this is the long
# one, kept opt-in behind SWARM_SOAK.
swarm:
	SWARM_SOAK=1 $(GO) test -race -run TestSwarmSoak1024 -v ./internal/swarm/

# docs-lint checks every markdown file's relative links and anchors, and
# compiles the README's marked code blocks against the real API.
docs-lint:
	$(GO) test -run 'TestMarkdownDocs|TestREADMECodeBlocksCompile' -count=1 .

demo:
	$(GO) run ./cmd/dsearch -demo
