# Partial Lookup Services — reproduction of Sun & Garcia-Molina (ICDCS 2003).

GO ?= go

.PHONY: all build test race lint loc cover bench e2e-bench e2e-pair reproduce reproduce-full clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Formatting, vet, and repo-local doc hygiene (package godoc presence,
# Markdown link integrity), mirroring the CI lint job (CI additionally
# runs staticcheck, which it installs itself).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./internal/tools/repolint

# Non-test Go lines, in groups with a total each: the four packages the
# previous roadmap's "collapse the layers" tracked; the paper
# reproduction toolchain (plsbench and the experiments it renders); the
# four packages a request crosses client-side; then, each alone, the
# store and its WAL and the telemetry layer; the member assembly
# (internal/cluster, whose NewMember builds every listening server) with
# the daemon that runs it; the whole repository; last
# the flags each binary defines, counted from its -h output so that the
# flags it registers through internal/cliutil count too. Quote the
# before/after in PRs that claim a reduction.
LOC_PKGS = internal/node internal/strategy internal/wire internal/transport
LOC_REPRO_PKGS = cmd/plsbench internal/experiments
LOC_REQUEST_PKGS = internal/strategy internal/core internal/proxy internal/selector
LOC_MEMBER_PKGS = internal/cluster cmd/plsd
LOC_FLAG_CMDS = plsctl plsd plsproxy
loc_lines = find $(1) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
loc_group = for p in $(1); do printf '%-20s %s\n' $$p $$($(call loc_lines,$$p)); done; \
	printf '%-20s %s\n\n' total $$($(call loc_lines,$(1)))
loc:
	@$(call loc_group,$(LOC_PKGS))
	@$(call loc_group,$(LOC_REPRO_PKGS))
	@$(call loc_group,$(LOC_REQUEST_PKGS))
	@printf '%-20s %s\n' internal/store $$($(call loc_lines,internal/store))
	@printf '%-20s %s\n\n' internal/telemetry $$($(call loc_lines,internal/telemetry))
	@$(call loc_group,$(LOC_MEMBER_PKGS))
	@printf '%-20s %s\n\n' 'whole repo' $$($(call loc_lines,.))
	@total=0; for c in $(LOC_FLAG_CMDS); do \
		n=$$($(GO) run ./cmd/$$c -h 2>&1 | grep -c '^  -'); total=$$((total + n)); \
		printf '%-20s %s\n' "cmd/$$c flags" $$n; \
	done; printf '%-20s %s\n' 'flags total' $$total

# Coverage with the same floor CI enforces (.github/coverage-floor).
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	@floor=$$(cat .github/coverage-floor); \
	total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || { \
		echo "coverage $$total% fell below the floor $$floor%"; exit 1; }

# One testing.B benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem

# The repository's one performance benchmark (BENCHMARK.json): four
# end-to-end workloads over a real loopback cluster, with a per-layer
# budget; see bench/README.md.
e2e-bench:
	$(GO) run ./bench

# The paired protocol a claimed gain needs (bench/README.md): ./bench
# built at PARENT and from the working tree into a temp dir, the two
# alternated PAIRS times per workload, both medians per workload and
# metric printed, and written as JSON to OUT when it is set.
# make e2e-pair PARENT=HEAD~1 [PAIRS=10] [SEED=1]
# [WORKLOADS=read_direct_uniform,write_durable] [OUT=results/trajectory/BENCH_prN.json]
PAIRS ?= 10
SEED ?= 1
e2e-pair:
	@test -n "$(PARENT)" || { echo "usage: make e2e-pair PARENT=<rev> [PAIRS=10] [SEED=1] [WORKLOADS=a,b] [OUT=FILE]"; exit 2; }
	$(GO) run ./internal/tools/benchpair -parent $(PARENT) -pairs $(PAIRS) -seed $(SEED) -workloads "$(WORKLOADS)" -out "$(OUT)"

# Regenerate every table and figure, and the ext-* efficacy experiments
# (selector, repair, membership, zone placement on vs. off), at
# interactive fidelity (~2 min).
reproduce:
	$(GO) run ./cmd/plsbench -exp everything

# Paper fidelity: 5000 runs per data point (hours of CPU).
reproduce-full:
	$(GO) run ./cmd/plsbench -exp everything -fidelity full

clean:
	$(GO) clean ./...
