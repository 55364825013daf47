# appendmemory — build / test / reproduce targets.

GO ?= go

.PHONY: all build test vet check cover bench bench-diff experiments quick examples scenarios distributed search-smoke clean

all: build vet test check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full verification: vet, race-enabled tests, and every paper prediction
# evaluated against a quick run (amexp exits 2 if any check fails).
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/amexp -e all -quick -check

cover:
	$(GO) test ./... -cover

# One benchmark per experiment plus substrate micro-benches. The run is
# piped through cmd/benchjson, which echoes the human-readable output,
# writes the machine-readable record to $(BENCH) and diffs it against
# $(BENCH_BASE) (see bench-diff). Each benchmark runs BENCHCOUNT times and
# benchjson records the per-metric minimum, which filters out
# scheduling/GC interference spikes; override BENCHTIME for steadier
# numbers still (e.g. make bench BENCHTIME=1s) and BENCH to record under a
# different name (e.g. make bench BENCH=BENCH_local.json). The runner
# sizes its chunks by GOMAXPROCS, so the dispatch pair's allocs/op depend
# on the core count: they always run at -cpu=$(DISPATCH_CPU), here and in
# CI's gate (ci.yml repeats the value), so records from different boxes
# compare.
BENCHTIME ?= 0.2s
BENCHCOUNT ?= 3
BENCH ?= BENCH_PR21.json
BENCH_BASE ?= BENCH_PR20.json
BENCH_THRESHOLD ?= 0.35
DISPATCH_BENCH = ^Benchmark(TrialsDispatch|TrialsReduceDispatch)$$
DISPATCH_CPU = 2
bench:
	{ $(GO) test -run='^$$' -bench=. -skip='$(DISPATCH_BENCH)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT); \
	  $(GO) test -run='^$$' -bench='$(DISPATCH_BENCH)' -cpu=$(DISPATCH_CPU) -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT); } \
	  | $(GO) run ./cmd/benchjson -o $(BENCH)
	$(MAKE) --no-print-directory bench-diff

# Diff the committed benchmark records: fails if any B/op or allocs/op
# metric in $(BENCH) regressed more than BENCH_THRESHOLD (fractional)
# against $(BENCH_BASE), or any ns/op more than twice that — the memory
# metrics are deterministic, wall clock on a shared 1-CPU box is not.
bench-diff:
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASE) -compare $(BENCH) -threshold $(BENCH_THRESHOLD)

# Regenerate every experiment at full scale (the EXPERIMENTS.md numbers).
experiments:
	$(GO) run ./cmd/amexp -e all

# Fast smoke pass over everything.
quick:
	$(GO) run ./cmd/amexp -e all -quick

# Parse and run every shipped scenario file (one trial per point — a
# structural smoke pass; raise -trials for real numbers).
scenarios:
	@set -e; for f in examples/scenarios/*.json; do \
		echo "== $$f"; $(GO) run ./cmd/amrun -spec $$f -trials 1; \
	done

# Distributed-sweep smoke: the same sweep run in-process and sharded
# across two spawned worker processes must produce byte-identical output,
# and a warm re-run over the cache directory must dispatch nothing.
DIST_ARGS ?= -protocol dag -n 10 -t 4 -lambda 1 -k 21 -attack private-chain \
	-trials 40 -sweep lambda=0.5,1,2 -metrics ok,validity,decide-time -format json
distributed:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/amrun ./cmd/amrun; \
	$$tmp/amrun $(DIST_ARGS) > $$tmp/local.json; \
	$$tmp/amrun $(DIST_ARGS) -distribute 2 -cache $$tmp/cache -timing > $$tmp/dist.json 2> $$tmp/cold.txt; \
	cmp $$tmp/local.json $$tmp/dist.json; \
	$$tmp/amrun $(DIST_ARGS) -distribute 2 -cache $$tmp/cache -timing > $$tmp/warm.json 2> $$tmp/warm.txt; \
	cmp $$tmp/local.json $$tmp/warm.json; \
	cat $$tmp/cold.txt $$tmp/warm.txt; \
	grep -q 'dispatched=0' $$tmp/warm.txt; \
	echo "distributed smoke: byte-identical, warm run fully cache-served"

# Adversary-search smoke (~5s): a small-budget search must beat or match
# the hand-coded preset it started from, the same search sharded across two
# worker processes must find the same best candidate without losing a
# worker, and every promoted counterexample committed under
# examples/scenarios/ must still reproduce its violation.
SEARCH_ARGS ?= -protocol chain -n 9 -t 3 -lambda 0.5 -k 41 -tiebreak adversarial \
	-attack fork -budget 960 -rungs 8,32 -seed 1
search-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/amsearch ./cmd/amsearch; \
	$$tmp/amsearch $(SEARCH_ARGS) | tee $$tmp/out.txt; \
	grep -q '^best: ' $$tmp/out.txt; \
	$$tmp/amsearch $(SEARCH_ARGS) -distribute 2 | tee $$tmp/dist.txt; \
	grep '^best: ' $$tmp/out.txt > $$tmp/best.txt; \
	grep '^best: ' $$tmp/dist.txt > $$tmp/dist-best.txt; \
	cmp $$tmp/best.txt $$tmp/dist-best.txt; \
	grep -q '^fleet: .* lost=0$$' $$tmp/dist.txt; \
	for f in examples/scenarios/searched-*.json; do \
		$$tmp/amsearch -replay $$f; \
	done; \
	echo "search smoke: search ran, the distributed search matched it with no lost workers, all promoted counterexamples reproduce"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/chain_vs_dag
	$(GO) run ./examples/msgpassing
	$(GO) run ./examples/adversary_lab
	$(GO) run ./examples/impossibility

clean:
	$(GO) clean ./...
