.PHONY: all build test benchmark bench-compare bench-same bench-smoke bench-e14 bench-e15 bench-e16 bench-e17 bench-e18 bench-e19 kperf-smoke kverify-smoke kopt-smoke kfault-smoke kcrash-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# The two-clock workload benchmark (simulated + host metrics for
# c10k_naive, c10k_ring_opt, postmark_smp4 and cosy_db); extra flags go
# in ARGS, e.g. `make benchmark ARGS="--runs 5 -o A.json"`.
benchmark:
	dune exec --root . benchmark/main.exe -- $(ARGS)

# Judge benchmark run B against run A under BENCHMARK.json's bounds:
# `make bench-compare A=A.json B=B.json`.
bench-compare:
	dune exec --root . benchmark/main.exe -- compare $(A) $(B)

# Every experiment end to end at tiny scale (including E12 ring_batch),
# plus the BENCH_kstats.json artifact.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Byte-identity check for refactors that must not move a simulated
# number: export revision BASE into a throwaway directory under
# $(TMPDIR), run the smoke bench there and here, and compare stdout and
# the four BENCH_*.json artifacts; then run every workload benchmark
# briefly in both trees and diff its deterministic sim_* lines.  Exits 1
# on any difference: `make bench-same BASE=HEAD~1`.  Also prints each
# workload's host_alloc_words_per_op and host_peak_heap_mb for BASE and
# for this tree side by side (informational, never gated).  Not part of
# `check` (it needs BASE).
TMPDIR ?= /tmp
BENCH_ARTIFACTS = BENCH_kstats.json BENCH_kperf.json BENCH_kfault.json BENCH_kcrash.json
BENCH_WORKLOADS = c10k_naive c10k_ring_opt postmark_smp4 cosy_db
BENCH_SIM = dune exec --root . --display quiet benchmark/main.exe -- --seed 1 --seconds 2 --trace 0 --workload
bench-same:
	@test -n "$(BASE)" || { echo "usage: make bench-same BASE=<rev>"; exit 2; }
	@base=$$(mktemp -d "$(TMPDIR)/bench-same.XXXXXX") && \
	trap 'rm -rf "$$base"' EXIT && \
	git archive "$(BASE)" | tar -x -C "$$base" && \
	(cd "$$base" && dune exec --root . bench/main.exe -- smoke > smoke.out) && \
	dune exec --root . bench/main.exe -- smoke > "$$base/smoke.here" && \
	status=0 && \
	{ cmp "$$base/smoke.out" "$$base/smoke.here" || status=1; } && \
	for f in $(BENCH_ARTIFACTS); do cmp "$$base/$$f" "$$f" || status=1; done; \
	for w in $(BENCH_WORKLOADS); do \
	  (cd "$$base" && $(BENCH_SIM) $$w) > "$$base/$$w.base.out"; \
	  $(BENCH_SIM) $$w > "$$base/$$w.here.out"; \
	  grep ' sim_' "$$base/$$w.base.out" > "$$base/$$w.base"; \
	  grep ' sim_' "$$base/$$w.here.out" > "$$base/$$w.here"; \
	  test -s "$$base/$$w.here" || { echo "bench-same: no sim_* lines for $$w"; status=1; }; \
	  diff "$$base/$$w.base" "$$base/$$w.here" || status=1; \
	  for m in host_alloc_words_per_op host_peak_heap_mb; do \
	    awk -v w=$$w -v m=$$m '$$2 == m { v[FILENAME] = $$3 } \
	      END { b = v[ARGV[1]]; h = v[ARGV[2]]; \
	        printf "%-14s %-24s base %9.1f  here %9.1f  (%+.1f%%)\n", \
	          w, m, b, h, b ? 100 * (h - b) / b : 0 }' \
	      "$$base/$$w.base.out" "$$base/$$w.here.out"; \
	  done; \
	done; \
	if [ $$status = 0 ]; then echo "bench-same: identical to $(BASE)"; fi; \
	exit $$status

# The C10K serving experiment at full scale: 100/1k/10k connections,
# four serving variants, 1 and 4 CPUs.  Takes a few minutes.
bench-e14:
	dune exec bench/main.exe -- E14

# Tracing overhead on the C10K webserver at full scale: all four serving
# variants with the kperf tracer on vs off, plus BENCH_kperf.json.
bench-e15:
	dune exec bench/main.exe -- E15

# Syscall-flow integrity + static admission at full scale: SFI gate
# overhead on the four E14 serving variants, then verified-vs-watchdog
# admission speedups on ring batches and a Cosy counted loop.
bench-e16:
	dune exec bench/main.exe -- E16

# The kopt optimizer at full scale: counted-loop speedup over verified
# execution, compiled-program cache amortization, the detached-optimizer
# cycle-identity check, and the webserver sweep optimizer off vs on
# (copied-byte reduction on the ring variant, digest equality).
bench-e17:
	dune exec bench/main.exe -- E17

# The resilience experiment at full scale: the four E14 serving variants
# under injected wire-drop faults at 1-in-64 / 1-in-16 / 1-in-4, with and
# without load shedding, plus BENCH_kfault.json.
bench-e18:
	dune exec bench/main.exe -- E18

# The crash experiment at full scale: recovery time vs journal length,
# oops-containment overhead (cycle-identical when quiet), the durable
# WAL cost, and a sampled crash-point sweep, plus BENCH_kcrash.json.
bench-e19:
	dune exec bench/main.exe -- E19

# Record a traced run, export it, and re-derive the folded/top views
# from the exported JSON — exercises the whole tracer pipeline on a
# tiny workload.
kperf-smoke:
	dune exec bin/kperf_tool.exe -- record -w lsdir -o /tmp/kperf_smoke.json
	dune exec bin/kperf_tool.exe -- fold /tmp/kperf_smoke.json > /dev/null
	dune exec bin/kperf_tool.exe -- top /tmp/kperf_smoke.json
	rm -f /tmp/kperf_smoke.json

# Learn a workload's syscall-flow automaton, verify a clean re-run is
# violation-free, and confirm a different workload trips the gate —
# exercises the whole kverify learn/enforce pipeline.
kverify-smoke:
	dune exec bin/kverify_tool.exe -- learn -w lsdir -o /tmp/lsdir.sfi
	dune exec bin/kverify_tool.exe -- check /tmp/lsdir.sfi -w lsdir
	! dune exec bin/kverify_tool.exe -- check /tmp/lsdir.sfi -w postmark > /dev/null
	rm -f /tmp/lsdir.sfi

# Round-trip every kopt demo compound through the optimizer printer:
# encode to disk, re-read, verify, and show the optimized plan —
# exercises the checker/compiler/pretty-printer pipeline end to end.
kopt-smoke:
	dune exec bin/kverify_tool.exe -- opt --demo loop -o /tmp/kopt_loop.cosy
	dune exec bin/kverify_tool.exe -- opt /tmp/kopt_loop.cosy > /dev/null
	dune exec bin/kverify_tool.exe -- opt --demo coalesce > /dev/null
	dune exec bin/kverify_tool.exe -- opt --demo fuse > /dev/null
	rm -f /tmp/kopt_loop.cosy

# List every fault site with its fault-free occurrence count, run one
# representative recovery plan, and sweep a capped (site, occurrence)
# grid asserting zero invariant violations — exercises the whole kfault
# engine/recovery/sweep pipeline.  Compare a faulty run's counters
# against a clean run with `kstats_tool diff` (see DESIGN.md #14).
kfault-smoke:
	dune exec bin/kfault_tool.exe -- list-sites
	dune exec bin/kfault_tool.exe -- run-plan syscall.eintr=once:1 net.wire_drop=nth:16
	dune exec bin/kfault_tool.exe -- sweep --max-per-site 2

# Inject a power loss at a capped set of durable-write boundaries and
# assert every one recovers Consistent or Recovered (exit 1 on any
# corruption), then crash one point verbosely and replay it through
# reboot + fsck — exercises the whole kcrash containment/recovery
# pipeline.
kcrash-smoke:
	dune exec bin/kcrash_tool.exe -- sweep --max-per-site 2
	dune exec bin/kcrash_tool.exe -- crash-at 100

check: build test bench-smoke kperf-smoke kverify-smoke kopt-smoke kfault-smoke kcrash-smoke

clean:
	dune clean
	rm -f BENCH_kstats.json BENCH_kperf.json BENCH_kfault.json BENCH_kcrash.json
