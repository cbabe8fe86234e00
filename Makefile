.PHONY: all build test benchmark bench-compare bench-same bench-pairs host-profile net-lines qcheck-seeds bench-smoke bench-e14 bench-e15 bench-e16 bench-e17 bench-e18 bench-e19 kperf-smoke kverify-smoke kopt-smoke kfault-smoke kcrash-smoke check clean

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
# the four BENCH_*.json artifacts (a JSON file whose bytes differ is
# compared once more under `jq -S`, to tell a key-order change from a
# value change; it still counts as a difference); then run every
# workload benchmark briefly in both trees and diff its deterministic
# sim_* lines.  Exits 1 on any difference: `make bench-same
# BASE=HEAD~1`.  Also prints each
# workload's host_alloc_words_per_op, host_peak_heap_mb and setup_s for
# BASE and for this tree side by side (informational, never gated;
# setup_s is one wall-clock reading, so noisy).  EXPS="E4 E17 ..."
# also runs those full experiments in both trees and compares their
# stdout byte for byte (each takes seconds to minutes).  Not part of
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
	for f in $(BENCH_ARTIFACTS); do \
	  cmp "$$base/$$f" "$$f" && continue; \
	  status=1; \
	  jq -S . "$$base/$$f" > "$$base/$$f.base.sorted" && \
	  jq -S . "$$f" > "$$base/$$f.here.sorted" && \
	  if cmp -s "$$base/$$f.base.sorted" "$$base/$$f.here.sorted"; \
	  then echo "bench-same: $$f equal under jq -S (key order differs)"; \
	  else echo "bench-same: $$f differs under jq -S too"; fi; \
	done; \
	for e in $(EXPS); do \
	  (cd "$$base" && dune exec --root . bench/main.exe -- $$e) > "$$base/$$e.base"; \
	  dune exec --root . bench/main.exe -- $$e > "$$base/$$e.here"; \
	  cmp "$$base/$$e.base" "$$base/$$e.here" && echo "bench-same: $$e identical" || status=1; \
	done; \
	for w in $(BENCH_WORKLOADS); do \
	  (cd "$$base" && $(BENCH_SIM) $$w) > "$$base/$$w.base.out"; \
	  $(BENCH_SIM) $$w > "$$base/$$w.here.out"; \
	  grep ' sim_' "$$base/$$w.base.out" > "$$base/$$w.base"; \
	  grep ' sim_' "$$base/$$w.here.out" > "$$base/$$w.here"; \
	  test -s "$$base/$$w.here" || { echo "bench-same: no sim_* lines for $$w"; status=1; }; \
	  diff "$$base/$$w.base" "$$base/$$w.here" || status=1; \
	  for m in host_alloc_words_per_op host_peak_heap_mb setup_s; do \
	    awk -v w=$$w -v m=$$m '$$2 == m { v[FILENAME] = $$3 } \
	      END { b = v[ARGV[1]]; h = v[ARGV[2]]; \
	        f = m == "setup_s" ? "%9.5f" : "%9.1f"; \
	        printf "%-14s %-24s base " f "  here " f "  (%+.1f%%)\n", \
	          w, m, b, h, b ? 100 * (h - b) / b : 0 }' \
	      "$$base/$$w.base.out" "$$base/$$w.here.out"; \
	  done; \
	done; \
	if [ $$status = 0 ]; then echo "bench-same: identical to $(BASE)"; fi; \
	exit $$status

# Alternating before/after runs of one workload at BENCHMARK.json's
# run_seconds: `make bench-pairs BASE=<rev> W=c10k_naive N=10 [SEED=1]`.
# Exports BASE with `git archive` into a throwaway directory under
# $(TMPDIR), builds the benchmark in both trees, then runs N pairs, each
# side `--workload W --seed SEED --seconds <run_seconds> --trace 0`; odd
# pairs run base first, even pairs this tree first.  Prints every pair, then each side's median
# and quartiles of host_throughput and host_peak_heap_mb, the pairs this
# tree wins on each, and the runs' attempted counts.  Then, for every
# end-to-end metric in BENCHMARK.json, the median here/base ratio beside
# the metric's bound, with `PAST BOUND` where the median moved the wrong
# way by more than the bound (the rule `make bench-compare` applies), so
# a side effect on a metric the change did not aim at shows up before
# the benchmark judges it.  Then it runs each
# side once more at `--seconds 0.001` (the 10-repetition minimum) and
# prints that run's host_peak_heap_mb and host_alloc_words_per_op: at
# equal work, so a peak heap that moved with structure reads apart from
# one that moved because a faster run kept more latency samples.
# Informational: host metrics are noisy, so read the quartiles, not one
# pair.  Takes about 2 * N * run_seconds.
SEED ?= 1
bench-pairs:
	@test -n "$(BASE)" && test -n "$(W)" && test -n "$(N)" || \
	  { echo "usage: make bench-pairs BASE=<rev> W=<workload> N=<pairs> [SEED=1]"; exit 2; }
	@secs=$$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json) && \
	base=$$(mktemp -d "$(TMPDIR)/bench-pairs.XXXXXX") && \
	trap 'rm -rf "$$base"' EXIT && \
	git archive "$(BASE)" | tar -x -C "$$base" && \
	(cd "$$base" && dune build --root . --display quiet benchmark/main.exe) && \
	dune build --root . --display quiet benchmark/main.exe && \
	sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
	  BENCHMARK.json > "$$base/bounds" && \
	run="--workload $(W) --seed $(SEED) --seconds $$secs --trace 0" && \
	for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) = 1 ]; then order="base here"; else order="here base"; fi; \
	  for side in $$order; do \
	    if [ $$side = base ]; then exe="$$base/_build/default/benchmark/main.exe"; \
	    else exe=./_build/default/benchmark/main.exe; fi; \
	    "$$exe" $$run > "$$base/$$side.$$i" || exit 1; \
	  done; \
	  for side in base here; do \
	    awk -v s=$$side -v i=$$i '$$2 == "host_throughput" { t = $$3 } \
	      $$2 == "host_peak_heap_mb" { h = $$3 } \
	      /"attempted"/ { match($$0, /"attempted": [0-9]+/); \
	        a = substr($$0, RSTART + 13, RLENGTH - 13) } \
	      END { printf "%s %d %.1f %.2f %s\n", s, i, t, h, a }' \
	      "$$base/$$side.$$i" >> "$$base/rows"; \
	    awk -v s=$$side -v i=$$i 'NR == FNR { e2e[$$1] = 1; next } \
	      $$2 in e2e { print s, i, $$2, $$3 }' \
	      "$$base/bounds" "$$base/$$side.$$i" >> "$$base/metrics"; \
	  done; \
	  tail -2 "$$base/rows" | awk '{ printf "pair %s %-4s host_throughput %9.1f  host_peak_heap_mb %6.2f  attempted %s\n", $$2, $$1, $$3, $$4, $$5 }'; \
	done; \
	awk 'function q(a, n, p,  x, k) { x = 1 + (n - 1) * p; k = int(x); \
	       return k >= n ? a[n] : a[k] + (x - k) * (a[k + 1] - a[k]) } \
	     function sort(a, n,  i, j, v) { for (i = 2; i <= n; i++) { v = a[i]; \
	       for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v } } \
	     { n[$$1]++; t[$$1, n[$$1]] = $$3; h[$$1, n[$$1]] = $$4; at[$$1] = at[$$1] " " $$5; \
	       if ($$1 == "base") { bt[$$2] = $$3; bh[$$2] = $$4 } else { ht[$$2] = $$3; hh[$$2] = $$4 } } \
	     END { for (s = 0; s < 2; s++) { side = s ? "here" : "base"; m = n[side]; \
	         for (k = 1; k <= m; k++) { x[k] = t[side, k]; y[k] = h[side, k] } \
	         sort(x, m); sort(y, m); \
	         printf "%-4s host_throughput   median %9.1f  q1 %9.1f  q3 %9.1f\n", side, q(x, m, .5), q(x, m, .25), q(x, m, .75); \
	         printf "%-4s host_peak_heap_mb median %9.2f  q1 %9.2f  q3 %9.2f\n", side, q(y, m, .5), q(y, m, .25), q(y, m, .75); \
	         printf "%-4s attempted%s\n", side, at[side] } \
	       for (i in bt) { wt += ht[i] > bt[i]; wh += hh[i] < bh[i] } \
	       printf "here wins %d/%d pairs on host_throughput, %d/%d on host_peak_heap_mb\n", wt, n["here"], wh, n["here"] }' \
	  "$$base/rows" && \
	awk 'function med(a, n,  i, j, v) { for (i = 2; i <= n; i++) { v = a[i]; \
	       for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v } \
	       return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 } \
	     NR == FNR { name[++m] = $$1; better[$$1] = $$2; bound[$$1] = $$3; next } \
	     { k = ++n[$$1, $$3]; v[$$1, $$3, k] = $$4 } \
	     END { for (r = 1; r <= m; r++) { x = name[r]; \
	         for (s = 0; s < 2; s++) { side = s ? "here" : "base"; c = n[side, x]; \
	           for (k = 1; k <= c; k++) a[k] = v[side, x, k]; md[side] = med(a, c) } \
	         b = md["base"]; h = md["here"]; ratio = b ? h / b : 1; \
	         gain = b ? (h - b) / (b < 0 ? -b : b) : 0; if (better[x] == "lower") gain = -gain; \
	         printf "e2e %-24s median base %12.6g  here %12.6g  here/base %6.3f  bound %.2f%s\n", \
	           x, b, h, ratio, bound[x], gain < -bound[x] ? "  PAST BOUND" : "" } }' \
	  "$$base/bounds" "$$base/metrics" && \
	"$$base/_build/default/benchmark/main.exe" --workload $(W) --seed $(SEED) \
	  --seconds 0.001 --trace 0 > "$$base/base.min" && \
	./_build/default/benchmark/main.exe --workload $(W) --seed $(SEED) \
	  --seconds 0.001 --trace 0 > "$$base/here.min" && \
	for m in host_peak_heap_mb host_alloc_words_per_op; do \
	  awk -v m=$$m '$$2 == m { v[FILENAME] = $$3 } \
	    END { b = v[ARGV[1]]; h = v[ARGV[2]]; \
	      printf "equal work (--seconds 0.001) %-24s base %9.2f  here %9.2f  (%+.1f%%)\n", \
	        m, b, h, b ? 100 * (h - b) / b : 0 }' \
	    "$$base/base.min" "$$base/here.min"; \
	done

# Added, removed and net .ml/.mli lines under lib/, bench/ and test/,
# this working tree against revision BASE: `make net-lines BASE=<rev>`.
# New files count once they are staged (`git add`).  Not part of `check`.
net-lines:
	@test -n "$(BASE)" || { echo "usage: make net-lines BASE=<rev>"; exit 2; }
	@for d in lib bench test; do \
	  git diff --numstat $(BASE) -- "$$d/*.ml" "$$d/*.mli" | \
	    awk -v d="$$d/" '{ a += $$1; r += $$2 } \
	      END { printf "%-7s +%d -%d net %+d\n", d, a, r, a - r }'; \
	done

# Statistical preconditions of the qcheck properties, swept: `make
# qcheck-seeds N=200 [SUITE=test_workloads]` runs each suite in SUITE
# (one name or several, e.g. SUITE="test_knet test_kring") once per
# QCHECK_SEED 1..N, each run under a 600-s timeout, and prints every
# failing seed with the tests it failed (a run that fails or times out
# without naming a test says so), then how many seeds failed per
# suite.  Exits 1 if any seed failed.  A failure replays
# with `QCHECK_SEED=<seed> ./_build/default/test/<suite>.exe`.  Takes N
# times a suite's run time (test_workloads: about 3 s), so it stays out
# of `dune runtest` and `check`.
SUITE ?= test_workloads
qcheck-seeds:
	@test -n "$(N)" || { echo "usage: make qcheck-seeds N=<seeds> [SUITE=test_workloads]"; exit 2; }
	@dune build --root . --display quiet $(foreach s,$(SUITE),test/$(s).exe) && \
	out=$$(mktemp -d "$(TMPDIR)/qcheck-seeds.XXXXXX") && \
	trap 'rm -rf "$$out"' EXIT && \
	status=0 && \
	for s in $(SUITE); do \
	  failed=0; \
	  for i in $$(seq 1 $(N)); do \
	    QCHECK_SEED=$$i timeout --preserve-status -s KILL 600 \
	      ./_build/default/test/$$s.exe -o "$$out" > "$$out/run" 2>&1; \
	    code=$$?; \
	    test $$code = 0 && continue; \
	    failed=$$((failed + 1)); status=1; \
	    if [ $$code = 137 ]; then echo "$$s seed $$i: timed out after 600 s"; \
	    elif grep -q '^> \[FAIL\]' "$$out/run"; then \
	      sed -n 's/^> \[FAIL\] *//p' "$$out/run" | \
	        while read -r t; do echo "$$s seed $$i: $$t"; done; \
	    else echo "$$s seed $$i: exit $$code, no failing test named"; fi; \
	  done; \
	  echo "qcheck-seeds: $$s failed on $$failed of $(N) seeds"; \
	done; \
	exit $$status

# Where one workload's host time goes: `make host-profile W=cosy_db
# [SECS=20]` runs the benchmark untraced under gprofng's clock profiler
# (1 ms samples) and prints the top 30 functions by exclusive CPU time,
# then how many clock samples that table rests on beside the user CPU
# seconds they sample.  Clock profiling can keep few of its samples on a
# shared or virtual machine (under a hundred in an 8-s run), and a share
# read from so few is noise, hence the 20-s default.  The experiment
# directory goes in a throwaway directory under $(TMPDIR).  Needs
# gprofng; not part of `check`.
SECS ?= 20
host-profile:
	@test -n "$(W)" || { echo "usage: make host-profile W=<workload> [SECS=20]"; exit 2; }
	@command -v gprofng > /dev/null || { echo "host-profile: gprofng not found"; exit 2; }
	@dune build --root . --display quiet benchmark/main.exe && \
	dir=$$(mktemp -d "$(TMPDIR)/host-profile.XXXXXX") && \
	trap 'rm -rf "$$dir"' EXIT && \
	gprofng collect app -p 1 -o "$$dir/run.er" \
	  ./_build/default/benchmark/main.exe --workload $(W) --seconds $(SECS) \
	  --trace 0 > "$$dir/run.out" && \
	grep -E ' (host_throughput|host_peak_heap_mb) ' "$$dir/run.out"; \
	gprofng display text -limit 30 -functions "$$dir/run.er" | tee "$$dir/top.txt" && \
	cpu=$$(gprofng display text -statistics "$$dir/run.er" | awk '/User CPU:/ { print $$3 }') && \
	awk -v cpu="$$cpu" '/<Total>/ { printf "host-profile: %d clock samples kept (1 ms each) over %s s of user CPU\n", $$1 * 1000 + 0.5, cpu }' "$$dir/top.txt"

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
