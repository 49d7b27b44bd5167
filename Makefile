# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-alloc bench-flows bench-burst bench-pdes bench-hybrid perfbench figures fast check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full paper-scale regeneration of every table, figure, ablation and
# extension (~3 minutes), captured to bench_output.txt.
bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Allocation-budget gate on its own: per-scenario GC words/event rows
# (Reno 6.0, Reno/RED 8.0, Vegas 8.0 minor words/event) written to
# BENCH_alloc.json. Exits non-zero when any scenario exceeds its
# committed threshold or leaks pool slots; the full (non --fast) run
# additionally enforces the Reno events/sec floor.
bench-alloc:
	dune exec bench/main.exe -- --only alloc --fast

# Flow-scaling gate on its own: one Reno/RED run each at N = 10^3,
# 10^4 and 10^5 greedy flows in a mean-field regime (capacity, buffer
# and RED thresholds scale with N), written to BENCH_flows.json. Exits
# non-zero when a row exceeds 512 bytes/flow, grows a pre-sized slab,
# leaks a packet or flow row, or (the converged N <= 10^4 rows) lands
# outside the fluid-model ratio bands; the full (non --fast) run
# additionally enforces the N = 10^5 events/sec floor.
bench-flows:
	dune exec bench/main.exe -- --only flows --fast

# Burstiness-observability gate on its own: paired probed-vs-burst Reno
# runs (minor words/event delta must stay within 0.05), a streaming-vs-
# offline c.o.v. equivalence check at the RTT timescale (|err| <= 1e-6),
# and a RED w_q sweep bracketing the Reynier/Hollot critical gain whose
# oscillation-detector verdicts must match the predicted side, written
# to BENCH_burst.json. Exits non-zero when any gate fails.
bench-burst:
	dune exec bench/main.exe -- --only burst --fast

# Parallelism gate on its own: the sequential-vs-parallel replicate
# sweep plus the sharded conservative-PDES single-run section — a
# 1-shard vs 4-shard bit-identity check (always enforced) and 1/2/4
# shard wall-clock rows at N = 10^4 Reno/RED, written to
# BENCH_parallel.json. On machines with >= 4 domains the recorded
# single-run speedup must reach the committed 3x floor; with fewer the
# ratio is recorded as null rather than commit oversubscription noise.
bench-pdes:
	dune exec bench/main.exe -- --only pdes --fast
	dune exec bin/main.exe -- report-check --kind=parallel BENCH_parallel.json

# Hybrid fluid/packet gate on its own: hybrid-vs-packet validation at
# N = 10^3 and 10^4 (foreground throughput, combined queue and loss
# ratios inside the committed bands), the converged N = 10^6 run
# (K = 100 packet foreground + 999,900 fluid background; leak-free,
# zero slab growth; the full run also enforces the >= 10x
# work-per-simulated-second floor against pure packet at equal N), and
# the RED w_q stability sweep rerun at mean-field scale through the
# hybrid engine, written to BENCH_hybrid.json. Exits non-zero when any
# gate fails.
bench-hybrid:
	dune exec bench/main.exe -- --only hybrid --fast
	dune exec bin/main.exe -- report-check --kind=hybrid BENCH_hybrid.json

# The scenario-matrix benchmark (perfbench/README.md): end-to-end
# metrics of every workload declared in BENCHMARK.json, one workload
# after another. Never run these concurrently: each builds with dune
# first, and parallel runs hang on dune's build lock.
perfbench:
	python3 perfbench/run.py --workload paper-n50
	python3 perfbench/run.py --workload meanfield-1e4
	python3 perfbench/run.py --workload hybrid-1e6

# Just the paper's figures, at paper scale.
figures:
	dune exec bin/main.exe -- all

# Smoke-test everything at reduced scale.
fast:
	dune exec bench/main.exe -- --fast --skip-micro

# CI gate: build, unit + cram tests (including the parallel determinism
# suite, re-run explicitly so a filtered runtest cannot skip it, and a
# report-check of every committed BENCH_*.json), then a telemetry smoke
# run whose report must validate, and each --fast bench section. Every
# bench section holds the BENCH_*.json it writes to its committed gates
# and report-check re-checks the file; the gates are listed once, in the
# table behind Telemetry.Report.check (lib/telemetry/report.ml).
check:
	dune build @all
	dune runtest
	dune exec test/test_main.exe -- test parallel
	dune exec bin/main.exe -- table1 --fast \
	  --telemetry=/tmp/burstsim-report.json \
	  --trace-out=/tmp/burstsim-trace.ndjson
	dune exec bin/main.exe -- report-check /tmp/burstsim-report.json
	dune exec bench/main.exe -- --fast --only telemetry
	dune exec bin/main.exe -- report-check --kind=bench-telemetry BENCH_telemetry.json
	dune exec bench/main.exe -- --fast --only pdes
	dune exec bin/main.exe -- report-check --kind=parallel BENCH_parallel.json
	dune exec bench/main.exe -- --fast --only alloc
	dune exec bin/main.exe -- report-check --kind=alloc BENCH_alloc.json
	dune exec bench/main.exe -- --fast --only flows
	dune exec bin/main.exe -- report-check --kind=flows BENCH_flows.json
	dune exec bench/main.exe -- --fast --only burst
	dune exec bin/main.exe -- report-check --kind=burst BENCH_burst.json
	dune exec bench/main.exe -- --fast --only hybrid
	dune exec bin/main.exe -- report-check --kind=hybrid BENCH_hybrid.json

clean:
	dune clean
