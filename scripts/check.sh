#!/usr/bin/env bash
# Full correctness gate: every workspace test plus lint-clean clippy.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo clippy -D warnings (workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== determinism gate (seeded emulation + chaos + planned + parallel runs, twice, diff) =="
# The determinism binary covers the fault-free pinned sort, a pinned
# chaos run (ASU crash + lossy link), a planner-placed run with the
# balancer armed, a threads=4 partitioned run, a faulted partitioned
# run (static timelines + per-partition controllers), and a
# snapshot-balanced partitioned run: bounces, retries, fencing, repair,
# plan reports, reweights, and the parallel kernel's merged reports
# must all be run-to-run stable despite real thread interleaving.
cargo build -q --release -p lmas-bench --bin determinism
run1="$(./target/release/determinism)"
run2="$(./target/release/determinism)"
if [ "$run1" != "$run2" ]; then
    echo "determinism gate FAILED: two runs of the pinned emulation differ" >&2
    diff <(echo "$run1") <(echo "$run2") >&2 || true
    exit 1
fi
echo "$run1"
# Gated (scheduler) runs are clamped to one partition whatever the
# thread count: the two-thread rerun of the pinned aware spec must print
# exactly the one-thread section.
sched_t1="$(echo "$run1" | grep '^sched\.aware\.' | grep -v '^sched\.aware\.t2\.' | sed 's/^sched\.aware\.//')"
sched_t2="$(echo "$run1" | grep '^sched\.aware\.t2\.' | sed 's/^sched\.aware\.t2\.//')"
if [ -z "$sched_t1" ] || [ "$sched_t1" != "$sched_t2" ]; then
    echo "determinism gate FAILED: sched.aware.t2 differs from sched.aware" >&2
    diff <(echo "$sched_t1") <(echo "$sched_t2") >&2 || true
    exit 1
fi

echo "== parallel kernel gate (goldens at 1/2/4/8 threads, byte-diffed) =="
# par_golden re-runs the frozen sequential pins of tests/golden.rs at
# threads 2 and 4 (makespans, dispatch counts, trace FNVs — all must
# match the pre-parallel constants byte-for-byte) and pins
# representative multi-host partitioned runs, faulted ones included;
# par_diff fuzzes random cluster shapes × random fault plans × the
# snapshot balancer across thread counts — faulted and balanced runs go
# through the partitioned engine and must reproduce the sequential run.
# Named here so a parallel-kernel regression fails loudly in its own
# step.
cargo test -q -p lmas-sort --test par_golden --test par_diff > /dev/null
echo "parallel gate verified (pins hold at threads 1/2/4/8; faulted+balanced runs partition)"

echo "== parallel scaling gate (par_scaling at reduced scale, twice, diff; speedup regression guard) =="
# Faulted-parallel determinism: the BENCH-par-sim sweep (fault-free,
# faulted, and faulted+balanced variants at threads 1/2/4/8) must be
# byte-identical across two runs. barrier_wait_hist is wall-clock
# scheduling noise — stripped before the diff; every other figure is
# virtual time and must be stable.
cargo build -q --release -p lmas-bench --bin par_scaling
pg1="$(mktemp -d)"; pg2="$(mktemp -d)"
LMAS_SCALE="${LMAS_PAR_SCALE:-0.1}" LMAS_RESULTS_DIR="$pg1" ./target/release/par_scaling > /dev/null
LMAS_SCALE="${LMAS_PAR_SCALE:-0.1}" LMAS_RESULTS_DIR="$pg2" ./target/release/par_scaling > /dev/null
if ! diff -q <(grep -v barrier_wait_hist "$pg1/BENCH_par_sim.json") \
             <(grep -v barrier_wait_hist "$pg2/BENCH_par_sim.json") > /dev/null; then
    echo "parallel scaling gate FAILED: two par_scaling runs differ" >&2
    diff <(grep -v barrier_wait_hist "$pg1/BENCH_par_sim.json") \
         <(grep -v barrier_wait_hist "$pg2/BENCH_par_sim.json") >&2 || true
    exit 1
fi
# Bench-regression guard: the checked-in full-scale artifact must still
# assert both dispatch-speedup gates (the binary writes `false` — and
# aborts — when a gate misses at full scale).
grep -q '"verified_speedup_ge_4_5_at_8_threads_256_nodes": true' results/BENCH_par_sim.json || {
    echo "bench regression: fault-free 8-thread speedup gate missing from results/BENCH_par_sim.json" >&2
    exit 1
}
grep -q '"verified_faulted_balanced_speedup_ge_2_at_4_threads_256_nodes": true' results/BENCH_par_sim.json || {
    echo "bench regression: faulted 4-thread speedup gate missing from results/BENCH_par_sim.json" >&2
    exit 1
}
echo "parallel scaling verified (artifact deterministic; speedup gates hold in checked-in results)"

echo "== chaos recovery gate (fault sweep at reduced scale) =="
# Every cell of the sweep verifies its recovered output byte-identical
# to the fault-free golden run (the binary asserts it). The storage
# proptests (pool durability/determinism, disk timing) ride along.
cargo test -q -p lmas-storage > /dev/null
cargo build -q --release -p lmas-bench --bin fault_sweep
# Reduced scale, scratch results dir: don't clobber the full-scale
# results/BENCH_faults.json artifact.
LMAS_SCALE="${LMAS_CHAOS_SCALE:-0.25}" LMAS_RESULTS_DIR="$(mktemp -d)" \
    ./target/release/fault_sweep > /dev/null
echo "fault sweep verified (every masked run byte-identical after repair)"

echo "== planner smoke (placement sweep at reduced scale, twice, diff) =="
# Every cell asserts planned <= both naive layouts and that an
# always-in-deadband balancer leaves the planned run untouched; the
# JSON artifact must also be byte-identical across runs.
cargo test -q -p lmas-plan > /dev/null
cargo build -q --release -p lmas-bench --bin placement_sweep
ps1="$(mktemp -d)"; ps2="$(mktemp -d)"
LMAS_SCALE="${LMAS_PLAN_SCALE:-0.25}" LMAS_RESULTS_DIR="$ps1" ./target/release/placement_sweep > /dev/null
LMAS_SCALE="${LMAS_PLAN_SCALE:-0.25}" LMAS_RESULTS_DIR="$ps2" ./target/release/placement_sweep > /dev/null
if ! diff -q "$ps1/BENCH_placement.json" "$ps2/BENCH_placement.json" > /dev/null; then
    echo "planner smoke FAILED: two placement_sweep runs differ" >&2
    diff "$ps1/BENCH_placement.json" "$ps2/BENCH_placement.json" >&2 || true
    exit 1
fi
echo "placement sweep verified (planned never loses to naive layouts; artifact deterministic)"

echo "== storage substrate smoke (disk_scaling at tiny n, twice, diff) =="
# The multi-disk/pool/read-ahead bench must be run-to-run byte-identical
# in all printed virtual-time figures and in its JSON artifact.
cargo build -q --release -p lmas-bench --bin disk_scaling
ds1="$(mktemp -d)"; ds2="$(mktemp -d)"
out1="$(LMAS_SCALE=0.05 LMAS_RESULTS_DIR="$ds1" ./target/release/disk_scaling | sed 's|'"$ds1"'|RESULTS|')"
out2="$(LMAS_SCALE=0.05 LMAS_RESULTS_DIR="$ds2" ./target/release/disk_scaling | sed 's|'"$ds2"'|RESULTS|')"
if [ "$out1" != "$out2" ] || ! diff -q "$ds1/BENCH_storage.json" "$ds2/BENCH_storage.json" > /dev/null; then
    echo "storage smoke FAILED: two disk_scaling runs differ" >&2
    diff <(echo "$out1") <(echo "$out2") >&2 || true
    diff "$ds1/BENCH_storage.json" "$ds2/BENCH_storage.json" >&2 || true
    exit 1
fi
echo "disk_scaling deterministic (stdout + JSON byte-identical across runs)"

echo "== coded shuffle smoke (coded_shuffle at reduced scale, twice, diff) =="
# Coded-shuffle distribute: the r-sweep, planner agreement checks, the
# threads {1,2,4} byte-identity gate, and the r=1-vs-uncoded gate must
# all be run-to-run byte-identical (the thread and r=1 gates are hard
# asserts at any scale; the tracking/agreement gates are asserted at
# full scale and recorded as verified_* booleans here).
cargo build -q --release -p lmas-bench --bin coded_shuffle
cs1="$(mktemp -d)"; cs2="$(mktemp -d)"
LMAS_SCALE="${LMAS_CODED_SCALE:-0.25}" LMAS_RESULTS_DIR="$cs1" ./target/release/coded_shuffle > /dev/null
LMAS_SCALE="${LMAS_CODED_SCALE:-0.25}" LMAS_RESULTS_DIR="$cs2" ./target/release/coded_shuffle > /dev/null
if ! diff -q "$cs1/BENCH_coded.json" "$cs2/BENCH_coded.json" > /dev/null; then
    echo "coded shuffle smoke FAILED: two coded_shuffle runs differ" >&2
    diff "$cs1/BENCH_coded.json" "$cs2/BENCH_coded.json" >&2 || true
    exit 1
fi
# Bench-regression guard: the checked-in full-scale artifact must carry
# all four verified gates (the binary aborts before writing `true` when
# a gate misses at full scale).
for gate in verified_inverse_r_tracking verified_planner_agreement \
            verified_threads_identical verified_r1_matches_uncoded; do
    grep -q "\"$gate\": true" results/BENCH_coded.json || {
        echo "bench regression: $gate missing from results/BENCH_coded.json" >&2
        exit 1
    }
done
echo "coded shuffle verified (1/r tracking + planner agreement hold in checked-in results; artifact deterministic)"

echo "== repair smoke (fleet durability sweep at reduced scale, twice, diff) =="
# Background re-replication: every cell of the fleet × bandwidth sweep
# asserts its measured replica trajectory against the mean-field ODE
# (the binary aborts on a miss), and the JSON artifact must be
# byte-identical across runs. The determinism binary's repair/parrepair
# sections already pin the same engine across thread counts above.
cargo build -q --release -p lmas-bench --bin repair_fleet
rf1="$(mktemp -d)"; rf2="$(mktemp -d)"
LMAS_SCALE="${LMAS_REPAIR_SCALE:-0.1}" LMAS_RESULTS_DIR="$rf1" ./target/release/repair_fleet > /dev/null
LMAS_SCALE="${LMAS_REPAIR_SCALE:-0.1}" LMAS_RESULTS_DIR="$rf2" ./target/release/repair_fleet > /dev/null
if ! diff -q "$rf1/BENCH_repair.json" "$rf2/BENCH_repair.json" > /dev/null; then
    echo "repair smoke FAILED: two repair_fleet runs differ" >&2
    diff "$rf1/BENCH_repair.json" "$rf2/BENCH_repair.json" >&2 || true
    exit 1
fi
# Bench-regression guard: the checked-in full-scale artifact must carry
# the mean-field validation stamp (the binary aborts before writing it
# when any cell misses its tolerance).
grep -q '"verified_mean_field"' results/BENCH_repair.json || {
    echo "bench regression: mean-field stamp missing from results/BENCH_repair.json" >&2
    exit 1
}
echo "repair fleet verified (ODE tolerances hold; artifact deterministic)"

echo "== scheduler smoke (multi_tenant, twice, diff; latency gates) =="
# Multi-tenant scheduler: every >=70%-utilization cell asserts aware
# (residual-planned) placement beats the naive static stack on both
# p50 and p99 latency (the binary aborts on a miss), deep queues admit
# everything, and one cell re-runs byte-identically. The sched crate's
# tests (quota-never-exceeded and starvation-freedom proptests, the
# single-job golden) ride along.
cargo test -q -p lmas-sched > /dev/null
cargo build -q --release -p lmas-bench --bin multi_tenant
mt1="$(mktemp -d)"; mt2="$(mktemp -d)"
LMAS_RESULTS_DIR="$mt1" ./target/release/multi_tenant > /dev/null
LMAS_RESULTS_DIR="$mt2" ./target/release/multi_tenant > /dev/null
if ! diff -q "$mt1/BENCH_sched.json" "$mt2/BENCH_sched.json" > /dev/null; then
    echo "scheduler smoke FAILED: two multi_tenant runs differ" >&2
    diff "$mt1/BENCH_sched.json" "$mt2/BENCH_sched.json" >&2 || true
    exit 1
fi
# Bench-regression guard: the checked-in artifact must carry all four
# verified gates (the binary aborts before writing them on a miss).
for gate in verified_aware_beats_naive_p50_at_70pct verified_aware_beats_naive_p99_at_70pct \
            verified_all_admitted_complete verified_deterministic; do
    grep -q "\"$gate\": true" results/BENCH_sched.json || {
        echo "bench regression: $gate missing from results/BENCH_sched.json" >&2
        exit 1
    }
done
echo "multi-tenant scheduler verified (aware beats naive at >=70% util on p50+p99; artifact deterministic)"

echo "check.sh: all green"
