#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass.
#
# 1. Clean-ish release build with warnings as errors + full test suite (the
#    tier-1 gate), then the perf harness's own tests and the golden digests.
# 2. AddressSanitizer + UBSan build (-DAURORA_SANITIZE=ON) running the test
#    suite and a small parallel comparison grid (--jobs > 1) to shake out
#    data races over the thread-pooled bench cells and any lifetime bugs in
#    the event-driven scheduler.
# 3. ThreadSanitizer build (-DAURORA_SANITIZE=thread) running the cluster
#    suite and a multi-threaded faulty serving run against the cluster
#    engine's per-chip worker threads.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build + tests =="
# Warnings are errors here, so the release build stays warning-free.
cmake -B build -S . -DAURORA_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== perf harness tests =="
# Tiny workloads through perfbench/run.py: units, same-seed digest identity,
# other-seed digest change, tampered-report detection and traced metrics.
python3 perfbench/test_perfbench.py

echo "== golden digests: simulated results pinned =="
# Tiny runs of every workload at seeds 1 and 7 must reproduce the committed
# digest, sim_cycles and fail_frac (tests/data/perfbench_digests.json); under
# another compiler a mismatch is reported without failing. A change that
# means to move the model regenerates the file with --write and says why.
python3 scripts/check_digests.py

echo "== observability smoke: trace + metrics export =="
# A small cycle-mode run with every observability flag on. Both outputs must
# be valid JSON; the metrics report must carry the per-phase and latency
# schema, and the trace must contain phase spans and counter tracks.
# "noc.packets_in_flight" is also a track derived from trace events, so the
# sampler's own series are checked by two names only it records.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT

# Asserts an aurora.serving.v1 report's schema and both conservation laws
# (admitted + shed == generated; admitted == completed + shed_expired +
# failed_permanently). Extra "key=value" arguments pin integer fields.
check_serving_json() {
  python3 - "$@" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    report = json.load(fh)
assert report["schema"] == "aurora.serving.v1", report["schema"]
assert report["admitted"] + report["shed"] == report["generated"], report
completed = len(report["requests"])
assert report["admitted"] == completed + report["shed_expired"] \
    + report["failed_permanently"], report
for pin in sys.argv[2:]:
    key, value = pin.split("=")
    assert report[key] == int(value), (sys.argv[1], key, report[key])
EOF
}

./build/examples/simulate --dataset=cora --scale=0.03 --model=GCN \
  --mode=cycle --trace-out="$obs_dir/trace.json" \
  --metrics-out="$obs_dir/metrics.json" --sample-interval=32
python3 -m json.tool "$obs_dir/trace.json" > /dev/null
python3 -m json.tool "$obs_dir/metrics.json" > /dev/null
for key in '"traceEvents"' '"ph": "X"' '"ph": "C"' '"noc.packets_in_flight"' \
           '"pe.tasks_total"' '"dram.bursts_pending"'; do
  grep -qF "$key" "$obs_dir/trace.json" \
    || { echo "trace schema drift: missing $key"; exit 1; }
done
for key in '"phases"' '"edge_update"' '"aggregation"' '"vertex_update"' \
           '"noc_packet_latency"' '"dram_request_latency"' '"p99"'; do
  grep -qF "$key" "$obs_dir/metrics.json" \
    || { echo "metrics schema drift: missing $key"; exit 1; }
done
echo "observability smoke: ok"

echo "== critical-path profiler smoke =="
# Profiler test suite by ctest label, then a single-chip simulate run, a
# 4-chip shard-parallel serving run and a faulty and a dynamic serving run
# writing critpath JSON. Each report must carry the v1 schema and satisfy
# the attribution invariant: the five category cycle counts sum exactly to
# the end-to-end total.
ctest --test-dir build -L profile --output-on-failure -j
./build/examples/simulate --dataset=cora --scale=0.03 --model=GCN \
  --critpath-out="$obs_dir/critpath.json" --what-if="dram_latency=0.5x"
./build/examples/serving --scale=0.02 --requests=2 --hidden=16 \
  --chips=4 --mode=shard --critpath-out="$obs_dir/critpath_cluster.json" \
  --trace-out="$obs_dir/trace_cluster.json"
python3 -m json.tool "$obs_dir/trace_cluster.json" > /dev/null
# Faulty and dynamic serving record chip transitions, graph mutations and
# reshards between the runs; the analysis skips them.
./build/examples/serving --scale=0.02 --hidden=16 --arrival=poisson \
  --rate=150000 --requests=8 --chips=1 --faults=3 --mtbf-us=200 \
  --critpath-out="$obs_dir/critpath_faulty.json"
./build/examples/serving --scale=0.02 --hidden=16 --dynamic --requests=4 \
  --chips=2 --critpath-out="$obs_dir/critpath_dynamic.json"
for f in "$obs_dir/critpath.json" "$obs_dir/critpath_cluster.json" \
         "$obs_dir/critpath_faulty.json" "$obs_dir/critpath_dynamic.json"; do
  python3 - "$f" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    report = json.load(fh)
assert report["schema"] == "aurora.critpath.v1", report["schema"]
categories = ["pe_compute", "noc_serialization", "dram_service",
              "reconfiguration", "halo_barrier_wait"]
for scope in [report] + report["runs"]:
    attributed = sum(scope["attribution"][c] for c in categories)
    assert attributed == scope["total_cycles"], \
        (sys.argv[1], attributed, scope["total_cycles"])
EOF
done
echo "critical-path smoke: ok"

echo "== differential fuzz smoke: lockstep vs fast-forward =="
# Fixed seeds, both scheduler modes, invariant checker attached; any
# divergence or conservation-law violation prints the seed and a replay
# command. Deterministic, so a failure here reproduces exactly.
./build/bench/fuzz_sim --seeds=25

echo "== cluster smoke: multi-chip scale-out =="
# Cluster test suite by ctest label, then closed-loop 2- and 4-chip serving
# runs in both dispatch modes, whose JSON reports must carry the v1 schema,
# satisfy both conservation laws and shed nothing, then the cluster
# differential fuzz (random shard counts, topologies and link parameters;
# per-chip metrics and cluster counters must be bit-identical across
# scheduler modes).
ctest --test-dir build -L cluster --output-on-failure -j
./build/examples/serving --scale=0.02 --requests=4 --hidden=16 \
  --chips=2 --mode=shard --serving-out="$obs_dir/closed_shard.json"
./build/examples/serving --scale=0.02 --requests=4 --hidden=16 \
  --chips=4 --mode=data --serving-out="$obs_dir/closed_data.json"
check_serving_json "$obs_dir/closed_shard.json" shed=0
check_serving_json "$obs_dir/closed_data.json" shed=0
./build/bench/fuzz_sim --cluster --seeds=15

echo "== serving smoke: open-loop engine =="
# Serving test suite by ctest label, then a short open-loop Poisson run
# whose JSON report must carry the v1 schema and satisfy the admission
# invariant admitted + shed == generated, then the goodput-vs-rate sweep
# (which re-asserts the invariant at every point) writing its artifact.
ctest --test-dir build -L serving --output-on-failure -j
./build/examples/serving --scale=0.02 --hidden=16 --arrival=poisson \
  --rate=200000 --slo-us=500 --requests=16 --seed=3 --queue-depth=4 \
  --serving-out="$obs_dir/serving.json"
check_serving_json "$obs_dir/serving.json"
./build/bench/micro_serving --requests=12 --out=BENCH_serving.json

echo "== workload smoke: dynamic graphs + sampling =="
# Workload test suite by ctest label (sampler determinism across simulation
# modes, compaction bit-identity, churn-aware sharding), then the
# dynamic-graph fuzzer (random insert/delete streams cross-checked against
# a reference model; compact() must be bit-identical to a from-scratch
# rebuild at every checkpoint), then a churning 2-chip serving run.
ctest --test-dir build -L workload --output-on-failure -j
./build/bench/fuzz_workload --seeds=25
./build/examples/serving --scale=0.02 --hidden=16 --dynamic --requests=12 \
  --churn=0.6 --fanout=6,3 --batch-seeds=3 --chips=2 \
  --reshard-threshold=0.1 --seed=5

echo "== fault smoke: deterministic injection + failure-aware serving =="
# Fault test suite by ctest label, then a 4-chip open-loop run with chip
# faults on whose JSON report must satisfy both conservation invariants,
# then the fault differential fuzz (both scheduler modes must agree bit for
# bit on fault timelines and the full ServingReport), then the
# availability-vs-MTBF sweep writing its artifact (re-asserts conservation
# at every point).
ctest --test-dir build -L fault --output-on-failure -j
./build/examples/serving --scale=0.02 --hidden=16 --arrival=poisson \
  --rate=150000 --slo-us=800 --requests=16 --seed=7 --chips=4 --mode=data \
  --faults=3 --mtbf-us=200 --mttr-us=50 \
  --serving-out="$obs_dir/serving_faults.json"
check_serving_json "$obs_dir/serving_faults.json"
./build/bench/fuzz_sim --cluster --faults --seeds=25
./build/bench/micro_serving --requests=12 --faults=1 --rate=4000 \
  --out=BENCH_serving_faults.json

echo "== sanitizers: ASan + UBSan build =="
cmake -B build-asan -S . -DAURORA_SANITIZE=ON
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

echo "== sanitizers: parallel bench grid =="
# Tiny scale keeps this minutes-cheap under ASan; --jobs 4 exercises the
# thread pool. abort_on_error surfaces any report as a non-zero exit.
export ASAN_OPTIONS="abort_on_error=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:${UBSAN_OPTIONS:-}"
./build-asan/bench/fig9_execution_time --scale=0.02 --jobs=4

echo "== sanitizers: differential fuzz smoke =="
# Fewer seeds than the release smoke: ASan runs each seed's two engine
# passes ~10x slower, and the sanitizer is hunting memory bugs here, not
# schedule divergence (the release smoke already covers seeds 1-25).
./build-asan/bench/fuzz_sim --seeds=8

echo "== sanitizers: cluster smoke =="
# 2- and 4-chip shard-parallel serving plus a short cluster fuzz under
# ASan/UBSan: the link/proxy callback plumbing and per-run component
# lifetimes are the fresh attack surface here.
./build-asan/examples/serving --scale=0.02 --requests=2 --hidden=16 \
  --chips=2 --mode=shard
./build-asan/examples/serving --scale=0.02 --requests=2 --hidden=16 \
  --chips=4 --mode=shard
./build-asan/bench/fuzz_sim --cluster --seeds=5
# Fault differential seeds under ASan/UBSan: the fault-plan window queries,
# the retry heap and the failover re-dispatch path are the fresh surface.
./build-asan/bench/fuzz_sim --cluster --faults --seeds=5

echo "== sanitizers: serving smoke =="
# The serving suite plus one open-loop run under ASan/UBSan: the queue's
# erase-based pops and the engine's request moves are the fresh lifetime
# surface here.
ctest --test-dir build-asan -L serving --output-on-failure -j
./build-asan/examples/serving --scale=0.02 --hidden=16 --arrival=bursty \
  --rate=150000 --slo-us=500 --requests=8 --seed=5 --chips=2 --mode=data

echo "== sanitizers: workload smoke =="
# Streaming-update fuzz under ASan/UBSan: the overlay's sorted-vector
# insert/erase churn and compaction's in-place merge are the fresh memory
# surface here (fewer seeds than the release smoke — each seed runs ~10x
# slower sanitized).
./build-asan/bench/fuzz_workload --seeds=8
./build-asan/examples/serving --scale=0.02 --hidden=16 --dynamic \
  --requests=8 --churn=0.6 --fanout=6,3 --batch-seeds=3 --chips=2 \
  --reshard-threshold=0.1 --seed=5

echo "== sanitizers: critical-path profiler =="
# The profiler test suite plus a traced critpath run under ASan/UBSan: the
# trace enrichment (packed 32-bit pairs, ring-buffer eviction) and the
# analyzer's backward walk are pointer-light but index-heavy — exactly what
# UBSan's bounds and overflow checks are for.
ctest --test-dir build-asan -L profile --output-on-failure -j
./build-asan/examples/simulate --dataset=cora --scale=0.03 --model=GCN \
  --critpath --what-if="link_bw=2x,dram_latency=0.5x"

echo "== sanitizers: TSan build (per-chip worker threads) =="
# ThreadSanitizer cannot coexist with ASan, so it gets its own tree. The
# attack surface is the cluster engine's per-chip fan-out: the cluster test
# suite (its ParallelEngine tests run chips on worker threads) catches data
# races in parallel_for.
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
cmake -B build-tsan -S . -DAURORA_SANITIZE=thread
cmake --build build-tsan -j --target test_cluster test_scheduler test_common \
  test_sim serving
ctest --test-dir build-tsan -L cluster --output-on-failure -j
# Fault injection on the multi-threaded fan-out: an open-loop shard-parallel
# serving run with chip faults, so retry and failover run over parallel
# per-chip runs. The pins prove the faults fired.
./build-tsan/examples/serving --scale=0.02 --requests=16 --hidden=16 \
  --chips=2 --mode=shard --parallel-sim --arrival=poisson --rate=150000 \
  --slo-us=800 --faults=3 --mtbf-us=300 --mttr-us=60 \
  --serving-out="$obs_dir/serving_tsan.json"
check_serving_json "$obs_dir/serving_tsan.json" failed_attempts=8 retries=8 \
  failed_over=5

echo "check.sh: all green"
