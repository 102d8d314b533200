#!/usr/bin/env bash
# Bench gate: builds the default tree and checks that every bench JSON holds
# only simulated data — byte-identical across shard and job counts, and equal
# to the committed references in bench/baselines/. Then it runs
# micro_sched_ops and one short run of each perfbench workload, which must
# report correct results. Last, it profiles a 1-second volano_reg_4p run
# with the PC sampler in scripts/pcsample.c.
#
# Host speed is printed, never gated: single samples on shared machines are
# too noisy. The interleaved A/B runs described in docs/PERF.md are the perf
# verdict.
#
#   usage: scripts/ci_bench.sh
#
# Documented in docs/PERF.md.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${ELSC_BUILD_JOBS:-2}"

echo "=== build (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target micro_sched_ops chaos_smoke overload_sweep scale_sweep federation_chaos o1_scaling

echo "=== overload_sweep smoke (short sweep; JSON must be job-count invariant) ==="
# A short sweep at three load factors, run twice at different job counts: the
# emitted JSON contains only simulated data, so the two files must be
# byte-identical (the determinism contract the supervised harness preserves).
(cd build &&
  ELSC_OVERLOAD_DURATION_SEC=1 ELSC_OVERLOAD_LOADS=0.5,1.0,2.0 \
    ELSC_BENCH_JOBS=1 ./bench/overload_sweep >/dev/null &&
  mv BENCH_overload.json BENCH_overload.jobs1.json &&
  ELSC_OVERLOAD_DURATION_SEC=1 ELSC_OVERLOAD_LOADS=0.5,1.0,2.0 \
    ELSC_BENCH_JOBS=4 ./bench/overload_sweep &&
  cmp BENCH_overload.jobs1.json BENCH_overload.json &&
  echo "overload JSON identical at jobs 1 vs 4")

echo "=== scale_sweep smoke (sharded mode; JSON must be shard- and job-count invariant) ==="
# A tiny federation run four ways: shards 1 vs 3 vs 4, and harness jobs 1
# vs 4. The JSON is pure simulated data, so all four files must be
# byte-identical (the sharded mode's determinism contract; 3 shards divide
# no node count; the binary additionally digest-checks every shard count
# in-process).
scale_env="ELSC_SCALE_ROOMS=8 ELSC_SCALE_USERS=4 ELSC_SCALE_MSGS=4 ELSC_SCALE_SCHEDS=elsc"
(cd build &&
  env ${scale_env} ELSC_SCALE_SHARDS=1 ELSC_BENCH_JOBS=1 ./bench/scale_sweep >/dev/null &&
  mv BENCH_scale.json BENCH_scale.shards1.json &&
  env ${scale_env} ELSC_SCALE_SHARDS=3 ELSC_BENCH_JOBS=1 ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.shards1.json BENCH_scale.json &&
  env ${scale_env} ELSC_SCALE_SHARDS=4 ELSC_BENCH_JOBS=1 ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.shards1.json BENCH_scale.json &&
  mv BENCH_scale.json BENCH_scale.jobs1.json &&
  env ${scale_env} ELSC_SCALE_SHARDS=4 ELSC_BENCH_JOBS=4 ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.jobs1.json BENCH_scale.json &&
  echo "scale JSON identical at shards 1 vs 3 vs 4 and jobs 1 vs 4")

echo "=== federation_chaos smoke (failure model; JSON must be shard- and job-count invariant) ==="
# A tiny chaos-armed federation (crashes + loss + retransmission) run four
# ways: shards 1 vs 3 vs 4, and harness jobs 1 vs 4. Chaos is seeded config,
# so all four JSON files must be byte-identical; the binary additionally
# digest-checks every shard count and asserts the
# retransmit column never loses more deliveries than its no-retransmit
# control in-process.
fed_env="ELSC_FED_ROOMS=4 ELSC_FED_USERS=4 ELSC_FED_MSGS=8 ELSC_FED_CRASH=0,100 ELSC_FED_SCHEDS=elsc"
(cd build &&
  env ${fed_env} ELSC_FED_SHARDS=1 ELSC_BENCH_JOBS=1 ./bench/federation_chaos >/dev/null &&
  mv BENCH_federation_chaos.json BENCH_federation_chaos.shards1.json &&
  env ${fed_env} ELSC_FED_SHARDS=3 ELSC_BENCH_JOBS=1 ./bench/federation_chaos >/dev/null &&
  cmp BENCH_federation_chaos.shards1.json BENCH_federation_chaos.json &&
  env ${fed_env} ELSC_FED_SHARDS=4 ELSC_BENCH_JOBS=1 ./bench/federation_chaos >/dev/null &&
  cmp BENCH_federation_chaos.shards1.json BENCH_federation_chaos.json &&
  mv BENCH_federation_chaos.json BENCH_federation_chaos.jobs1.json &&
  env ${fed_env} ELSC_FED_SHARDS=4 ELSC_BENCH_JOBS=4 ./bench/federation_chaos >/dev/null &&
  cmp BENCH_federation_chaos.jobs1.json BENCH_federation_chaos.json &&
  echo "federation chaos JSON identical at shards 1 vs 3 vs 4 and jobs 1 vs 4")

echo "=== o1_scaling smoke (per-CPU lock model; JSON must be job-count invariant) ==="
# A reduced CPU sweep run at harness jobs 1 vs 4. The JSON is pure simulated
# data, so the two files must be byte-identical.
o1_env="ELSC_O1_CPUS=1,4,16 ELSC_O1_ROOMS=2"
(cd build &&
  env ${o1_env} ELSC_BENCH_JOBS=1 ./bench/o1_scaling >/dev/null &&
  mv BENCH_o1_scaling.json BENCH_o1_scaling.jobs1.json &&
  env ${o1_env} ELSC_BENCH_JOBS=4 ./bench/o1_scaling >/dev/null &&
  cmp BENCH_o1_scaling.jobs1.json BENCH_o1_scaling.json &&
  echo "o1 scaling JSON identical at jobs 1 vs 4")

echo "=== chaos_smoke (all fault injectors x schedulers; JSON must be job-count invariant) ==="
(cd build &&
  ELSC_BENCH_JOBS=1 ./bench/chaos_smoke >/dev/null &&
  mv BENCH_chaos_smoke.json BENCH_chaos_smoke.jobs1.json &&
  ELSC_BENCH_JOBS=4 ./bench/chaos_smoke >/dev/null &&
  cmp BENCH_chaos_smoke.jobs1.json BENCH_chaos_smoke.json &&
  echo "chaos smoke JSON identical at jobs 1 vs 4")

echo "=== committed references (default sweeps must reproduce bench/baselines/) ==="
(cd build &&
  ./bench/o1_scaling >/dev/null &&
  cmp BENCH_o1_scaling.json ../bench/baselines/BENCH_o1_scaling.json &&
  echo "o1_scaling JSON identical to bench/baselines/BENCH_o1_scaling.json" &&
  ./bench/scale_sweep >/dev/null &&
  cmp BENCH_scale.json ../bench/baselines/BENCH_scale.json &&
  echo "scale_sweep JSON identical to bench/baselines/BENCH_scale.json")

echo "=== micro_sched_ops (table search + task alloc + event queue + schedule/add-del + o1 pick) ==="
./build/bench/micro_sched_ops --benchmark_min_time=0.05 2>/dev/null |
  grep -E "BM_TableSearch|BM_TaskAlloc|BM_EventQueueChurn|BM_EventQueueMachineMix|BM_Schedule|BM_GoodnessScanPick|BM_O1BitmapPick" || true

echo "=== perfbench (one short run per workload; must be correct, speed printed only) ==="
# run.py exits 0 on a wrong digest too, so the verdict is read from the JSON
# it prints as its last line.
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in ${workloads}; do
  result="$(python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  python3 - "${workload}" "${result}" <<'PY'
import json
import sys

workload, result = sys.argv[1], json.loads(sys.argv[2])
rate = result["metrics"]["deliveries_per_wall_s"]["value"]
print(f"  {workload}: correct={result['correct']} failed={result['failed']} "
      f"deliveries_per_wall_s={rate:.0f}")
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"FAIL: perfbench {workload} did not report a correct run")
PY
done
echo "=== pcsample (PC sampler on a 1-second volano_reg_4p pass; must record samples in perfbench) ==="
# The profiling recipe of docs/PERF.md, run end to end: build the LD_PRELOAD
# sampler, profile the perfbench binary that the loop above built, and
# symbolize. Only a profile with no sample in the binary fails.
prof_dir="build/pcsample"
mkdir -p "${prof_dir}"
rm -f "${prof_dir}"/pcsample.*.txt
cc -O2 -shared -fPIC -o "${prof_dir}/pcsample.so" scripts/pcsample.c
perfbench_bin="${PWD}/.bench_build/perfbench/perfbench_run"
(cd "${prof_dir}" &&
  LD_PRELOAD="${PWD}/pcsample.so" "${perfbench_bin}" --workload volano_reg_4p --seed 1 \
    --seconds 1 --trace 0 >/dev/null)
python3 scripts/pcsample_report.py "${perfbench_bin}" "${prof_dir}"/pcsample.*.txt --top 8 ||
  { echo "FAIL: pcsample recorded no samples in ${perfbench_bin}"; exit 1; }
echo "bench gate: done"
