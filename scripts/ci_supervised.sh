#!/usr/bin/env bash
# Teeth check for the run supervisor (src/harness/supervisor.h): proves that
# a crashing cell is quarantined with a repro artifact and a nonzero exit,
# and that a transient (once-only) timeout is retried to a green run — using
# perf_smoke's real 4-cell VolanoMark matrix as the victim.
#
#   usage: scripts/ci_supervised.sh
#
# Exercises the same machinery tests/supervisor_test.cc covers in-process,
# but end-to-end through a bench binary's environment plumbing
# (ELSC_SUPERVISE_INJECT, ELSC_QUARANTINE_FILE, BenchExit's escalation).
# Documented in docs/SUPERVISION.md.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${ELSC_BUILD_JOBS:-2}"
churn_events=100000
rooms=2

echo "=== build (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target perf_smoke scale_sweep

scratch="build/ci_supervised"
rm -rf "${scratch}"
mkdir -p "${scratch}"
quarantine="${scratch}/quarantine.log"

echo "=== 1. deterministic crash in cell 1: expect quarantine + nonzero exit ==="
status=0
(cd "${scratch}" &&
 ELSC_BENCH_JOBS=2 \
 ELSC_SUPERVISE_INJECT=crash@1 \
 ELSC_QUARANTINE_FILE=quarantine.log \
 ../bench/perf_smoke "${churn_events}" "${rooms}" \
   >stdout_crash.log 2>stderr_crash.log) || status=$?

if [[ "${status}" -eq 0 ]]; then
  echo "FAIL: perf_smoke exited 0 despite an injected crash"
  exit 1
fi
echo "  exit status ${status} (nonzero, as required)"

if ! grep -q "QUARANTINE cell=1 kind=exception class=deterministic" "${quarantine}"; then
  echo "FAIL: quarantine artifact ${quarantine} missing the expected record:"
  cat "${quarantine}" 2>/dev/null || echo "  (file absent)"
  exit 1
fi
if ! grep -q "repro: " "${quarantine}"; then
  echo "FAIL: quarantine record carries no repro command"
  exit 1
fi
echo "  quarantine artifact records the cell, class, and repro line"

# The rest of the matrix must still have completed and been reported: the
# /proc-style summary on stdout, the structured block in the JSON.
if ! grep -Eq "quarantined: +2" "${scratch}/stdout_crash.log"; then
  echo "FAIL: supervision summary missing from bench stdout"
  exit 1
fi
if ! grep -q '"supervision"' "${scratch}/BENCH_perf_smoke.json" ||
   ! grep -q '"quarantined": 2' "${scratch}/BENCH_perf_smoke.json"; then
  echo "FAIL: supervision block missing from BENCH_perf_smoke.json"
  exit 1
fi
echo "  supervision summary present on stdout and in the JSON"

echo "=== 2. transient timeout in cell 2 (once): expect retry + green exit ==="
(cd "${scratch}" &&
 ELSC_BENCH_JOBS=2 \
 ELSC_SUPERVISE_INJECT=timeout@2:once \
 ../bench/perf_smoke "${churn_events}" "${rooms}" \
   >stdout_retry.log 2>stderr_retry.log)
echo "  exit status 0 (retry recovered the cell)"

if ! grep -q "elsc-supervisor: retry cell=2" "${scratch}/stderr_retry.log"; then
  echo "FAIL: no retry line on stderr for the injected transient timeout"
  exit 1
fi
retries="$(sed -n 's/^ *"retries": \([0-9][0-9]*\),*$/\1/p' "${scratch}/BENCH_perf_smoke.json")"
if [[ -z "${retries}" || "${retries}" -lt 1 ]]; then
  echo "FAIL: BENCH_perf_smoke.json reports retries=${retries:-missing}, want >= 1"
  exit 1
fi
echo "  JSON supervision block reports ${retries} retry(ies)"

echo "=== 3. kill-at-window recovery drill: checkpoint -> SIGKILL -> resume ==="
# A real process kill mid-federation (ELSC_SCALE_INJECT_KILL fires _Exit(137)
# at a window barrier, after a forced segment). The rerun must resume from
# the segment and render BENCH_scale.json byte-identical to an uninterrupted
# control — at both ends of the shard axis and the harness job axis.
scale_env=(ELSC_SCALE_ROOMS=8 ELSC_SCALE_USERS=4 ELSC_SCALE_MSGS=4
           ELSC_SCALE_SCHEDS=elsc ELSC_BENCH_TIMING=0)

mkdir -p "${scratch}/scale_control"
(cd "${scratch}/scale_control" &&
 env "${scale_env[@]}" ELSC_SCALE_SHARDS=1,4 \
 ../../bench/scale_sweep >stdout.log 2>stderr.log)

# Every drill keeps the control's two-cell matrix (shard values never enter
# the JSON, so the files stay comparable) while moving one execution axis.
for drill in "shards1:1,1:1" "shards4:4,4:1" "jobs4:1,4:4"; do
  name="${drill%%:*}"; rest="${drill#*:}"
  shards="${rest%%:*}"; bench_jobs="${rest##*:}"
  dir="${scratch}/scale_${name}"
  mkdir -p "${dir}"

  status=0
  (cd "${dir}" &&
   env "${scale_env[@]}" ELSC_SCALE_SHARDS="${shards}" \
   ELSC_BENCH_JOBS="${bench_jobs}" \
   ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 ELSC_SCALE_INJECT_KILL=3 \
   ../../bench/scale_sweep >stdout_kill.log 2>stderr_kill.log) || status=$?
  if [[ "${status}" -ne 137 ]]; then
    echo "FAIL: ${name}: kill run exited ${status}, want 137 (injected kill)"
    exit 1
  fi
  if ! ls "${dir}"/ck.*.ckpt >/dev/null 2>&1; then
    echo "FAIL: ${name}: no checkpoint segment on disk after the kill"
    exit 1
  fi

  (cd "${dir}" &&
   env "${scale_env[@]}" ELSC_SCALE_SHARDS="${shards}" \
   ELSC_BENCH_JOBS="${bench_jobs}" \
   ELSC_SCALE_CKPT=ck ELSC_SCALE_CKPT_EVERY=2 \
   ../../bench/scale_sweep >stdout_resume.log 2>stderr_resume.log)
  if ! grep -q "elsc-scale: resumed from" "${dir}/stderr_resume.log"; then
    echo "FAIL: ${name}: resume run never restored a segment"
    exit 1
  fi
  if ! cmp -s "${dir}/BENCH_scale.json" "${scratch}/scale_control/BENCH_scale.json"; then
    echo "FAIL: ${name}: resumed BENCH_scale.json differs from the control"
    exit 1
  fi
  if ls "${dir}"/ck.*.ckpt >/dev/null 2>&1; then
    echo "FAIL: ${name}: segments survived a clean completion"
    exit 1
  fi
  echo "  ${name}: killed at window 3, resumed, JSON byte-identical, segments cleaned"
done

echo "supervised gate: green"
