#!/usr/bin/env bash
# Determinism gate: every seeded bench must print the same output twice.
# Builds the default preset, runs each bench binary twice, each run in
# its own scratch directory, and diffs the two outputs after masking the
# known wall-clock fields listed below. With `--against DIR`, it also
# runs DIR's build of each bench (for example a built checkout of the
# parent commit) and diffs against that, to show that a change left
# seeded results byte-identical. Exits non-zero if any output differs.
#
# Usage, from the repository root:
#   scripts/check_determinism.sh [--against OTHER_BUILD_DIR] [BENCH...]
# With no BENCH names it runs every binary in build/bench except
# micro_perf, which is a wall-clock benchmark.
#
# Masked before diffing, because they are wall clock by design:
#   - every line containing "measured" (disc_fault_recovery's checkpoint
#     write/restore timings, FleetResult's measured_* metrics), and
#     disc_fault_recovery's "shrink-only time-to-target" line, whose
#     totals include those measured seconds;
#   - disc_scaling's plan-seconds, events/sec and peak-RSS columns;
#   - chaos_fuzz's scenarios/sec and its per-process temp directory
#     names (cannikin-chaos-<pid>-<seed>);
#   - the time coordinate (x=) of fig07_convergence_process's curves:
#     experiments::run_to_target (src/experiments/harness.cc) adds the
#     measured planning seconds to the virtual clock. On an idle machine
#     that moves the last printed digit; under load it moves more.
set -euo pipefail
cd "$(dirname "$0")/.."

against=""
if [[ "${1:-}" == "--against" ]]; then
  against="$(realpath "$2")"
  shift 2
fi

cmake --preset default
cmake --build --preset default -j "$(nproc)"

benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  for bin in build/bench/*; do
    name="$(basename "$bin")"
    if [[ -f "$bin" && -x "$bin" && "$name" != micro_perf ]]; then
      benches+=("$name")
    fi
  done
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mask() {  # mask <bench name>: stdin -> stdout
  case "$1" in
    disc_fault_recovery) sed '/^shrink-only time-to-target/d' ;;
    disc_scaling) awk '/^[0-9]+ /{print $1, $4, $5, $7; next} {print}' ;;
    chaos_fuzz) sed -E 's|[0-9.]+ scenarios/sec|N scenarios/sec|' ;;
    fig07_convergence_process) sed -E 's/x=[0-9.e+-]+/x=T/' ;;
    *) cat ;;
  esac | sed -E -e '/measured/d' -e 's/cannikin-chaos-[0-9]+-/cannikin-chaos-PID-/g'
}

run_bench() {  # run_bench <binary> <masked output file>
  local dir status=0
  dir="$(mktemp -d -p "$work")"
  (cd "$dir" && "$1" > out.txt 2>&1) || status=$?
  echo "exit status ${status}" >> "$dir/out.txt"
  mask "$(basename "$1")" < "$dir/out.txt" > "$2"
  rm -rf "$dir"
}

failed=()
for name in "${benches[@]}"; do
  out="$work/$name"
  run_bench "$PWD/build/bench/$name" "$out.1"
  run_bench "$PWD/build/bench/$name" "$out.2"
  if ! diff -u "$out.1" "$out.2" > "$out.diff"; then
    echo "DIFFERS between two runs: $name"
    head -n 20 "$out.diff"
    failed+=("$name")
    continue
  fi
  if [[ -n "$against" ]]; then
    run_bench "$against/bench/$name" "$out.ref"
    if ! diff -u "$out.ref" "$out.1" > "$out.diff"; then
      echo "DIFFERS from $against: $name"
      head -n 20 "$out.diff"
      failed+=("$name")
      continue
    fi
  fi
  echo "identical: $name"
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "determinism check failed: ${failed[*]}"
  exit 1
fi
echo "determinism check passed: ${#benches[@]} benches"
