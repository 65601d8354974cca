#!/usr/bin/env bash
# CI driver. Stages:
#
#   1. lint          tools/drn_lint.py (determinism + hygiene rules and the
#                    layer-boundary architecture rule, regex mode) plus the
#                    linter's own unit tests
#   2. AST lint      tools/drn_lint.py --mode ast, when the libclang python
#                    bindings import; skipped with a notice otherwise (the
#                    layer-boundary rule is include-textual, so both modes
#                    enforce it identically)
#   3. format        clang-format --dry-run over src/bench/tools/tests
#   4. build + test  default config
#   5. negative-compile  replay of the tests/static/ probes by name
#   6. bench smoke   interference-engine, dynamics and event-core ablations
#                    in --smoke mode; the JSON they emit is schema-checked
#                    when python3 is present
#   7. trialbench counters  trialbench/run.py --check-counters: every
#                    workload's per-layer work counts must equal the pinned
#                    ones (needs python3; built under build-ci/trialbench)
#   8. pinned output replay of the *_pinned ctests by name; each stdout
#                    must hash to its pinned md5:
#                    bench_tab_sec8_network_sim_pinned and
#                    bench_abl_multiuser_pinned (bench/CMakeLists.txt),
#                    drn_sim_beacon_churn_pinned (512 stations, beacons,
#                    churn, audited) and
#                    drn_sim_propagation_connected_pinned (dual-slope +
#                    shadowing, audited) (tools/CMakeLists.txt)
#   9. clang-tidy    over src/ and tools/ (needs stage 4's compile commands)
#  10. build + test  once per sanitizer config (default: tsan, then
#                    asan+ubsan)
#
# Every config runs test_dynamics_soak, the audited churn soak: about 1.5 s
# in the default config, 14 s under tsan and 8 s under asan+ubsan on a
# 4-vCPU x86-64 VM. The longest test there is test_routing (74 s and 31 s),
# whose all-pairs checks resume each routing tree hundreds of times.
#
# Stages 1, 4, 7, 8 and 9 fail the build on any finding. The others also fail on
# findings, but are skipped with a notice when the host lacks the tool
# (libclang / clang-format / clang-tidy — the baked toolchain is gcc-only);
# the configs are checked in so any host that has the tools enforces them.
#
#   tools/ci.sh                # everything
#   DRN_CI_SANITIZERS="thread" tools/ci.sh      # trim the matrix
#
# Each config builds into build-ci[-<sanitizer>] so a developer's ./build
# tree is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
sanitizers="${DRN_CI_SANITIZERS:-thread address,undefined}"

# Uninstrumented-libstdc++ false positives (see tools/tsan.supp).
export TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan.supp ${TSAN_OPTIONS:-}"

echo "==== stage: lint ===="
if command -v python3 >/dev/null 2>&1; then
  python3 tools/drn_lint.py --mode regex
  python3 tools/drn_lint_test.py
else
  echo "lint SKIPPED: no python3 on this host"
fi

echo "==== stage: lint (AST mode) ===="
if python3 -c "import clang.cindex" >/dev/null 2>&1; then
  python3 tools/drn_lint.py --mode ast
else
  echo "AST lint SKIPPED: libclang python bindings not available"
fi

echo "==== stage: format check ===="
if command -v clang-format >/dev/null 2>&1; then
  find src bench tools tests \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 clang-format --dry-run -Werror
else
  echo "format check SKIPPED: no clang-format on this host"
fi

run_config() {
  local dir="$1" sanitize="$2"
  echo "==== config: ${dir} (DRN_SANITIZE='${sanitize}') ===="
  cmake -B "${dir}" -S . -DDRN_SANITIZE="${sanitize}" -DDRN_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_config build-ci ""

echo "==== stage: negative-compile suite ===="
# The unit layer's "does not compile" contract (tests/static/): ill-formed
# probes must be rejected and the well-formed meta-probe accepted. These ran
# inside the full ctest pass above; replay them by name so a regression is
# impossible to miss in the log.
ctest --test-dir build-ci -R '^static_units_' --output-on-failure

echo "==== stage: bench smoke ===="
bench_json="build-ci/BENCH_interference.json"
./build-ci/bench/bench_abl_interference_engine --smoke --out "${bench_json}"
if command -v python3 >/dev/null 2>&1; then
  python3 - "${bench_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "drn-bench-interference-v1", doc.get("schema")
assert doc["smoke"] is True
runs = doc["runs"]
assert runs, "no benchmark runs recorded"
for run in runs:
    assert run["events"] >= doc["target_events"], run
    assert run["events_per_s"] > 0, run
    assert run["loop_events_per_s"] >= run["events_per_s"], run
engines = {run["engine"] for run in runs}
assert engines == {"compensated", "nearfar"}, engines
print(f"bench smoke OK: {len(runs)} runs, engines {sorted(engines)}")
PY
else
  echo "bench schema check SKIPPED: no python3 on this host"
fi

dyn_json="build-ci/BENCH_dynamics.json"
./build-ci/bench/bench_abl_dynamics --smoke --out "${dyn_json}"
if command -v python3 >/dev/null 2>&1; then
  python3 - "${dyn_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "drn-bench-dynamics-v1", doc.get("schema")
assert doc["smoke"] is True
assert len(doc["churn_rates_per_s"]) >= 3, doc["churn_rates_per_s"]
macs = set(doc["macs"])
assert "scheme" in macs and len(macs) >= 3, macs
points = doc["points"]
assert len(points) == len(doc["churn_rates_per_s"]) * len(doc["macs"]), points
for p in points:
    assert p["trials"] == doc["seeds"], p
    assert 0.0 <= p["delivery_ratio_mean"] <= 1.0, p
    assert p["station_joins"] <= p["station_leaves"], p
assert any(p["recoveries"] > 0 for p in points), "no recovery ever measured"
print(f"dynamics bench smoke OK: {len(points)} points, macs {sorted(macs)}")
PY
else
  echo "dynamics bench schema check SKIPPED: no python3 on this host"
fi

core_json="build-ci/BENCH_core.json"
./build-ci/bench/bench_abl_event_core --smoke --out "${core_json}"
if command -v python3 >/dev/null 2>&1; then
  python3 - "${core_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "drn-bench-core-v1", doc.get("schema")
assert doc["smoke"] is True
cells = doc["cells"]
assert cells, "no benchmark cells recorded"
# Full grid: every (stations, mac, churn) combination exactly once.
seen = {(c["stations"], c["mac"], c["churn"]) for c in cells}
assert len(seen) == len(cells), "duplicate cells"
stations = {c["stations"] for c in cells}
assert len(stations) >= 2, stations
assert {c["mac"] for c in cells} == {"scheme", "aloha"}
assert {c["churn"] for c in cells} == {False, True}
for c in cells:
    assert c["events_processed"] > 0, c
    assert c["events_per_s"] > 0, c
    assert c["peak_queue_bytes"] > 0, c
    assert c["wall_s"] > 0, c
print(f"event-core bench smoke OK: {len(cells)} cells, M in {sorted(stations)}")
PY
else
  echo "event-core bench schema check SKIPPED: no python3 on this host"
fi

echo "==== stage: trialbench counters ===="
if command -v python3 >/dev/null 2>&1; then
  CARGO_TARGET_DIR="$(pwd)/build-ci/trialbench" \
    python3 trialbench/run.py --check-counters
else
  echo "trialbench counters SKIPPED: no python3 on this host"
fi

echo "==== stage: pinned outputs ===="
# The Section 8 table is the reproduction's headline output. Changes that
# must not move any reported number keep it and the other pinned outputs
# byte-identical; one that moves a pin on purpose re-pins its md5 and says
# why. The ctests already ran in stage 4; replay them by name so a drift is
# reported under its own stage.
ctest --test-dir build-ci -R '_pinned$' --output-on-failure

echo "==== stage: clang-tidy ===="
if command -v clang-tidy >/dev/null 2>&1; then
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "${jobs}" -n 8 clang-tidy -p build-ci --quiet
else
  echo "clang-tidy SKIPPED: no clang-tidy on this host"
fi

for s in ${sanitizers}; do
  # "address,undefined" -> directory suffix "address-undefined"
  run_config "build-ci-${s//,/-}" "${s}"
done

echo "==== all stages passed ===="
