#!/usr/bin/env sh
# Local CI chain for nemtcam. Run from the repo root:
#
#   tools/ci.sh
#
# Stages:
#   1. release build (preset `release`) + full ctest
#   2. ASan/UBSan build (preset `asan`) + the `robustness`, `hier`,
#      `golden`, `array`, `lifetime`, `sta` and `solver` test labels
#      (elaboration, the recorded transaction goldens, BBD solver, threaded
#      Schur accumulation, multi-rate engine, static analysis, and the
#      bound stamps that write through recorded slot indices, under the
#      sanitizers)
#   3. TSan build (preset `tsan`) + the `array` and `solver` labels: the
#      threaded Schur accumulation, the split device stamping and gather
#      of a pooled circuit's replay passes, and its parallel accepted-step
#      hooks are the solver's concurrency, so those labels are the race
#      surface
#   4. repeat stage: the thread pool, sweep fan-out, per-thread EKV memo,
#      array thread-count and pool-size determinism and split-replay
#      shape-change tests run until they fail, up to 50 times each, on the
#      release build (preset `repeat`) and under TSan (preset
#      `repeat-tsan`), so an intermittent race fails CI instead of passing
#      most runs
#   5. lint build (preset `lint`): -Wall -Wextra -Wshadow -Werror, plus
#      clang-tidy when installed (the CMake option degrades gracefully)
#   6. static ERC + STA margin rules over the shipped example decks
#      (including the hierarchical .subckt deck) via
#      nemtcam_lint --sta --werror
#   7. bench smokes: the CI-sized datacenter-lifetime sweep
#      (bench_lifetime --smoke) and the STA bracketing/speedup gate
#      (bench_sta --smoke) must complete with their internal gates green
#
# Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")/.."

echo "==== [1/7] release build + tests ===="
cmake --preset release
cmake --build --preset release -j
ctest --preset all -j

echo "==== [2/7] asan build + robustness/hier/golden/array/lifetime/sta/solver labels ===="
cmake --preset asan
cmake --build --preset asan -j
ctest --preset robustness-asan -j
ctest --preset hier-asan -j
ctest --preset golden-asan -j
ctest --preset array-asan -j
ctest --preset lifetime-asan -j
ctest --preset sta-asan -j
ctest --preset solver-asan -j

echo "==== [3/7] tsan build + array/solver labels ===="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset array-tsan -j
ctest --preset solver-tsan -j

echo "==== [4/7] threaded-determinism tests, until-fail x50 (release + tsan) ===="
ctest --preset repeat -j
ctest --preset repeat-tsan -j

echo "==== [5/7] lint build (-Werror, clang-tidy if installed) ===="
cmake --preset lint
cmake --build --preset lint -j

echo "==== [6/7] ERC + STA margins over example decks (warnings are errors) ===="
build/tools/nemtcam_lint --sta --werror examples/decks/*.sp

echo "==== [7/7] bench smokes (lifetime sweep, STA gate) ===="
(cd build/bench && ./bench_lifetime --smoke)
(cd build/bench && ./bench_sta --smoke)

echo "==== ci.sh: all stages passed ===="
