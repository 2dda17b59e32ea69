#!/usr/bin/env bash
# Pre-merge gate: tier-1 tests, the asan smoke subset, the anytime
# fault matrix, the tsan smoke subset (tracer/metrics buffers must be
# race-free), the stress-labelled concurrent service suites under
# tsan, the whole suite under ubsan, the tracing-overhead benchmark,
# the one-thread pipeline suites and the end-to-end benchmark's smoke
# test. Run from the repo root:
#
#   scripts/check.sh            # every stage
#   scripts/check.sh tier1      # just the default-preset test suite
#   scripts/check.sh asan       # just the asan smoke subset
#   scripts/check.sh faults     # just the faults-labelled tests (asan)
#   scripts/check.sh tsan       # just the tsan smoke subset
#   scripts/check.sh ubsan      # the whole suite under ubsan
#   scripts/check.sh stress     # concurrent service suites under tsan
#   scripts/check.sh trace      # just bench_trace (BENCH_trace.json)
#   scripts/check.sh shard      # bench_shard (BENCH_shard.json)
#   scripts/check.sh threads    # the golden transcript and answers,
#                               # the pipeline, equivalence,
#                               # shard-equivalence and anytime suites
#                               # with DBWIPES_THREADS=1 (no pool
#                               # workers)
#   scripts/check.sh simd       # clause-kernel, conjunction,
#                               # executor-oracle, cleaning-law and
#                               # learner-oracle (k-means, trees,
#                               # subgroups) tests and the golden
#                               # answers at the forced scalar tier
#                               # under asan
#   scripts/check.sh crash      # kill-point crash-recovery matrix under
#                               # asan AND tsan (DBWIPES_CRASH_RUNS=200+)
#   scripts/check.sh wal        # bench_wal (BENCH_wal.json)
#   scripts/check.sh obs        # telemetry suite under tsan +
#                               # bench_obs (BENCH_obs.json)
#   scripts/check.sh repl       # replication suite + failover kill
#                               # matrix under asan AND tsan, then
#                               # bench_repl (BENCH_repl.json)
#   scripts/check.sh perf       # perfbench smoke test: every workload
#                               # on tiny inputs, untraced and traced
#
# Each stage configures/builds its preset only when needed, so repeat
# runs are incremental.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

tier1() {
  echo "=== tier-1: default preset, full test suite ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs"
  ctest --preset default -j "$jobs"
}

asan_smoke() {
  echo "=== asan: smoke-labelled subset ==="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan-smoke -j "$jobs"
}

faults() {
  echo "=== faults: anytime/fault-injection matrix (asan) ==="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan-faults -j "$jobs"
}

tsan_smoke() {
  echo "=== tsan: smoke-labelled subset (tracer/metrics concurrency) ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan-smoke -j "$jobs"
}

stress() {
  echo "=== stress: concurrent service suites (tsan) ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan-stress -j "$jobs"
}

ubsan() {
  echo "=== ubsan: full test suite (undefined behaviour halts) ==="
  cmake --preset ubsan >/dev/null
  cmake --build --preset ubsan -j "$jobs"
  ctest --preset ubsan -j "$jobs"
}

trace_bench() {
  echo "=== trace: observability overhead benchmark ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target bench_trace
  (cd build && ./bench/bench_trace --benchmark_min_time=0.05)
  echo "wrote build/BENCH_trace.json"
}

shard_bench() {
  echo "=== shard: streaming append + re-rank throughput benchmark ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target bench_shard
  (cd build/bench && ./bench_shard --benchmark_min_time=0.05)
  echo "wrote build/bench/BENCH_shard.json"
}

threads() {
  echo "=== threads: goldens and pipeline laws with one thread ==="
  # The same answers with no pool worker: the Dataset Enumerator then
  # cleans D' and searches for subgroups inline, in that order, where
  # the default run searches beside the clean on a worker. The golden
  # transcript and the golden FEC and Intel answers pin the answers at
  # both thread counts, and the sharded explains and block cuts must
  # stay bit-identical without workers.
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target service_protocol_test \
      answer_golden_test pipeline_test equivalence_test \
      shard_equivalence_test anytime_test
  DBWIPES_THREADS=1 ./build/tests/service_protocol_test
  DBWIPES_THREADS=1 ./build/tests/answer_golden_test
  DBWIPES_THREADS=1 ./build/tests/pipeline_test
  DBWIPES_THREADS=1 ./build/tests/equivalence_test
  DBWIPES_THREADS=1 ./build/tests/shard_equivalence_test
  DBWIPES_THREADS=1 ./build/tests/anytime_test
}

simd() {
  echo "=== simd: scalar-tier kernel suites (asan) ==="
  # The equivalence suites again, with the SIMD dispatcher pinned to the
  # portable tier, under asan: scalar and vector bodies must be
  # bit-identical and memory-clean, for the clause bitmaps checked
  # against the boxed oracles (literals of the other type included, so
  # the NaN-comparison constant runs too), for the conjunctions ANDed
  # from them, for the executor's WHERE bitmaps checked against the
  # row-at-a-time reference executor, for the cleaning laws (rewrite
  # and IncrementalClean against deletion and re-execution), and for
  # the learners checked against their reference implementations:
  # k-means (the Lloyd assignment and the silhouettes' sqrt bodies),
  # decision trees, and subgroup discovery, whose WRAcc sums take the
  # row loop at this tier (the bit-plane scorer is AVX2-only, so tier-1
  # checks it at the host tier). The golden FEC and Intel answers must
  # come out the same at this tier too.
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs" --target fused_kernels_test \
      match_kernels_test executor_test equivalence_test kmeans_oracle_test \
      tree_oracle_test subgroup_test answer_golden_test
  DBWIPES_SIMD=off ./build-asan/tests/fused_kernels_test
  DBWIPES_SIMD=off ./build-asan/tests/match_kernels_test
  DBWIPES_SIMD=off ./build-asan/tests/executor_test
  DBWIPES_SIMD=off ./build-asan/tests/equivalence_test \
      --gtest_filter='*PredicatePathEquivalence*:*IncrementalCleanLaw*:*CleaningRewriteLaw*'
  DBWIPES_SIMD=off ./build-asan/tests/kmeans_oracle_test
  DBWIPES_SIMD=off ./build-asan/tests/tree_oracle_test
  DBWIPES_SIMD=off ./build-asan/tests/subgroup_test
  DBWIPES_SIMD=off ./build-asan/tests/answer_golden_test
}

crash() {
  echo "=== crash: randomized kill-point recovery matrix (asan + tsan) ==="
  # >=200 fork/kill points across the I/O fault sites; every run must
  # recover exactly the acknowledged prefix. asan proves the recovery
  # scan stays in bounds; tsan proves the group-commit handoff is
  # race-free while crashes land mid-batch.
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs"
  DBWIPES_CRASH_RUNS=210 ctest --preset asan-crash -j "$jobs"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"
  DBWIPES_CRASH_RUNS=210 ctest --preset tsan-crash -j "$jobs"
}

wal_bench() {
  echo "=== wal: durability overhead benchmark ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target bench_wal
  (cd build/bench && ./bench_wal --benchmark_min_time=0.05)
  echo "wrote build/bench/BENCH_wal.json"
}

obs() {
  echo "=== obs: request-telemetry suite (tsan) + overhead benchmark ==="
  # Concurrent scrape + explain + append must be race-free: the whole
  # telemetry suite (rid plumbing, history ring, watchdog, torn-read
  # regression) under tsan.
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs" --target telemetry_test
  DBWIPES_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
      ./build-tsan/tests/telemetry_test
  # Overhead budget: sampler+watchdog+slow-log must stay within 3% of
  # the telemetry-off service throughput; 10 Hz scrape cost + history
  # memory ceiling ride along in BENCH_obs.json.
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target bench_obs
  (cd build/bench && ./bench_obs)
  echo "wrote build/bench/BENCH_obs.json"
}

repl() {
  echo "=== repl: replication suite + failover matrix (asan + tsan) ==="
  # The full replication suite (protocol, streaming, snapshot catch-up,
  # promote/fencing, repl/* fault sites) plus >=100 randomized
  # primary-kill points, each proving the promoted follower serves an
  # exact acknowledged prefix. asan bounds the frame codecs; tsan
  # proves the apply path is race-free against reads and heartbeats.
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs" --target replication_test \
      replication_failover_test
  ./build-asan/tests/replication_test
  DBWIPES_FAILOVER_RUNS=108 ./build-asan/tests/replication_failover_test
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs" --target replication_test \
      replication_failover_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/replication_test
  DBWIPES_FAILOVER_RUNS=60 TSAN_OPTIONS=halt_on_error=1 \
      ./build-tsan/tests/replication_failover_test
  # Steady-state streaming overhead vs the WAL alone (<= 1.5x), follower
  # lag at a fixed offered rate, and promote-to-first-read failover time.
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$jobs" --target bench_repl
  (cd build/bench && ./bench_repl)
  echo "wrote build/bench/BENCH_repl.json"
}

perf_smoke() {
  echo "=== perf: end-to-end benchmark smoke test (perfbench) ==="
  # Every workload on tiny inputs, untraced and then traced with the
  # layer-replay oracle; each run must be correct with no failed op.
  # Builds perfbench (Release) into .bench_build/ on first use.
  python3 perfbench/test_smoke.py
}

case "${1:-all}" in
  tier1)  tier1 ;;
  asan)   asan_smoke ;;
  faults) faults ;;
  tsan)   tsan_smoke ;;
  stress) stress ;;
  ubsan)  ubsan ;;
  trace)  trace_bench ;;
  shard)  shard_bench ;;
  threads) threads ;;
  simd)   simd ;;
  crash)  crash ;;
  wal)    wal_bench ;;
  obs)    obs ;;
  repl)   repl ;;
  perf)   perf_smoke ;;
  all)    tier1; asan_smoke; faults; tsan_smoke; stress; ubsan; trace_bench; shard_bench; threads; simd; crash; wal_bench; obs; repl; perf_smoke ;;
  *) echo "usage: $0 [tier1|asan|faults|tsan|stress|ubsan|trace|shard|threads|simd|crash|wal|obs|repl|perf|all]" >&2; exit 2 ;;
esac
echo "=== check.sh: all requested stages passed ==="
