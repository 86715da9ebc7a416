#!/usr/bin/env bash
# Tier-1 CI: plain build + full ctest, a -Werror optimized build, bench smokes (data-plane fan-out,
# the control-plane dispatch + MT producer curve, and the sharded scale-out
# throughput floor), the perfbench self-test and one short correct run of
# each perfbench workload, a chaos property sweep and a failover kill-campaign
# sweep under fresh random seeds (every failover seed runs twice: plain, and
# with send_window + DATABATCH coalescing, which the promoted primary's
# adopted stream honours too), then sanitizer passes: one configurable pass over
# the control-plane/core suites (the indexed dispatch / batched ack hot path,
# its re-entrant callback surface, and the lock-free pipeline's MT suite)
# plus ASan, TSan, and UBSan passes over the fault-handling suites
# (recovery_test + chaos_test + failover_test — the crash-restart / RESUME
# machinery and the primary-failover election/fencing path, with
# pipeline-enabled campaigns — plus net_test, the TCP transport's IO thread
# and its hostile-frame cases; ASan and UBSan also run alloc_test). The TSan
# leg additionally runs core_mt_test and failover-adjacent MT suites
# unconditionally.
#
# Usage: scripts/ci.sh [extra cmake args...]
# Env:   STAB_CI_SANITIZER=address|thread|undefined  (default: address)
#        STAB_CI_SKIP_SANITIZER=1                    skip all sanitized passes
#        STAB_CI_CHAOS_SEEDS=N                       random seeds (default: 8)
#        STAB_CI_FAILOVER_SEEDS=N                    random seeds (default: 3)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SAN="${STAB_CI_SANITIZER:-address}"

echo "==> docs link check"
"$ROOT/scripts/check_docs_links.sh"

echo "==> metric-name docs check"
# Every complete-literal counter/gauge/histogram name registered in src/
# must appear in docs/OBSERVABILITY.md's catalog.
"$ROOT/scripts/check_metrics_docs.sh"

echo "==> tier-1: configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" "$@"
cmake --build "$ROOT/build" -j

echo "==> tier-1: ctest"
ctest --test-dir "$ROOT/build" --output-on-failure

echo "==> -Werror: optimized build of every target (build-werror/)"
# Any warning fails this leg. -O3 also brings in the optimizer-driven
# diagnostics (-Wrestrict, -Wmaybe-uninitialized, ...) that -O2 may miss.
cmake -B "$ROOT/build-werror" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror "$@"
cmake --build "$ROOT/build-werror" -j

echo "==> data-plane hot path bench (smoke)"
# Runs in build/ so the smoke JSON does not clobber the committed full-mode
# BENCH_data_hotpath.json at the repo root.
(cd "$ROOT/build" && bench/bench_data_hotpath --smoke)

echo "==> control-plane hot path bench (smoke: dispatch + MT producer curve)"
# Same convention: the committed BENCH_control_mt.json at the repo root is
# full-mode only; the smoke pass exercises the digest-equality assertions
# (indexed-vs-legacy, pipelined-vs-locked) without enforcing timing floors.
(cd "$ROOT/build" && bench/bench_control_hotpath --smoke)

echo "==> shard scale-out bench (smoke: 1 vs 2 shards, >=1.5x floor)"
# The committed BENCH_shard_scaling.json at the repo root is full-mode only
# (1/2/4/8 shards, >=3x floor at 4); the smoke pass runs the same end-to-end
# coalesced-path workload at 1 and 2 shards and exits nonzero below 1.5x.
(cd "$ROOT/build" && bench/bench_shard_scaling --smoke)

echo "==> stability propagation bench (smoke: 16-node fleet, >=5x bytes floor)"
# The committed BENCH_stability_propagation.json at the repo root is
# full-mode only (64 nodes, >=10x floor); the smoke pass runs the same
# immediate/deferred/deferred+agg comparison on a 4x4 fleet and exits
# nonzero below 5x bytes reduction or above the p99 frontier-lag bound.
(cd "$ROOT/build" && bench/bench_stability_propagation --smoke)

echo "==> perfbench: self-test + one short run of each workload"
# The benchmark's own tests, then a 3 s run of each workload. Each run's
# last line must report "correct": true and "failed": 0: on tcp_bulk that is
# the real-socket oracle (per-origin FIFO, no duplicate, no gap, every
# payload byte, every waitfor fired), on geo_sim the replay-digest check.
(cd "$ROOT" && python3 perfbench/run.py --selftest)
PB_SEED=$(( RANDOM + 1 ))
for WL in geo_sim tcp_bulk; do
  echo "    perfbench $WL --seed $PB_SEED --seconds 3"
  PB_LAST="$(cd "$ROOT" && python3 perfbench/run.py --workload "$WL" \
    --seed "$PB_SEED" --seconds 3 --trace 0 | tail -n1)"
  if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
      "$PB_LAST"; then
    echo "==> perfbench $WL run is not correct: $PB_LAST"
    exit 1
  fi
done

echo "==> metrics endpoint smoke (live TCP cluster + 2 scrapes mid-traffic)"
# Stand up the 3-node loopback demo with a kernel-assigned port, scrape the
# Prometheus view twice while traffic is flowing (asserting well-formed
# exposition and monotone counters between scrapes), then require the demo
# itself to exit 0 — i.e. the scraped cluster still reached "everywhere"
# stability.
EXPORT_LOG="$(mktemp)"
# Randomized cluster base port (the scrape port itself is always
# kernel-assigned and read back from METRICS_PORT).
BASE_PORT=$(( 24000 + RANDOM % 20000 ))
"$ROOT/build/examples/metrics_export" "$BASE_PORT" 6 >"$EXPORT_LOG" 2>&1 &
EXPORT_PID=$!
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^METRICS_PORT=//p' "$EXPORT_LOG" | head -n1)"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "==> metrics_export never printed METRICS_PORT"
  cat "$EXPORT_LOG"; kill "$EXPORT_PID" 2>/dev/null || true
  rm -f "$EXPORT_LOG"; exit 1
fi
SCRAPE1="$("$ROOT/build/tools/stab_metrics_scrape" --retries 20 "$PORT")"
sleep 1
SCRAPE2="$("$ROOT/build/tools/stab_metrics_scrape" --retries 20 "$PORT")"
"$ROOT/build/tools/stab_metrics_scrape" --retries 20 --jsonl "$PORT" \
  | grep -q '"type":"windowed_histogram"' \
  || { echo "==> JSONL scrape missing windowed histograms"; exit 1; }
for S in "$SCRAPE1" "$SCRAPE2"; do
  grep -q '^# TYPE stab_' <<<"$S" \
    || { echo "==> scrape is not Prometheus exposition"; exit 1; }
  grep -q '^stab_node0_core_messages_sent ' <<<"$S" \
    || { echo "==> scrape missing node counters"; exit 1; }
done
SENT1="$(sed -n 's/^stab_node0_core_messages_sent \([0-9]*\)$/\1/p' <<<"$SCRAPE1")"
SENT2="$(sed -n 's/^stab_node0_core_messages_sent \([0-9]*\)$/\1/p' <<<"$SCRAPE2")"
if (( SENT2 < SENT1 )) || (( SENT2 == 0 )); then
  echo "==> counters not monotone across scrapes ($SENT1 -> $SENT2)"; exit 1
fi
if ! wait "$EXPORT_PID"; then
  echo "==> metrics_export exited nonzero (cluster failed to stabilize)"
  cat "$EXPORT_LOG"; rm -f "$EXPORT_LOG"; exit 1
fi
rm -f "$EXPORT_LOG"
echo "    scraped mid-traffic: messages_sent $SENT1 -> $SENT2, demo exit 0"

# Compiled-out flavor: the obs macros must vanish cleanly — build the core
# with -DSTAB_OBS=OFF and run the suites that pin the disabled contract
# (obs_disabled_test) and the widest consumer of registry-backed stats
# (core_test, whose stats assertions are flavor-gated).
echo "==> STAB_OBS=OFF flavor: configure + build (build-noobs/)"
cmake -B "$ROOT/build-noobs" -S "$ROOT" -DSTAB_OBS=OFF "$@"
cmake --build "$ROOT/build-noobs" -j --target obs_disabled_test core_test
echo "==> STAB_OBS=OFF flavor: obs_disabled_test + core_test"
"$ROOT/build-noobs/tests/obs_disabled_test"
"$ROOT/build-noobs/tests/core_test"

NUM_SEEDS="${STAB_CI_CHAOS_SEEDS:-8}"
SEEDS=""
for ((i = 0; i < NUM_SEEDS; ++i)); do
  SEEDS+="${SEEDS:+,}$(( (RANDOM * 32768 + RANDOM) * 32768 + RANDOM + 1 ))"
done
echo "==> chaos property sweep: STAB_CHAOS_SEEDS=$SEEDS"
CHAOS_LOG="$(mktemp)"
if ! STAB_CHAOS_SEEDS="$SEEDS" "$ROOT/build/tests/chaos_test" \
    --gtest_filter='ChaosProperty.*' 2>&1 | tee "$CHAOS_LOG"; then
  echo "==> chaos sweep FAILED"
  grep "CHAOS REPLAY SEED" "$CHAOS_LOG" || true
  rm -f "$CHAOS_LOG"
  exit 1
fi
# A replay-seed marker means a campaign failed even if the process managed
# to exit zero: fail the script on any occurrence.
if grep -q "CHAOS REPLAY SEED" "$CHAOS_LOG"; then
  echo "==> chaos sweep printed a replay seed; failing"
  rm -f "$CHAOS_LOG"
  exit 1
fi
rm -f "$CHAOS_LOG"

# Same workflow for the primary-failover kill campaigns: fresh random seeds
# every run, each seed plain and windowed + coalesced, replay any failure
# with STAB_FAILOVER_SEEDS=<seed>.
NUM_FSEEDS="${STAB_CI_FAILOVER_SEEDS:-3}"
FSEEDS=""
for ((i = 0; i < NUM_FSEEDS; ++i)); do
  FSEEDS+="${FSEEDS:+,}$(( (RANDOM * 32768 + RANDOM) * 32768 + RANDOM + 1 ))"
done
echo "==> failover kill-campaign sweep: STAB_FAILOVER_SEEDS=$FSEEDS"
FAILOVER_LOG="$(mktemp)"
if ! STAB_FAILOVER_SEEDS="$FSEEDS" "$ROOT/build/tests/failover_test" \
    --gtest_filter='FailoverProperty.*' 2>&1 | tee "$FAILOVER_LOG"; then
  echo "==> failover sweep FAILED"
  grep "FAILOVER REPLAY SEED" "$FAILOVER_LOG" || true
  rm -f "$FAILOVER_LOG"
  exit 1
fi
if grep -q "FAILOVER REPLAY SEED" "$FAILOVER_LOG"; then
  echo "==> failover sweep printed a replay seed; failing"
  rm -f "$FAILOVER_LOG"
  exit 1
fi
rm -f "$FAILOVER_LOG"

if [[ "${STAB_CI_SKIP_SANITIZER:-0}" == "1" ]]; then
  echo "==> sanitizer passes skipped (STAB_CI_SKIP_SANITIZER=1)"
  exit 0
fi

SAN_DIR="$ROOT/build-$SAN"
echo "==> $SAN sanitizer: configure + build (build-$SAN/)"
cmake -B "$SAN_DIR" -S "$ROOT" -DSTAB_SANITIZE="$SAN" "$@"
cmake --build "$SAN_DIR" -j \
  --target control_test core_test core_mt_test obs_test shard_test

echo "==> $SAN sanitizer: control_test + core_test + core_mt_test" \
     "+ obs_test + shard_test"
"$SAN_DIR/tests/control_test"
"$SAN_DIR/tests/core_test"
"$SAN_DIR/tests/core_mt_test"
"$SAN_DIR/tests/obs_test"
"$SAN_DIR/tests/shard_test"

# Fault-handling suites under the full sanitizer matrix — ASan, TSan, and
# UBSan as real legs: the crash-restart path destroys and rebuilds
# Stabilizers mid-simulation (lifetime hazards), the TCP reconnect path
# crosses the IO thread (ordering hazards), and the failover codecs +
# epoch/cursor arithmetic exercise shifts, casts, and enum round-trips on
# hostile inputs (UB hazards). net_test runs in all three: its hostile
# frame prefixes (a body_len below the header, one near 2^32) are the
# out-of-bounds reads and wrapped arithmetic that ASan and UBSan catch, and
# under TSan it guards the shared-frame lifetime across the IO thread and
# the wake-on-transition handoff (its concurrent-sender stress test).
for FSAN in address thread undefined; do
  FSAN_DIR="$ROOT/build-$FSAN"
  echo "==> $FSAN sanitizer: recovery_test + chaos_test + failover_test" \
       "+ net_test (build-$FSAN/)"
  cmake -B "$FSAN_DIR" -S "$ROOT" -DSTAB_SANITIZE="$FSAN" "$@"
  cmake --build "$FSAN_DIR" -j \
    --target recovery_test chaos_test failover_test net_test
  "$FSAN_DIR/tests/recovery_test"
  "$FSAN_DIR/tests/chaos_test"
  "$FSAN_DIR/tests/failover_test"
  "$FSAN_DIR/tests/net_test"
  if [[ "$FSAN" != "thread" ]]; then
    # The allocation guard's counting operator new composes with ASan and
    # UBSan; its hot paths (the send buffer's chunk ring, DATABATCH entry
    # reuse, the TCP inbox and buffer pools) run here under both.
    echo "==> $FSAN sanitizer: alloc_test"
    cmake --build "$FSAN_DIR" -j --target alloc_test
    "$FSAN_DIR/tests/alloc_test"
  fi
  if [[ "$FSAN" == "thread" ]]; then
    # The refcounted fan-out hands one buffer to concurrent receiver threads
    # (InProc) and to the TCP IO thread via scatter-gather; net_test (run
    # above) guards the shared-frame lifetime and ordering. obs_test under
    # TSan guards the registry's relaxed-atomic counters and the tracer's
    # mutexed append (its multithreaded hammer tests). core_mt_test under
    # TSan guards the lock-free control-plane pipeline (SPSC rings, CAS-max
    # ack cells, epoch-snapshot frontier reads) under genuinely concurrent
    # facade use — it runs here unconditionally even when STAB_CI_SANITIZER
    # selects a different flavor for the configurable pass above. The
    # pipeline-enabled chaos campaign (ChaosCampaign.PipelinedAgreesWith-
    # LockedPostHeal + the odd sweep seeds) and the sharded campaigns
    # (ShardedChaos.*: per-shard failover domains + per-shard pipelined-vs-
    # locked digest equality, DESIGN.md §9) already ran as part of
    # chaos_test just above.
    echo "==> $FSAN sanitizer: obs_test + core_mt_test (pipeline)"
    cmake --build "$FSAN_DIR" -j --target obs_test core_mt_test
    "$FSAN_DIR/tests/obs_test"
    "$FSAN_DIR/tests/core_mt_test"
  fi
done

echo "==> CI OK"
