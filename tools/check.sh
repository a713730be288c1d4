#!/usr/bin/env bash
# Full verification matrix: configure + build + ctest for each CMake preset.
#
#   tools/check.sh                 # dev, release, asan, tsan, ubsan
#   tools/check.sh dev asan        # just those presets
#
# Presets map to build dirs (see CMakePresets.json): dev -> build/,
# release -> build-release/, asan -> build-asan/, tsan -> build-tsan/,
# ubsan -> build-ubsan/. Exits non-zero on the first failing step.
#
# The tsan preset builds everything but runs only the multithreaded
# surface (campaign runner + thread pool + allocator pins): the rest of
# the suite is single-threaded by construction and already covered by the
# other presets, so re-running all of it under ThreadSanitizer's ~10x
# slowdown buys nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(dev release asan tsan ubsan)
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===================================="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  if [ "${preset}" = "tsan" ]; then
    ctest --preset "${preset}" -j "${jobs}" \
      -R 'Campaign|ThreadPool|DeriveSeed|PropertySweep|CrashSweep|NetAlloc'
  else
    ctest --preset "${preset}" -j "${jobs}"
  fi
  # Bounded chaos smoke: a few hundred generated fault plans through the
  # full plan/inject/oracle pipeline, then 100 crash-heavy plans against
  # 64-member committees over the relay-tree overlay (relays crash and
  # restart mid-broadcast), then 200 crash-heavy plans with Paxos Commit
  # as the exit protocol (exit-assassin trigger included in the mix),
  # then 200 crash-heavy plans with coordination avoidance on (crashes
  # land mid-census, forcing the fast path's fallback/replay machinery),
  # then 1000 crash-heavy plans with avoidance over the relay tree (the one
  # path where a crash heals the tree, replays a suppressed raise and syncs
  # the survivors in one step).
  # Under asan these double as a memory audit of the crash/restart/
  # partition, tree-healing, paxos-recovery and census-fallback paths.
  # The dev preset also runs 20k mixed plans under Paxos Commit at seed
  # 42, whose trial 19548 once killed the process: a Done's recovery round
  # decided and closed the scope before the member's own vote went out.
  case "${preset}" in
    dev)
      "build/tools/caa-chaos" --plans 200 --threads "${jobs}"
      "build/tools/caa-chaos" --plans 100 --profile crash-heavy \
        --participants 64 --tree 8 --threads "${jobs}"
      "build/tools/caa-chaos" --plans 200 --profile crash-heavy \
        --exit paxos --threads "${jobs}"
      "build/tools/caa-chaos" --plans 200 --profile crash-heavy \
        --avoid --threads "${jobs}"
      "build/tools/caa-chaos" --plans 1000 --profile crash-heavy \
        --avoid --tree 4 --participants 8:24 --threads "${jobs}"
      "build/tools/caa-chaos" --plans 20000 --seed 42 --exit paxos \
        --threads "${jobs}"
      ;;
    asan)
      "build-asan/tools/caa-chaos" --plans 200 --threads "${jobs}"
      "build-asan/tools/caa-chaos" --plans 100 --profile crash-heavy \
        --participants 64 --tree 8 --threads "${jobs}"
      "build-asan/tools/caa-chaos" --plans 200 --profile crash-heavy \
        --exit paxos --threads "${jobs}"
      "build-asan/tools/caa-chaos" --plans 200 --profile crash-heavy \
        --avoid --threads "${jobs}"
      "build-asan/tools/caa-chaos" --plans 1000 --profile crash-heavy \
        --avoid --tree 4 --participants 8:24 --threads "${jobs}"
      ;;
  esac
  # Bounded systematic-exploration smoke: DPOR over the §4.3 scenarios at
  # N<=3 under BOTH exit protocols, the avoidance equality gate, and a
  # crash-point sweep. Exhaustive where the state space allows it, capped
  # (--max-schedules) where it does not — every explored schedule still
  # runs the full invariant oracle, and the exit/avoid gates require
  # identical resolved-checksum classes from both variants. Under asan
  # this doubles as a memory audit of replay-from-scratch backtracking.
  case "${preset}" in
    dev)     explore="build/tools/caa-explore" ;;
    asan)    explore="build-asan/tools/caa-explore" ;;
    *)       explore="" ;;
  esac
  if [ -n "${explore}" ]; then
    "${explore}" --scenario example1 --exit both --max-schedules 20000 \
      --threads "${jobs}"
    "${explore}" --scenario flat --n 3 --raisers 2 --avoid-gate \
      --threads "${jobs}"
    "${explore}" --scenario nested --n 3 --depth 1 --threads "${jobs}"
    "${explore}" --scenario figure4 --max-schedules 5000 --threads "${jobs}"
    "${explore}" --scenario crash --n 3 --raisers 2 --committee 2 \
      --victims 2 --max-crashes 1 --threads "${jobs}"
  fi
done

# The exit seam must stay sealed: Participant may only reach exit machinery
# through the ExitProtocol interface. If barrier internals (the done
# barrier map, the pending Done, the leader decide loop) regrow inside
# src/caa/participant.*, the seam has been bypassed.
echo "==== exit-seam grep gate ==================================="
if grep -nE 'last_done_|barrier_\[|maybe_decide|on_done\b' \
    src/caa/participant.h src/caa/participant.cpp; then
  echo "exit barrier internals leaked back into src/caa/participant.*" >&2
  echo "(route them through src/exit/ — see exit/exit_protocol.h)" >&2
  exit 1
fi
echo "participant is clean of barrier internals"

# Same discipline for coordination avoidance: commutativity classification
# (the universal-cover lattice walk, the census ledger, the fallback fold)
# belongs to src/resolve/avoidance.*; Participant only routes kFastCover
# bytes and answers through the AvoidanceCoordinator interface.
echo "==== avoidance-seam grep gate =============================="
if grep -nE 'universal_cover|census_record|fall_back_census|replay_suppressed|join_hits|join_misses' \
    src/caa/participant.h src/caa/participant.cpp; then
  echo "avoidance classification leaked into src/caa/participant.*" >&2
  echo "(keep it behind resolve::AvoidanceCoordinator — see src/resolve/avoidance.h)" >&2
  exit 1
fi
echo "participant is clean of avoidance classification internals"

# And for the systematic explorer: schedule choice is the explorer's job
# (src/explore/ driving the managed network), never the protocol's. If
# Participant starts poking the managed-delivery machinery or the explorer
# namespace, scheduling policy has leaked into protocol code and every
# exploration result becomes suspect.
echo "==== explorer-seam grep gate ==============================="
if grep -nE 'managed_deliver|managed_drop|managed_in_flight|set_managed|explore::' \
    src/caa/participant.h src/caa/participant.cpp; then
  echo "scheduler-choice logic leaked into src/caa/participant.*" >&2
  echo "(delivery choice belongs to src/explore/ over net::Network's managed mode)" >&2
  exit 1
fi
echo "participant is clean of scheduler-choice logic"

# One member list and one exclusion set per scope: the resolution engine,
# the relay-tree overlay and the relay tree read InstanceInfo::members and
# the participant's per-scope exclusion set by reference (rank and
# membership via rank_in in src/util/members.h). A by-value exclusion set,
# a member-list or live-layout copy, a private rank lookup or a crash path
# of the overlay's own regrowing in those files is a second copy of a fact
# that must live in one place (copies that disagreed once left survivors
# waiting for the ACK of a restarted peer). The participant records a crash
# in the set and tells the overlay through Disseminator::on_excluded.
echo "==== membership grep gate =================================="
if grep -nE 'std::set<ObjectId>[[:space:]]+[A-Za-z_]*(exclu|crash)|std::vector<ObjectId>[[:space:]]+[A-Za-z_]*(member|all_)[A-Za-z_]*[[:space:]]*[;,)={]|std::vector<ObjectId>[[:space:]]+live|on_peer_crashed|excluded_|rank_of|member_rank' \
    src/resolve/resolver_core.h src/resolve/resolver_core.cpp \
    src/overlay/disseminator.h src/overlay/disseminator.cpp \
    src/overlay/relay_tree.h src/overlay/relay_tree.cpp; then
  echo "a private member list, exclusion set or rank lookup is back" >&2
  echo "(read InstanceInfo::members and the scope's exclusion set; rank via rank_in;" >&2
  echo " crashes reach the overlay through Disseminator::on_excluded)" >&2
  exit 1
fi
echo "engine, overlay and relay tree read the shared membership"

# One crash path: a participant's crash knowledge (the peers it believes
# down, its per-scope exclusion sets, the first-contact, restart and
# stale-report rules) lives in caa::Membership (src/caa/membership.h), and
# World::crash is the one place a crash is fanned out to the survivors. A
# crash set or exclusion table back in Participant, or a second crash
# fan-out, is a second copy of that knowledge.
echo "==== one crash path grep gate =============================="
if grep -nwE 'crashed_|exclusions_|exclusions_of' \
    src/caa/participant.h src/caa/participant.cpp \
  || grep -rnE --exclude=check.sh 'crash_node' src tests tools examples bench; then
  echo "crash knowledge or a crash fan-out leaked out of its one place" >&2
  echo "(keep it in caa::Membership; crash nodes with World::crash)" >&2
  exit 1
fi
echo "crash knowledge lives in caa::Membership, crashes go through World::crash"

# One channel table: each node keeps its outgoing channels in one
# open-addressing row of the pairs in use (NodeState::channels in
# src/net/network.h), and link parameters, partitions and fault windows
# live in the LinkState side table. A dense [src][dst] table, or the bitset
# that marked its unused slots, sizes channel state by N² again.
echo "==== one channel table grep gate ==========================="
if grep -rnE 'channels_init_|std::vector<std::vector<ChannelState>>' src/net; then
  echo "a dense per-pair channel table is back in src/net" >&2
  echo "(keep channels in the per-node rows of the pairs in use)" >&2
  exit 1
fi
echo "channel state follows the pairs in use"

# One intake for scoped messages: Participant sorts every scoped message
# by one pure rule (action::classify, table-tested in caa_races_test),
# keeps what it cannot deliver yet in one hold map, and feeds the
# resolution engine through its one entry point, ResolverCore::on_message.
# A per-kind routing chain, a second buffer or a per-kind engine entry
# point is a second copy of that rule.
echo "==== one intake grep gate =================================="
if grep -nE 'route_resolution|on_fast_cover|on_exit_msg|drain_(future|pending)|buffer_belated|[^_a-z]pending_\b|std::vector<RawMsg>[[:space:]]+future' \
    src/caa/participant.h src/caa/participant.cpp \
  || grep -nE 'void on_(exception|have_nested|nested_completed|ack|commit)\(' \
    src/resolve/resolver_core.h; then
  echo "a second routing chain, hold buffer or engine entry point is back" >&2
  echo "(classify with action::classify, hold in Participant::held_, and" >&2
  echo " deliver through ResolverCore::on_message)" >&2
  exit 1
fi
echo "scoped messages take one intake"

# One record per entered scope: a participant's stack of nested exception
# contexts, SA_i of §4.1, is its stack of per-scope records
# (Participant::stack_, outermost first). A context stack kept beside it,
# or a second per-scope map of the same records, is a second copy of which
# scopes are entered and in what order.
echo "==== one record per scope grep gate ========================"
if grep -rnE --exclude=check.sh 'ContextStack|context_stack\.h|ex::Context\b' \
    src tools bench examples \
  || grep -nE 'contexts_|std::map<ActionInstanceId, *Dyn>' \
    src/caa/participant.h src/caa/participant.cpp; then
  echo "a second copy of the entered scopes is back" >&2
  echo "(SA_i is Participant::stack_; look scopes up with find_dyn)" >&2
  exit 1
fi
echo "each entered scope has one record"

# One resolution engine per scope: a participant builds a scope's
# resolve::ResolverCore once, at entry, and opens each later round in it
# (ResolverCore::next_round), as §4.2 keeps one LE_i, LO_i and LP_i per
# action and empties them at each commit. The engine also holds the
# CrashSync barrier's waiting set and the last commit it applied, and the
# avoidance coordinator reads and commits into it by reference. A per-round
# engine factory, a commit gate or either CrashSync fact kept beside the
# engine, or the coordinator's hooks back to it, is a second copy of the
# scope's resolution state.
echo "==== one engine per scope grep gate ========================"
if grep -nE 'make_engine|make_hooks|set_commit_gate|sync_waiting|last_commit|held_commit' \
    src/caa/participant.h src/caa/participant.cpp \
  || grep -nE 'set_commit_gate|commit_gated_' \
    src/resolve/resolver_core.h src/resolve/resolver_core.cpp \
  || grep -nE 'std::function<[^>]*> *(round|engine_normal|apply_fast_commit|apply_synced_commit);' \
    src/resolve/avoidance.h; then
  echo "a per-round engine or a copy of its state is back" >&2
  echo "(build the engine at entry, open rounds with ResolverCore::next_round," >&2
  echo " and keep the CrashSync facts in the engine)" >&2
  exit 1
fi
echo "each entered scope has one resolution engine"

# One protocol event stream: the flight recorder (src/obs/flight_recorder.h)
# records every protocol step as a typed record, and the §4.3 narrative
# tests, caa-inspect, caa-chaos --trace and the Chrome trace (spans paired
# from an observed world's records, obs/chrome_trace.h) all read it. A
# second, string-formatted narrative log, a span tracer, the hooks that fed
# them, the per-layer helpers that built detail strings for them or a
# string logger must not regrow.
echo "==== one protocol event stream grep gate ==================="
if grep -rnE --exclude=check.sh \
    'TraceLog|sim/trace\.h|trace_enabled|exit_trace|hooks_?\.trace\b|void trace\(std::string_view|obs::Tracer|tracer\(\)|SpanId|begin_async|set_track_name|obs/tracer\.h|Logger|CAA_LOG|util/log\.h' \
    src tools bench examples; then
  echo "a second protocol event stream is back" >&2
  echo "(record protocol steps in obs::FlightRecorder and render from it)" >&2
  exit 1
fi
echo "the flight recorder is the only protocol event stream"

# caa-inspect must keep decoding the committed dump format: render the
# golden .caafr and diff against the golden rendering the tests pin. Its
# --kind filter must accept every kind net::all_kinds() lists.
echo "==== caa-inspect golden decode ============================="
inspect=""
tooldir=""
for preset in "${presets[@]}"; do
  case "${preset}" in
    dev)     candidate="build/tools/caa-inspect" ;;
    release) candidate="build-release/tools/caa-inspect" ;;
    *)       continue ;;
  esac
  [ -x "${candidate}" ] && { inspect="${candidate}"; tooldir="$(dirname "${candidate}")"; }
done
if [ -n "${inspect}" ]; then
  "${inspect}" tests/golden/example1_recorder.caafr \
    | diff -u tests/golden/example1_inspect.txt - \
    || { echo "caa-inspect output drifted from tests/golden/example1_inspect.txt" >&2; exit 1; }
  echo "caa-inspect decode matches the golden"
  for kind in Relay PaxosVote; do
    "${inspect}" tests/golden/example1_recorder.caafr --kind "${kind}" \
      > /dev/null \
      || { echo "caa-inspect rejected --kind ${kind}" >&2; exit 1; }
  done
  echo "caa-inspect accepts --kind Relay and --kind PaxosVote"
else
  echo "skipped (no dev/release preset in this run)"
fi

# caa-report must keep rendering the committed telemetry format: the
# timeline of the golden export is byte-stable, and freshly regenerated
# BENCH_throughput.json, BENCH_chaos.json and BENCH_campaign.json must
# compare clean against the committed perf records — a checksum or flag
# that differs, or anything beyond 15% on a checked deterministic metric,
# fails. Each fresh run uses its record's own parameters (repetitions,
# plans, worlds, seed), so merged counts compare like with like; chaos
# merged checksums do not depend on the thread count. The compare must
# also reject a record whose checksum was altered. The recovery-strategies
# record is left out: it has no checksum leaf, and a run takes about 48 s.
echo "==== caa-report golden timeline + compare gate ============="
if [ -n "${tooldir}" ] && [ -x "${tooldir}/caa-report" ]; then
  "${tooldir}/caa-report" tests/golden/timeseries_flat.json \
    | diff -u tests/golden/timeseries_flat_timeline.txt - \
    || { echo "caa-report timeline drifted from tests/golden/timeseries_flat_timeline.txt" >&2; exit 1; }
  echo "caa-report timeline matches the golden"
  altered="$(mktemp /tmp/BENCH_altered.XXXXXX.json)"
  sed '0,/"checksum": "[0-9a-f]*"/s//"checksum": "0000000000000000"/' \
    BENCH_throughput.json > "${altered}"
  if "${tooldir}/caa-report" --compare BENCH_throughput.json "${altered}" \
      > /dev/null; then
    echo "caa-report --compare accepted an altered checksum" >&2
    rm -f "${altered}"
    exit 1
  fi
  rm -f "${altered}"
  echo "caa-report --compare rejects an altered checksum"
  bench_dir="${tooldir%/tools}"
  fresh_bench=""
  if [ -x "${bench_dir}/bench/bench_throughput" ]; then
    fresh_bench="$(mktemp /tmp/BENCH_throughput.XXXXXX.json)"
    reps="$(sed -n 's/^  "repetitions": \([0-9][0-9]*\),$/\1/p' \
      BENCH_throughput.json)"
    [ -n "${reps}" ] \
      || { echo "BENCH_throughput.json records no repetitions" >&2; exit 1; }
    "${bench_dir}/bench/bench_throughput" --reps "${reps}" \
      --json "${fresh_bench}" > /dev/null
    "${tooldir}/caa-report" --compare BENCH_throughput.json "${fresh_bench}" \
      || { echo "fresh bench drifted >15% from the committed BENCH_throughput.json" >&2; exit 1; }
    rm -f "${fresh_bench}"
    echo "fresh bench compares clean against the committed perf record"
  fi
  if [ -x "${bench_dir}/bench/bench_chaos" ]; then
    fresh_chaos="$(mktemp /tmp/BENCH_chaos.XXXXXX.json)"
    plans="$(sed -n 's/^  "plans_per_profile": \([0-9][0-9]*\),$/\1/p' \
      BENCH_chaos.json)"
    seed="$(sed -n 's/^  "seed": \([0-9][0-9]*\),$/\1/p' BENCH_chaos.json)"
    [ -n "${plans}" ] && [ -n "${seed}" ] \
      || { echo "BENCH_chaos.json records no plans_per_profile or seed" >&2; exit 1; }
    "${bench_dir}/bench/bench_chaos" --plans "${plans}" --seed "${seed}" \
      --threads "${jobs}" --json "${fresh_chaos}" > /dev/null
    "${tooldir}/caa-report" --compare BENCH_chaos.json "${fresh_chaos}" \
      || { echo "fresh chaos bench drifted from the committed BENCH_chaos.json" >&2; exit 1; }
    rm -f "${fresh_chaos}"
    echo "fresh chaos bench compares clean against the committed record"
  fi
  if [ -x "${bench_dir}/bench/bench_campaign" ]; then
    fresh_campaign="$(mktemp /tmp/BENCH_campaign.XXXXXX.json)"
    worlds="$(sed -n 's/^  "worlds_per_size": \([0-9][0-9]*\),$/\1/p' \
      BENCH_campaign.json)"
    seed="$(sed -n 's/^  "seed": \([0-9][0-9]*\),$/\1/p' BENCH_campaign.json)"
    [ -n "${worlds}" ] && [ -n "${seed}" ] \
      || { echo "BENCH_campaign.json records no worlds_per_size or seed" >&2; exit 1; }
    "${bench_dir}/bench/bench_campaign" --worlds "${worlds}" --seed "${seed}" \
      --json "${fresh_campaign}" > /dev/null
    "${tooldir}/caa-report" --compare BENCH_campaign.json "${fresh_campaign}" \
      || { echo "fresh campaign bench drifted from the committed BENCH_campaign.json" >&2; exit 1; }
    rm -f "${fresh_campaign}"
    echo "fresh campaign bench compares clean against the committed record"
  fi
else
  echo "skipped (no dev/release preset in this run)"
fi

# The observability kill switch must stay buildable: compile the library
# and the telemetry-consuming tools with the recorder, gauges, sampler and
# watchdog compiled out.
echo "==== -DCAA_OBS_DISABLED build =============================="
cmake -B build-obsoff -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-DCAA_OBS_DISABLED
cmake --build build-obsoff -j "${jobs}" --target caactions caa-inspect caa-report
echo "CAA_OBS_DISABLED build compiles clean"

echo "==== all presets green: ${presets[*]}"
