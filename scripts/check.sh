#!/usr/bin/env bash
# Repo gate: formatting, lints, the full test suite, the analyzer, net
# and dist smokes, and (when the toolchain provides it) miri.
# Run from anywhere; everything executes at the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --benchmark-smoke: the end-to-end benchmark (BENCHMARK.json) still
# builds, passes its own tests, and plans and collects correctly — the
# benchmark crate's unit tests, then `benchmark/run.sh --seconds 2` on
# both sides of the candidate-wave trade-off: plan-feasible (n = 1 000,
# several rejections per round, converges) and plan-saturated
# (n = 10 000, rank 0 accepted every round — a merge, then the split
# that undoes it — stops on the proven cycle), on collect-thin (an
# 8-node TCP fleet, 80 small frames per epoch: the collection path),
# on collect-fat (the same fleet, one tree, 8 frames of 128-1 024
# values: the per-value path — fold, codec, stream decoder, collector
# store) and on collect-lossy (the in-process deployment on the lossy
# transport).
# Each runs untraced and traced and exits non-zero unless every child's
# result line says `"correct": true` (plans: audit-clean,
# repeat-identical, and the one-worker uncached plan byte-identical to
# the default configuration's; collect-thin and collect-fat: every
# epoch delivers exactly the plan's promise, no retransmit, no
# duplicate, integrity over every pair, no protocol reject;
# collect-lossy: every value due delivered, nothing abandoned,
# integrity over every pair).
# Opt-in: the benchmark is its own workspace, so the first run pays a
# cold release build into benchmark/target. That build rewrites
# benchmark/Cargo.lock (only a [benchmark] PR may commit under
# benchmark/), so the file is put back as it was found. Timings are
# printed, not gated — two seconds are not a measurement; for the plan
# workloads that includes the phase split (`core.planner.seed_ms`,
# `local_ms`, `global_ms`) and the singleton seed forest inside the seed
# phase (`core.evaluate.singleton_ms`) — but three counts are:
# the saturated search must know when it is done
# (`core.planner.hit_round_cap` 0 — the suite leaves zero-valued layer
# rows out, so: not printed — and a mean of fewer than 32 rounds per
# plan), and the collection path must stay run-to-completion
# (`node.proc.threads` at most 12 for the 8-node fleet; the thread mesh
# it replaced had 50) and tick-aligned
# (`node.proc.ctx_switches_per_epoch` at most 16: the hub writes to a
# node once per epoch, so an epoch is 8 node wake-ups plus at most 8
# blocking polls at the hub, one per report it waits for — 9 measured;
# a hub that writes what it routes at once wakes every node 2-3 times,
# 18-20), and the in-process deployment must stay
# thread-free and repeatable (collect-lossy: `node.proc.threads` at most
# 2 and at most 5 context switches per epoch, where an agent thread per
# node had 17 and ~43; and a second run with the same seed must print
# the same `collect-lossy:` note lines — frames sent, retransmits,
# duplicates, retried readings).
if [[ "${1:-}" == "--benchmark-smoke" ]]; then
  echo "==> benchmark crate tests + plan-feasible, plan-saturated, collect-thin, collect-fat and collect-lossy smoke"
  # A run's note lines ("<workload>: N epochs: ... retransmits ...")
  # go to stderr; keep them for the repeatability check below.
  notes="$(mktemp)"
  lock="$(mktemp)"
  cp benchmark/Cargo.lock "$lock"
  trap 'cp "$lock" benchmark/Cargo.lock; rm -f "$notes" "$lock"' EXIT
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
  for workload in plan-feasible plan-saturated collect-thin collect-fat collect-lossy; do
    if ! out="$(benchmark/run.sh --workload "$workload" --seconds 2 2> "$notes")"; then
      cat "$notes" >&2
      echo "$out"
      echo "benchmark smoke: a $workload run did not report \"correct\": true" >&2
      exit 1
    fi
    cat "$notes" >&2
    echo "$out" | grep -E 'operations:|op_ms_p50|core\.build\.tree_us_adaptive|core\.planner\.(rounds|seed_ms|local_ms|global_ms) |core\.evaluate\.singleton_ms |node\.proc\.|suite '
    if [[ "$workload" == plan-saturated ]]; then
      capped="$(echo "$out" | awk '$1 == "core.planner.hit_round_cap" { print $2 }')"
      rounds="$(echo "$out" | awk '$1 == "core.planner.rounds" { print $2 }')"
      echo "  core.planner.hit_round_cap ${capped:-0}"
      if ! awk -v c="${capped:-0}" -v r="$rounds" 'BEGIN { exit !(r != "" && c + 0 == 0 && r + 0 < 32) }'; then
        echo "benchmark smoke: plan-saturated ran to the round cap (hit_round_cap '$capped', rounds '$rounds')" >&2
        exit 1
      fi
    fi
    threads="$(echo "$out" | awk '$1 == "node.proc.threads" { print $2 }')"
    switches="$(echo "$out" | awk '$1 == "node.proc.ctx_switches_per_epoch" { print $2 }')"
    if [[ "$workload" == collect-thin ]]; then
      if ! awk -v t="$threads" -v s="$switches" 'BEGIN { exit !(t != "" && s != "" && t + 0 <= 12 && s + 0 <= 16) }'; then
        echo "benchmark smoke: collect-thin is off the run-to-completion, tick-aligned path (threads '$threads', ctx switches per epoch '$switches')" >&2
        exit 1
      fi
    fi
    if [[ "$workload" == collect-lossy ]]; then
      # A zero-valued layer row is left out: no switches row means 0.
      echo "  node.proc.ctx_switches_per_epoch ${switches:-0}"
      if ! awk -v t="$threads" -v s="${switches:-0}" 'BEGIN { exit !(t != "" && t + 0 <= 2 && s + 0 <= 5) }'; then
        echo "benchmark smoke: the in-process deployment is not thread-free (threads '$threads', ctx switches per epoch '${switches:-0}')" >&2
        exit 1
      fi
      first="$(grep '^collect-lossy: ' "$notes")"
      again="$(benchmark/run.sh --workload collect-lossy --seconds 2 2>&1 >/dev/null | grep '^collect-lossy: ')"
      if [[ -z "$first" ]] || ! diff <(echo "$first") <(echo "$again"); then
        echo "benchmark smoke: two collect-lossy runs with one seed differ (or printed no note line)" >&2
        exit 1
      fi
      echo "  same seed, same note lines"
    fi
  done
  echo "benchmark smoke passed."
  exit 0
fi

# --obs-smoke: end-to-end observability pipeline check — plan the
# example spec with --trace/--metrics, then make `remo-obs dump`
# summarize both files. Fails if either export is missing or
# malformed. Cheap enough for any box; exits without running the gate.
if [[ "${1:-}" == "--obs-smoke" ]]; then
  echo "==> remo-plan --trace/--metrics + remo-obs dump"
  obs_dir="$(mktemp -d)"
  trap 'rm -rf "$obs_dir"' EXIT
  cargo run -q -p remo --bin remo-plan -- --example > "$obs_dir/spec.json"
  cargo run -q -p remo --bin remo-plan -- "$obs_dir/spec.json" \
    --trace "$obs_dir/out.jsonl" --metrics "$obs_dir/out.prom" > /dev/null
  cargo run -q -p remo-obs --bin remo-obs -- dump \
    --trace "$obs_dir/out.jsonl" --metrics "$obs_dir/out.prom"
  echo "obs smoke passed."
  exit 0
fi

# --check-smoke: the four analyzers behind `remo-check`, in release —
# the table-driven CLI test (every corpus case via --example → file →
# run trips exactly its rule in the SARIF; exit codes 0/1/2), the
# fixed-seed model check (n ≤ 5, depth 4, and all four seeded
# topologies at depth 7, ~0.5 s) plus a replay of every committed
# trace, the shipped protocol spec at depth 14, and `remo-plan
# --example` through the pre-flight analyzer. Seconds warm; exits
# without running the gate.
if [[ "${1:-}" == "--check-smoke" ]]; then
  echo "==> remo-check: CLI contract, mc sweep + corpus replay, proto verify"
  check_dir="$(mktemp -d)"
  trap 'rm -rf "$check_dir"' EXIT
  cargo test -q --release -p remo-check --test cli
  cargo build -q --release -p remo-check -p remo
  target/release/remo-check mc explore --depth 4 --max-nodes 5 --replay-dir "$check_dir"
  target/release/remo-check mc explore --depth 7 --replay-dir "$check_dir"
  for trace in crates/check/corpus/*.json; do
    target/release/remo-check mc replay "$trace"
  done
  target/release/remo-check proto verify --depth 14
  target/release/remo-plan --example > "$check_dir/spec.json"
  target/release/remo-check static analyze "$check_dir/spec.json"
  echo "check smoke passed."
  exit 0
fi

# --figures: results/ is what the code produces. Rebuilds remo-bench,
# regenerates every figure (all_figures writes into results/; the
# committed files are set aside first and put back afterwards) and fails
# if any of the 23 deterministic CSVs differs from the committed one.
# fig9a, fig10a and fig10b hold wall-clock times and are skipped. About
# half a minute on 2 cores; exits without running the gate.
if [[ "${1:-}" == "--figures" ]]; then
  echo "==> all_figures against results/"
  committed="$(mktemp -d)"
  cp results/*.csv "$committed"/
  trap 'cp "$committed"/*.csv results/; rm -rf "$committed"' EXIT
  cargo build -q --release -p remo-bench
  target/release/all_figures > /dev/null
  stale=0
  for csv in "$committed"/*.csv; do
    name="$(basename "$csv")"
    case "$name" in fig9a_*|fig10a_*|fig10b_*) continue ;; esac
    if ! diff -u "$csv" "results/$name"; then
      echo "results/$name is not what all_figures produces" >&2
      stale=1
    fi
  done
  [[ "$stale" == 0 ]] || exit 1
  echo "figures passed: 23 deterministic CSVs reproduce."
  exit 0
fi

# --net-smoke: fast seeded lossy-network soak — wire-decoder fuzz
# tests plus the mini chaos soak (drops, delay, duplication, a
# partition window, and a node outage over 80 epochs) asserting
# convergence within the declared staleness bounds. Deterministic,
# well under 2s warm; exits without running the gate.
if [[ "${1:-}" == "--net-smoke" ]]; then
  echo "==> proto fuzz + seeded lossy mini-soak"
  cargo test -q -p remo-runtime --test proto_fuzz
  cargo test -q -p remo --test net_soak net_smoke
  echo "net smoke passed."
  exit 0
fi

# --dist-smoke: the distributed runtime end-to-end as real processes —
# one remo-collector plus nine remo-node processes over localhost TCP.
# Mid-run, one node is SIGKILLed; the run must confirm the death,
# repair the plan around it, and still reconcile every planned
# (node, attribute) pair with sampler-exact values. Exits without
# running the gate.
if [[ "${1:-}" == "--dist-smoke" ]]; then
  echo "==> dist smoke: 1 remo-collector + 9 remo-node over localhost TCP"
  dist_dir="$(mktemp -d)"
  node_pids=()
  cleanup() {
    for p in "${node_pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    [[ -n "${collector_pid:-}" ]] && kill -9 "$collector_pid" 2>/dev/null || true
    rm -rf "$dist_dir"
  }
  trap cleanup EXIT
  cargo build -q --release -p remo-node

  # Short epochs keep the smoke fast; the generous startup window
  # covers slow single-core boxes.
  target/release/remo-collector --addr 127.0.0.1:0 --nodes 9 --attrs 2 \
    --epochs 45 --epoch-ms 120 --startup-wait-ms 20000 --report "$dist_dir/report.json" \
    > "$dist_dir/collector.log" 2>&1 &
  collector_pid=$!

  addr=""
  for _ in $(seq 1 200); do
    addr="$(sed -n 's/^remo-collector listening on //p' "$dist_dir/collector.log")"
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "collector never came up" >&2; cat "$dist_dir/collector.log" >&2; exit 1; }

  for i in $(seq 0 8); do
    target/release/remo-node --addr "$addr" --id "$i" \
      > "$dist_dir/node$i.log" 2>&1 &
    node_pids+=($!)
  done

  for _ in $(seq 1 300); do
    grep -q "epochs started" "$dist_dir/collector.log" && break
    sleep 0.1
  done
  grep -q "epochs started" "$dist_dir/collector.log" \
    || { echo "epochs never started" >&2; cat "$dist_dir/collector.log" >&2; exit 1; }

  # Steady state, then the injected failure: SIGKILL node 3 mid-run.
  sleep 2
  kill -9 "${node_pids[3]}"
  echo "    SIGKILLed node 3 (pid ${node_pids[3]})"

  if ! wait "$collector_pid"; then
    echo "collector exited non-zero" >&2; cat "$dist_dir/collector.log" >&2; exit 1
  fi
  collector_pid=""

  python3 - "$dist_dir/report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["planned_pairs"] == 18, r
assert r["observed_pairs"] == r["planned_pairs"], f"coverage gap: {r}"
assert r["confirmed_dead"] >= 1, f"SIGKILL not detected: {r}"
assert r["repaired"] >= 1, f"no plan repair: {r}"
assert r["integrity_checked"] > 0, r
assert r["integrity_violations"] == 0, f"value corruption: {r}"
print("    report reconciled:", json.dumps(r))
EOF
  echo "dist smoke passed."
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The in-process deployment runs on its caller's thread under virtual
# time: the epoch counter is its only clock.
echo "==> no thread and no wall clock in crates/runtime/src/deployment.rs"
if grep -nE 'std::thread|Instant|recv_timeout|sleep' crates/runtime/src/deployment.rs; then
  echo "deployment.rs must not start threads or read the wall clock" >&2
  exit 1
fi

# The hub's writes are tick-aligned: a round writes only what cannot
# wait (`flush_due`); releasing everything held is the tick's and the
# shutdown's.
echo "==> no flush-everything inside Hub::pump (crates/node/src/service.rs)"
pump_body="$(awk '/^    fn pump\(/ { inside = 1; next } inside && /^    fn / { inside = 0 } inside' \
  crates/node/src/service.rs)"
if ! grep -q 'self\.flush_due()' <<< "$pump_body" || grep -n 'self\.flush()' <<< "$pump_body"; then
  echo "Hub::pump must end in flush_due(), not flush()" >&2
  exit 1
fi

# One collector thread and one session book: the service registers
# nodes and runs epochs on its caller's thread, and the model checker
# steps the hub's session book (remo_runtime::machine::Sessions), not a
# copy of it. One reporting-period rule: AttrInfo::period.
echo "==> one collector thread, one session book, one reporting period"
service=$(sed '/^mod tests {/,$d' crates/node/src/service.rs)
if grep -nE 'thread::spawn|UnixStream|AtomicUsize|impl Drop for CollectorService' <<<"$service"; then
  echo "service.rs must serve registrations on the caller's thread: no registrar, no hand-over" >&2
  exit 1
fi
if grep -nE '\bSessionMachine\s*(::|\{)|\.step\(SessionEvent::' crates/check/src/harness.rs; then
  echo "the mc harness must step the collector's Sessions book, not session machines of its own" >&2
  exit 1
fi
if grep -rnE 'fn period_of\b|1\.0 / .*frequency\(\)' crates/*/src | grep -v '^crates/core/src/attribute.rs:'; then
  echo "a reporting period is AttrInfo::period(); do not derive one from frequency() again" >&2
  exit 1
fi

# One control-plane implementation: `remo-check proto` steps the
# runtime's own client and session machines (remo_runtime::machine), so
# incarnation minting, echo and adoption exist once; the node supervisor
# keeps its held incarnation in its ClientMachine alone. The verifier's
# scaffolding (explorer, SARIF, corpus shape) is remo-check's own.
echo "==> one control-plane implementation, verifier scaffolding in remo-check"
if grep -nE '\b(client_step|session_step|fresh_bump)\b' crates/check/src/verify.rs; then
  echo "verify.rs must step ClientMachine/SessionMachine, not look the spec tables up itself" >&2
  exit 1
fi
if grep -nE 'incarnation: Option<u32>' crates/node/src/client.rs; then
  echo "client.rs holds its incarnation in the ClientMachine (ClientMachine::held), not a second field" >&2
  exit 1
fi
if grep -nE '\bmod (explore|sarif|corpus)\b' crates/core/src/lib.rs; then
  echo "explore, sarif and corpus are remo-check modules, not planner-crate ones" >&2
  exit 1
fi

# One engine: the evaluation substrate steps the real agents. None of
# the deleted epoch engine's types may come back beside them.
echo "==> no second epoch engine (crates/, tests/, examples/)"
if grep -rn 'TreeRoute\|in_transit\|CollectorStore\|StoredValue\|mod reading' crates/ tests/ examples/; then
  echo "remo-sim must step remo-runtime's agents, not its own engine" >&2
  exit 1
fi

# One epoch close: the model checker drives Coordinator::observe and
# Coordinator::repair. It may not call the pieces they are made of.
echo "==> no copy of the epoch close in the model checker (crates/check/src)"
if grep -rnE '\b(handle_node_failure|handle_node_recovery|add_values_lost|mark_repaired|due_readings|changed_assignments)\s*\(' \
  crates/check/src; then
  echo "remo-check mc must drive the coordinator, not re-implement its epoch close" >&2
  exit 1
fi

# One adaptation step: churn and capacity changes share one residual
# rebuild and take their evaluation context from the planner. The
# planner's stderr echo is gone for good.
echo "==> one adaptation step (crates/core/src/adapt.rs), no planner debug echo"
if grep -n 'EvalContext {' crates/core/src/adapt.rs; then
  echo "adapt.rs must take its EvalContext from Planner::eval_context" >&2
  exit 1
fi
builds=$(grep -c 'build_tree_for_set(' crates/core/src/adapt.rs || true)
if [ "$builds" -gt 1 ]; then
  echo "adapt.rs must rebuild trees in one place, found $builds build_tree_for_set( calls" >&2
  exit 1
fi
if grep -rn 'REMO_PLANNER_DEBUG\|debug_echo\|env_flag' crates/; then
  echo "the REMO_PLANNER_DEBUG echo was removed; use remo-plan --trace and remo-obs dump" >&2
  exit 1
fi

# Every planner forest but the initial seed's is only compared against a
# pair floor, so it races that floor: one unbounded forest build.
echo "==> one forest build without a floor (crates/core/src/planner.rs)"
whole=$(grep -c 'build_whole_forest(' crates/core/src/planner.rs || true)
if [ "$whole" -gt 1 ]; then
  echo "planner.rs must race a floor in every forest build but the initial seed's," \
    "found $whole build_whole_forest( calls" >&2
  exit 1
fi

# One serial planner engine: the search runs on the calling thread, so
# remo-core's product code starts no thread and takes no lock. A tree
# cache serves one (pairs, catalog) and lives for one cold plan: the
# adaptive planner owns none, and nothing invalidates one.
echo "==> one serial planner engine, no long-lived tree cache (crates/core/src)"
threaded=$(for f in crates/core/src/*.rs; do
  sed '/^mod tests {/,$d' "$f" \
    | { grep -nE 'std::thread|thread::scope|Mutex|available_parallelism' || true; } | sed "s|^|$f:|"
done)
if [ -n "$threaded" ]; then
  echo "remo-core plans on the calling thread: no threads, no locks, no worker count:" >&2
  echo "$threaded" >&2
  exit 1
fi
holder=$(awk '/^pub struct AdaptivePlanner/ { on = 1 } on { print } on && /^}/ { on = 0 }' \
  crates/core/src/adapt.rs)
if grep -n 'TreeCache' <<<"$holder"; then
  echo "AdaptivePlanner must not own a TreeCache: a cache lives for one planning call" >&2
  exit 1
fi
if grep -n 'fn invalidate' crates/core/src/cache.rs; then
  echo "a TreeCache serves one (pairs, catalog); drop it instead of invalidating it" >&2
  exit 1
fi

# The load tracker computes a mutation's accounting before it writes
# any, so a refusal has nothing to undo; and the adaptive fold compares
# scored trackers, so only the winner is materialized.
echo "==> compute-then-write tracker, one finish (crates/core/src/build.rs)"
kernel=$(sed '/^mod tests {/,$d' crates/core/src/build.rs)
if grep -n 'struct Saved\|fn restore(\|journal' <<<"$kernel"; then
  echo "build.rs must not journal and restore tracker state; compute, then write" >&2
  exit 1
fi
outside=$(awk '/^pub fn build_tree\(/ { inside = 1 }
  inside && /^}/ { inside = 0; next }
  !inside && /finish\(/ && !/fn finish\(/' crates/core/src/build.rs)
if [ -n "$outside" ]; then
  echo "build.rs must materialize an outcome (finish) in build_tree only, found:" >&2
  echo "$outside" >&2
  exit 1
fi

# CHAIN is a Fig. 7 baseline, not a challenger of the adaptive fold: it
# won 1 of 76 167 measured adaptive builds (ROADMAP item 14), so the
# fold neither builds it nor continues it from a fork.
echo "==> no CHAIN challenger in the adaptive fold (crates/core/src/build.rs)"
if grep -n 'fn chain_from' <<<"$kernel"; then
  echo "build.rs must not continue CHAIN from a fork (chain_from); CHAIN is built from the seed only" >&2
  exit 1
fi
fold=$(awk '/^fn build_adaptive\(/ { on = 1 } on { print } on && /^}/ { on = 0 }' \
  crates/core/src/build.rs)
if grep -n 'build_chain\|chain_from' <<<"$fold"; then
  echo "build_adaptive must not build a CHAIN challenger" >&2
  exit 1
fi

# The tree-build path looks ids up under the one id hasher
# (remo_core::ids::IdHasher) and reads budgets from one dense ledger
# (evaluate::BudgetLedger): no SipHash table in the tracker or the tree
# cache, no residual map collected from the capacity map, no second
# hasher.
echo "==> one id hasher, one budget ledger (crates/core/src, crates/)"
tables=$(awk '/^pub struct LoadTracker/ { on = 1 } on { print } on && /^}/ { on = 0 }' \
  crates/core/src/build.rs; awk '/^struct Inner/ { on = 1 } on { print } on && /^}/ { on = 0 }' \
  crates/core/src/cache.rs)
if grep -nE '\bHash(Map|Set)<' <<<"$tables"; then
  echo "LoadTracker and TreeCache's Inner must key by id under IdMap/IdSet, not a default-hashed table" >&2
  exit 1
fi
residual_maps=$(for f in crates/core/src/*.rs; do
  sed '/^mod tests {/,$d' "$f" | { grep -nE 'caps\.iter\(\)(\.collect|$)' || true; } | sed "s|^|$f:|"
done)
if [ -n "$residual_maps" ]; then
  echo "residual budgets live in evaluate::BudgetLedger; do not collect a map from caps.iter():" >&2
  echo "$residual_maps" >&2
  exit 1
fi
if grep -rnE 'impl\s+(std::hash::)?Hasher\s+for' crates/ | grep -v '^crates/core/src/ids.rs:'; then
  echo "remo_core::ids::IdHasher is the one id hasher; use IdMap/IdSet" >&2
  exit 1
fi

# The planner's input is held once: PairSet is one node-major sorted
# array, and its attribute-major view is the cached PairIndex. Two
# nested BTree maps beside the index held every pair three times.
echo "==> one pair-set representation (pairs.rs)"
pair_set=$(awk '/^pub struct PairSet/ { on = 1 } on { print } on && /^}/ { on = 0 }' \
  crates/core/src/pairs.rs)
if grep -nE 'BTree(Map|Set)' <<<"$pair_set"; then
  echo "PairSet holds its pairs in one sorted array, not in a BTreeMap/BTreeSet" >&2
  exit 1
fi

# Receive-side dedup is an anti-replay window: a fixed bitmap per
# sender, whatever the plan. A set of out-of-order seqs grew by one
# entry per frame from a sender with several parents. The window is
# sound because the sender abandons what falls a window behind the seq
# it issues, and it issues seqs in one place.
echo "==> bounded dedup window (transport.rs), one seq issue site (agent.rs)"
tracker=$(sed '/^mod tests {/,$d' crates/runtime/src/transport.rs \
  | awk '/^(pub struct SeqTracker|impl.* SeqTracker)/ { on = 1 } on { print } on && /^}/ { on = 0 }')
if grep -nE 'BTreeSet|HashSet|pending' <<<"$tracker"; then
  echo "SeqTracker must stay a fixed window: no set of seqs, no pending list" >&2
  exit 1
fi
advances=$(awk '/^    (pub(\(crate\))? )?fn / { fn = $0 } /next_seq *(\+=|=[^=])/ { print fn }' \
  crates/runtime/src/agent.rs)
if [ "$(wc -l <<<"$advances")" != 1 ] || ! grep -q 'fn issue_seq(' <<<"$advances"; then
  echo "agent.rs must advance next_seq in Agent::issue_seq only, found it in:" >&2
  echo "$advances" >&2
  exit 1
fi

# One parser and one configuration channel: the binaries read their
# command line through remo_obs::cli only, and product code reads no
# environment variable (a typo in one fell back to a default unseen).
echo "==> one command-line parser, no environment knobs, one stdout writer (crates/*/src)"
env_reads=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
  sed '/^mod tests {/,$d' "$f" | { grep -nE 'env::var' || true; } | sed "s|^|$f:|"
done)
if [ -n "$env_reads" ]; then
  echo "configure the binaries with flags (remo_obs::cli), not environment variables:" >&2
  echo "$env_reads" >&2
  exit 1
fi
if grep -rnE 'env::args' crates/*/src | grep -v '^crates/obs/src/cli.rs:'; then
  echo "read the command line through remo_obs::cli, the one parser of the five binaries" >&2
  exit 1
fi
# A closed stdout (`remo-check audit --list-rules | head -2`) made
# print! panic with exit 101; remo_obs::out!/outln! drop the text instead.
if grep -nE '\bprint(ln)?!' crates/{check,node,obs,remo}/src/bin/*.rs; then
  echo "the five binaries write stdout through remo_obs::out!/outln!, which stop quietly on a closed pipe" >&2
  exit 1
fi

echo "==> cargo clippy --all-targets --all-features -- -D warnings"
cargo clippy --all-targets --all-features -- -D warnings

echo "==> cargo test -q"
cargo test -q

# Rustdoc must build clean: broken intra-doc links and bad code fences
# rot silently otherwise. The remo crates only — the vendored stubs
# under vendor/ are path dependencies, not part of the product surface.
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p remo -p remo-core -p remo-sim -p remo-runtime -p remo-workloads \
  -p remo-check -p remo-node -p remo-obs -p remo-bench

# The remo-check contract and sweeps, on the release binaries.
echo "==> check smoke"
"$0" --check-smoke

# Seeded lossy-network smoke (also covered by cargo test above; kept
# as an explicit, individually-runnable gate step).
echo "==> net smoke"
cargo test -q -p remo-runtime --test proto_fuzz
cargo test -q -p remo --test net_soak net_smoke

# Distributed runtime end-to-end: real processes, real sockets, an
# injected SIGKILL (also covered in-process by crates/node/tests/dist.rs;
# this exercises the actual binaries).
echo "==> dist smoke"
"$0" --dist-smoke

# Miri is optional: nightly-only component, not present in every
# toolchain. Run it when available, skip loudly when not.
if cargo miri --version >/dev/null 2>&1; then
  echo "==> cargo miri test -p remo-core"
  cargo miri test -p remo-core
else
  echo "==> skipping miri (component not installed)"
fi

echo "All checks passed."
