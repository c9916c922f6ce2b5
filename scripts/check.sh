#!/usr/bin/env bash
# Repo gate: formatting, lints, the full test suite, the loom-style
# concurrency suite, and (when the toolchain provides it) miri.
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
# fixed-seed model check (n ≤ 5, depth 4) plus a replay of every
# committed trace, the shipped protocol spec at depth 14, and
# `remo-plan --example` through the pre-flight analyzer. Seconds warm;
# exits without running the gate.
if [[ "${1:-}" == "--check-smoke" ]]; then
  echo "==> remo-check: CLI contract, mc sweep + corpus replay, proto verify"
  check_dir="$(mktemp -d)"
  trap 'rm -rf "$check_dir"' EXIT
  cargo test -q --release -p remo-mc --test cli
  cargo build -q --release -p remo-mc -p remo
  target/release/remo-check mc explore --depth 4 --max-nodes 5 --replay-dir "$check_dir"
  for trace in crates/mc/corpus/*.json; do
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
  export REMO_DIST_EPOCH_MS=120 REMO_DIST_DEADLINE_MS=100 \
    REMO_DIST_CONFIRM_AFTER=2 REMO_DIST_STARTUP_WAIT_MS=20000
  target/release/remo-collector --addr 127.0.0.1:0 --nodes 9 --attrs 2 \
    --epochs 45 --report "$dist_dir/report.json" \
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

# One engine: the evaluation substrate steps the real agents. None of
# the deleted epoch engine's types may come back beside them.
echo "==> no second epoch engine (crates/, tests/, examples/)"
if grep -rn 'TreeRoute\|in_transit\|CollectorStore\|StoredValue\|mod reading' crates/ tests/ examples/; then
  echo "remo-sim must step remo-runtime's agents, not its own engine" >&2
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
  -p remo-audit -p remo-mc -p remo-proto -p remo-static -p remo-node \
  -p remo-obs -p remo-bench

# The remo-check contract and sweeps, on the release binaries.
echo "==> check smoke"
"$0" --check-smoke

# Interleaving tests for the epoch-deadline health detector and the
# token-bucket throttle. The loom cfg swaps in the vendored
# bounded-preemption scheduler (DFS over thread interleavings, at
# most LOOM_MAX_PREEMPTIONS forced switches per schedule); the
# iteration budget keeps the gate fast, and a separate target dir
# keeps the main cache warm.
echo "==> loom concurrency suite"
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
  LOOM_MAX_ITER="${LOOM_MAX_ITER:-400}" \
  cargo test -p remo-runtime --test loom

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
