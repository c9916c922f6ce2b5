#!/usr/bin/env bash
# The benchmark's one command: build, run every workload in its own child
# process (untraced pass, then traced pass), check outputs, print every
# metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--aa]
#
# --aa runs the untraced set twice on the same build and fails when a pair
# of end-to-end values differs by more than the metric's bound.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- suite "$@"
