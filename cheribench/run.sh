#!/usr/bin/env bash
# Builds the service binary and the benchmark from source, then runs the
# benchmark with this script's arguments from the repository root, e.g.
#
#   bash cheribench/run.sh --workload olden-batch --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), shared
# by both builds so the benchmark finds cheri-serve next to itself.
#
# The benchmark and every process it starts run on one CPU, the last
# this script may use. A served request hands off between three threads
# (client, connection, worker); across CPUs each hand-off costs a
# cross-CPU wake-up whose price on a shared VM changed from run to run
# by up to 50%, on one CPU it is a context switch.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cheri-bench --bin cheri-serve >&2
cargo build --release --offline --quiet --manifest-path cheribench/Cargo.toml >&2
pin=()
if cpus=$(taskset -cp $$ 2>/dev/null); then
    pin=(taskset -c "${cpus##*[,: -]}")
else
    echo "run.sh: taskset unavailable, running unpinned" >&2
fi
exec "${pin[@]}" "$CARGO_TARGET_DIR/release/cheribench" "$@"
