#!/usr/bin/env bash
# Build the benchmark and the release `prs` binary from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload audit|churn|swarm --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build artifacts go to $CARGO_TARGET_DIR
# (default `.bench_build`); the CLI parity check writes its input files under
# `$CARGO_TARGET_DIR/perfbench-io` and removes them when it is done.
set -euo pipefail

bench_dir="$(dirname "$0")"
root="$bench_dir/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p prs-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

# The run keeps to one CPU, the first it may use, and so does every `prs`
# it starts. The audit's fan-out then takes its one-worker path: on a shared
# 2-vCPU VM its two workers made the audit slower and let its pass time
# follow how fast the host woke the second vCPU (see README.md).
cpu="$(taskset -cp $$ | sed 's/.*: //; s/[,-].*//')"

exec taskset -c "$cpu" "$target/release/prs-perfbench" \
    --prs "$target/release/prs" \
    --io-dir "$target/perfbench-io" \
    "$@"
