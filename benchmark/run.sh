#!/usr/bin/env bash
# The benchmark's one command:
#
#   benchmark/run.sh --workload <name> --seed <u64> [--trace 0|1]
#   benchmark/run.sh compare <setA.jsonl> <setB.jsonl> [--json]
#
# Builds the csag-benchmark package from source (release profile, the
# root workspace's settings) and runs it pinned to one CPU: on a shared
# 2-core host an unpinned run is bimodal, because the client, the two
# connection threads and the worker migrate between cores from run to
# run. Run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands;
# without one, build beside the root workspace's artefacts.
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2

export CSAG_BENCH_NPROC="$(nproc 2>/dev/null || echo 1)"
export CSAG_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"

bin="$target/release/csag-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi

# Pin to the last CPU this process may use (the first one takes the
# host's interrupts more often); run unpinned where taskset is missing.
cpu=""
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/.*[,-]//')"
fi
if [ -n "$cpu" ]; then
    exec taskset -c "$cpu" "$bin" --out "$here/out" "$@"
fi
exec "$bin" --out "$here/out" "$@"
