#!/usr/bin/env bash
# Records one *set* of runs for `run.sh compare`:
#
#   benchmark/collect.sh <set.jsonl> [first-seed] [runs] [trace]
#
# runs every workload of BENCHMARK.json once per seed (first-seed,
# first-seed+1, …; 10 runs by default) and appends each result to
# <set.jsonl>. To compare two commits, collect on both with the same
# seeds, alternating which side runs first.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
set_file="${1:?usage: collect.sh <set.jsonl> [first-seed] [runs] [trace]}"
first="${2:-1}"
runs="${3:-10}"
trace="${4:-0}"
workloads="$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$here/../BENCHMARK.json")"

for ((seed = first; seed < first + runs; seed++)); do
    for workload in $workloads; do
        "$here/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" --record "$set_file" | tail -n 1 | cut -c1-60
    done
done
