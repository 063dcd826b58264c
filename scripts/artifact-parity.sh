#!/usr/bin/env bash
# Runs one small `simulate` campaign six ways through a release
# `paraspace-cli` — plain at one worker, plain at two, journaled in shards
# of four, dispatched to two file workers, dispatched to two TCP workers,
# and plain into an `--out` directory that already holds another
# campaign's member files — and fails unless all six leave byte-identical
# directories. The plain runs must also print the same `simulated … ms`
# clocks (a journaled campaign bills its launches per shard, so its total
# is its own). Every mode runs the same shard executor and formats a
# member once, in the engine's P5 tail; this is the check that they still
# agree on the bytes, and that a stale `dynamics_*` file never survives
# next to a new batch.
#
#   scripts/artifact-parity.sh [path/to/paraspace-cli]
#
# Build the binary first: cargo build --release -p paraspace-cli
set -euo pipefail

bin="${1:-target/release/paraspace-cli}"
[ -x "$bin" ] || { echo "artifact-parity: no binary at $bin" >&2; exit 2; }
bin="$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

"$bin" generate --species 12 --reactions 14 --seed 7 model >/dev/null

# simulate NAME ARGS...: artifacts in NAME/, the modelled clocks in NAME.sim.
simulate() {
    local name="$1"
    shift
    "$bin" simulate model --batch 12 --out "$name" "$@" |
        grep -o 'simulated [^;]*' >"$name.sim"
}

simulate plain1 --threads 1
simulate plain2 --threads 2
simulate durable --threads 2 --checkpoint-dir ck --shard-size 4
simulate workers --threads 1 --checkpoint-dir ck2 --shard-size 4 --workers 2
simulate tcp --threads 1 --checkpoint-dir ck3 --shard-size 4 --workers 2 --listen 127.0.0.1:0
# A larger batch and a failed member from some earlier campaign.
mkdir polluted
echo stale >polluted/dynamics_00003.err
echo stale >polluted/dynamics_00040.tsv
simulate polluted --threads 2

status=0
for other in plain2 durable workers tcp polluted; do
    diff -r plain1 "$other" || status=1
done
for other in plain2 polluted; do
    diff plain1.sim "$other.sim" || status=1
done
[ "$(ls plain1 | wc -l)" -eq 12 ] || { echo "artifact-parity: expected 12 artifacts" >&2; status=1; }

if [ "$status" -eq 0 ]; then
    echo "artifact-parity: plain (1 and 2 threads), journaled, file and TCP workers and re-used --out agree: $(cat plain1.sim)"
else
    echo "artifact-parity: FAILED" >&2
fi
exit "$status"
