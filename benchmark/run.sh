#!/usr/bin/env bash
# Builds the CLI under test and the benchmark driver from source (offline),
# then runs the driver. See README.md; `run.sh --help` lists the options.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$bench_dir")"

# One build directory for both packages; the driver's work directories
# live under it too, so everything a run leaves behind is in one ignored
# place inside the checkout.
build_dir="${CARGO_TARGET_DIR:-$repo_dir/target}"
case "$build_dir" in
    /*) ;;
    *) build_dir="$PWD/$build_dir" ;;
esac
export CARGO_TARGET_DIR="$build_dir"

# Cargo's progress goes to stderr; standard output carries only the report.
cargo build --release --offline --quiet --manifest-path "$repo_dir/Cargo.toml" -p paraspace-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$build_dir/release/paraspace-e2e" "$@" \
    --cli "$build_dir/release/paraspace-cli" \
    --workdir "$build_dir/e2e-work"
