#!/usr/bin/env bash
# Builds the benchmark against the repository it sits in and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh suite --seed <n> --runs <k> --result <file>
#   benchmark/run.sh compare <A.json> <B.json>
#
# The last line of standard output of a workload run is its result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Reuse the repository's own artefacts unless the caller chose a
# directory; a relative choice is relative to where it was made.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Compiler chatter goes to standard error: standard output carries results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

bin="$target/release/tripoll-benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
# Traces and layer tables land beside the benchmark, not in the caller's directory.
exec "$bin" "$@" --out "$here/out"
