#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. With --workload this
# is one run, whose last line is the result object; without, every workload
# in a child process each. See benchmark/README.md.
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa]
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's own output goes to stderr: stdout belongs to the metrics.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/emx-benchmark" "$@"
