#!/usr/bin/env bash
# Builds the benchmark and the replica process binary, then hands every
# argument to the benchmark executable (see `src/main.rs` for the modes).
#
#   bash benchmark/run.sh --workload sim_steady --seed 42 --seconds 12 --trace 0
#   bash benchmark/run.sh [--seed n] [--seconds s] [--reps k] [--quick]   # all six
#   bash benchmark/run.sh --compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The workspace's EESMR_* knobs (shards, trace, metrics, workers, quick,
# profile) would change what is measured.
for var in $(compgen -e | grep '^EESMR_' || true); do
    unset "$var"
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Build output goes to stderr: stdout is the benchmark's alone. On a
# built tree this is a no-op of a few hundred milliseconds.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p eesmr-benchmark --bin eesmr-benchmark -p eesmr-sim --bin proc_replica 1>&2

# The replicas' Unix sockets go under TMPDIR, and a socket address holds
# ~100 bytes. Keep them inside the checkout: by a relative path when run
# from above this directory (as the driver does), else by the absolute
# one if it is short enough; otherwise the system default stays.
sockets="$here/out/tmp"
case "$here" in
    "$PWD"/*) sockets="${here#"$PWD"/}/out/tmp" ;;
esac
if [ "${#sockets}" -le 70 ]; then
    mkdir -p "$sockets"
    export TMPDIR="$sockets"
fi

exec "$CARGO_TARGET_DIR/release/eesmr-benchmark" --out-dir "$here/out" "$@"
