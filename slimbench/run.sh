#!/usr/bin/env bash
# Builds slimbench (release) and runs every workload untraced five times and
# traced once with one seed. Results land under target/slimbench/:
#   set-<seed>-<stamp>.jsonl     five untraced runs per workload, for --compare
#   traced-<seed>-<stamp>.jsonl  the per-layer table of the traced run
#   traces-<seed>-<stamp>/       one Chrome trace per workload
#
#   slimbench/run.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out="target/slimbench"
stamp="$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/slimbench/target}"
cargo build --release --offline --manifest-path slimbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/slimbench"
for _ in 1 2 3 4 5; do
    "$bin" --all --seed "$seed" --out "$out/set-$seed-$stamp.jsonl"
done
"$bin" --all --seed "$seed" --traced \
    --out "$out/traced-$seed-$stamp.jsonl" --trace-out "$out/traces-$seed-$stamp"
echo "untraced set: $out/set-$seed-$stamp.jsonl"
echo "compare two sets with: $bin --compare A.jsonl B.jsonl"
