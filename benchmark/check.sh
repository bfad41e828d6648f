#!/usr/bin/env bash
# Everything that keeps the benchmark honest, in one command: format,
# lints, self-tests, the smoke set (untraced and traced), and a cross-check
# that the names the program prints are exactly the names BENCHMARK.json
# declares. Run from anywhere; a later issue wires it into CI.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo_() { local sub=$1; shift; cargo "$sub" --offline --manifest-path "$manifest" "$@"; }

cargo fmt --manifest-path "$manifest" --check
cargo_ clippy --release --all-targets -- -D warnings
cargo_ test --release

started=$(date +%s)
cargo_ run --release --quiet -- run --smoke --seed 1 --seconds 1
cargo_ run --release --quiet -- run --smoke --seed 1 --trace
cargo_ run --release --quiet -- report
echo "smoke sets took $(( $(date +%s) - started )) s"

# The results sit next to the executable that wrote them.
out="${CARGO_TARGET_DIR:-benchmark/target}/benchmark"
python3 - "$out" <<'EOF'
import json, subprocess, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
declared = {
    "workload": {w["name"] for w in spec["workloads"]},
    "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
    "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
}

def same(what, got, want):
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        sys.exit(f"{what}: missing {missing}, undeclared {extra}, or units differ")

for file, kind in (("result.json", "end_to_end"), ("result-trace.json", "per_layer")):
    doc = json.load(open(f"{out}/{file}"))
    same(f"{file} workloads", set(doc["workloads"]), declared["workload"])
    for name, result in doc["workloads"].items():
        if not result["correct"] or result["failed"]:
            sys.exit(f"{file}: {name} reports {result['failed']} failed operations")
        printed = {m: v["unit"] for m, v in result["metrics"].items()}
        same(f"{file} {name} metrics", printed, declared[kind])
print("names printed == names declared: 7 workloads, "
      f"{len(declared['end_to_end'])} end-to-end, {len(declared['per_layer'])} per-layer")
EOF
