#!/usr/bin/env bash
# Self-check of the benchmark: is it steady enough to judge a change with?
#
# Builds the package, runs every workload of BENCHMARK.json twice with the
# same seed and once with a second seed, runs one traced run per workload,
# and compares the two same-seed sets metric by metric against the bounds
# BENCHMARK.json fixes. Exits non-zero when a metric disagrees by more than
# its bound (reported as unresolved: the benchmark cannot decide it), when
# any output was wrong, or when a workload other than zip.ldask.spill
# spilled.
#
#   benchmark/selfcheck.sh [seed] [second seed]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 - "${1:-42}" "${2:-1337}" <<'EOF'
import json, subprocess, sys

seed, second_seed = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]


def run(workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", seed,
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}, no result")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


problems = []
print(f"{'workload':<16} {'metric':<16} {'run 1':>12} {'run 2':>12} {'apart':>8} {'bound':>7}  verdict")
for workload in workloads:
    first, second = run(workload, seed, 0), run(workload, seed, 0)
    other = run(workload, second_seed, 0)
    traced = run(workload, seed, 1)
    for label, result in (("run 1", first), ("run 2", second),
                          (f"seed {second_seed}", other), ("traced", traced)):
        if not result["correct"] or result["failed"] or result["exit"]:
            problems.append(f"{workload} {label}: {result['failed']} of "
                            f"{result['attempted']} outputs wrong, exit {result['exit']}")
    for metric in spec["end_to_end"]:
        a = first["metrics"][metric["name"]]["value"]
        b = second["metrics"][metric["name"]]["value"]
        apart = abs(a - b) / min(a, b)
        resolved = apart <= metric["bound"]
        if not resolved:
            problems.append(f"{workload} {metric['name']}: two runs of one commit are "
                            f"{apart:.1%} apart, bound {metric['bound']:.0%}")
        print(f"{workload:<16} {metric['name']:<16} {a:>12.4f} {b:>12.4f} {apart:>8.2%} "
              f"{metric['bound']:>7.0%}  {'agree' if resolved else 'UNRESOLVED'}")
    spills = traced["metrics"]["meta.spill_events"]["value"]
    if (spills > 0) != (workload == "zip.ldask.spill"):
        problems.append(f"{workload}: {spills:.0f} spill events per iteration")
    print(f"{workload:<16} {'meta.spill_events':<16} {spills:>12.0f}")

for problem in problems:
    print("PROBLEM:", problem)
sys.exit(1 if problems else 0)
EOF
