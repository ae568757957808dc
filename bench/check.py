"""Run every workload, print every metric with its unit, and check the design.

    python3 bench/check.py [--seconds S] [--seed N] [--workload NAME ...] [--out FILE]

For each workload this makes one untraced and two traced runs of ``run.py``,
each in its own process, and prints their reports.  It exits 1 when

- an output gate fails in any run;
- a count differs between the two traced runs (counts must repeat exactly);
- a span is silent where the workload is predicted to call it, or records
  calls where the prediction is none;
- a layer's self time is outside the share of traced run time that the
  workload predicts (``Workload.shares``).

``--out`` writes all results, with the environment of each run, to one JSON
file such as ``bench/BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, str]:
    """One run.py process: (result, environment, printed report)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=200)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run.py printed nothing\n{proc.stderr}")
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env, "\n".join(lines[:-1]) + proc.stderr


def check_workload(name: str, seed: int, seconds: float) -> tuple[list[str], dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    runs = {}
    for label, trace, run_seed in (("end_to_end", 0, seed), ("traced", 1, seed),
                                   ("traced_again", 1, seed + 1)):
        result, env, report = run(name, run_seed, seconds, trace)
        if label != "traced_again":
            print(report)
        if not result["correct"]:
            problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                            "operations failed")
        runs[label] = {"seed": run_seed, "env": env, **result}
    first, again = (runs[key]["metrics"] for key in ("traced", "traced_again"))
    for metric, unit in units.items():
        if unit in ("count", "bytes") and first[metric]["value"] != again[metric]["value"]:
            problems.append(f"{metric} does not repeat: {first[metric]['value']} "
                            f"then {again[metric]['value']}")
    if first["trace.coverage_misses"]["value"]:
        problems.append("span coverage differs from the prediction (see report)")
    run_s = first["trace.run_s"]["value"]
    for layer, (low, high) in WORKLOADS[name].shares.items():
        share = first[f"{layer}.self_s"]["value"] / run_s
        verdict = "ok" if low <= share <= high else "OUTSIDE PREDICTION"
        print(f"  share of traced run_s in {layer} self time: {share:.3f} "
              f"(predicted {low:.2f}..{high:.2f}) {verdict}")
        if verdict != "ok":
            problems.append(f"{layer} share {share:.3f} outside {low:.2f}..{high:.2f}")
    return problems, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())[
                            "run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    failures = {}
    results = {}
    for name in args.workload or list(WORKLOADS):
        print(f"=== {name}")
        problems, results[name] = check_workload(name, args.seed, args.seconds)
        if problems:
            failures[name] = problems
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "results": results},
                                       indent=1) + "\n")
    for name, problems in failures.items():
        for problem in problems:
            print(f"FAIL {name}: {problem}")
    print("all checks passed" if not failures else f"{len(failures)} workload(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
