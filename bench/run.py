"""qranks benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``.
Every sample is a fresh interpreter (the census caches in ``combinat`` are
process-global), and one sample runs at a time.  The seed permutes how the
inputs are presented, never how much work they are.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the samples that fit in S seconds.  ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics: span statistics from
``spans.py``, medians over the traced samples, and the tracing overhead.

Every time is in reference seconds (see ``REFERENCE_LOOP_S``): the measured
time scaled by how fast the CPU ran a fixed loop in the same process just
before and after the sample.

Every sample's output is gated against ``reference.json``.  The report
prints each metric by name with its unit, the environment, and as its last
line the result object.  The exit code is 0 when every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Other tenants of a shared machine slow its CPU by up to 1.8x, in wall and
# CPU time alike, for stretches of a fraction of a second to over a minute.
# Each sample therefore times a fixed loop (``child.reference_loop``) before
# and after its work, and its times are scaled to a CPU that runs that loop
# in REFERENCE_LOOP_S.  Raw medians of 30 s runs varied by a third; scaled
# ones stay within a few percent.
REFERENCE_LOOP_S = 0.020
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take


@dataclass
class Sample:
    setup_s: float
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    stdout: bytes = b""
    trace: dict = field(default_factory=dict)
    scale: float = 1.0  # REFERENCE_LOOP_S / the sample's reference-loop time


def _drain(proc, deadline: float) -> tuple[bytes, bytes, bool]:
    """Read stdout and stderr to EOF; False when the deadline passed first."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                return b"", b"", False
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), True


def spawn(workload: Workload, mode: str, args: list[str], deadline: float,
          ref: dict | None = None) -> Sample:
    """Run one child; gate its output when ``ref`` is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(spawned), workload.kind, mode, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        stdout, stderr, finished = _drain(proc, deadline)
        if not finished:
            proc.kill()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = proc.returncode if finished else None
    lines = stderr.decode(errors="replace").splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"setup_s": 0.0}  # the child died before it could report
    loops = report.get("loops")
    scale = REFERENCE_LOOP_S * len(loops) / sum(loops) if loops else 1.0
    trace = {name: value * scale if name.endswith("_s") else value
             for name, value in report.get("trace", {}).items()}
    sample = Sample(report["setup_s"] * scale, stdout=stdout, trace=trace, scale=scale)
    if ref is None:
        return sample
    failed = workload.gate(stdout, exit_code, ref) if "end" in report else ref["ops"]
    checked = time.perf_counter()
    if failed and lines:
        print(f"# {workload.name}: {failed} of {ref['ops']} operations failed; "
              f"stderr ends: {lines[-1][:300]}", file=sys.stderr)
    sample.run_s = (checked - report.get("start", spawned)) * scale
    cpu_s = usage.ru_utime + usage.ru_stime - report.get("loop_cpu_s", 0.0)
    sample.cpu_s = cpu_s * scale
    sample.peak_rss_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    sample.attempted, sample.failed = ref["ops"], failed
    return sample


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "loadavg": list(os.getloadavg()),
            "steal_ticks": _steal_ticks()}


def end_to_end(samples: list[Sample]) -> dict:
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    return {
        "run_s": statistics.median(s.run_s for s in samples),
        "setup_s": statistics.median(s.setup_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "ok_share": 1 - failed / attempted,
    }


def per_layer(workload: Workload, traced: list[Sample], untraced: list[Sample],
              names: list[str]) -> dict:
    """The per-layer metrics ``names``: medians over the traced samples of
    the span figures, and of the layer totals and rates derived from them."""
    rows = []
    for s in traced:
        t = s.trace or defaultdict(int)  # a sample that crashed recorded nothing
        layer_self = {layer: sum(t[f"{span}.self_s"] for span in spans.SPAN_NAMES
                                 if span.startswith(layer + "."))
                      for layer in ("series", "genfun", "combinat", "specialize")}
        cli = workload.kind == "cli"
        derived = {f"{layer}.self_s": value for layer, value in layer_self.items()}
        derived.update({
            "combinat.objects_per_s": _rate(t["combinat.census_objects"], layer_self["combinat"]),
            "specialize.terms_per_s": _rate(t["specialize.terms"], layer_self["specialize"]),
            "cli.self_s": t["cli.main.self_s"],
            "cli.records": s.stdout.count(b"\n") if cli else 0,
            "cli.output_bytes": len(s.stdout) if cli else 0,
            "trace.run_s": s.run_s,
            "trace.coverage_misses": len(coverage_misses(workload, t)),
        })
        rows.append({name: derived[name] if name in derived else t[name]
                     for name in names if name != "trace.overhead_s"})
    metrics = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (
        metrics["trace.run_s"] - statistics.median(s.run_s for s in untraced))
    return metrics


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def coverage_misses(workload: Workload, trace: dict) -> list[str]:
    """Spans that stayed silent where calls were expected, or recorded calls
    where the prediction is none."""
    return [name for name in spans.SPAN_NAMES
            if (trace[f"{name}.calls"] > 0) != (name in workload.spans)]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            ref: dict) -> tuple[list[Sample], list[Sample]]:
    """Samples for S seconds; returns (timed samples, traced samples)."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    args = workload.argv(random.Random(seed))
    spawn(workload, "probe", [], deadline)  # compiles bytecode on a fresh checkout
    timed: list[Sample] = []
    traced: list[Sample] = []
    last = {"run": 0.0, "trace": 0.0}
    while True:
        mode = "trace" if trace and len(traced) < len(timed) else "run"
        now = time.perf_counter()
        if timed and (not trace or traced) and now + last[mode] > started + seconds:
            break
        sample = spawn(workload, mode, args, deadline, ref)
        last[mode] = time.perf_counter() - now
        (traced if mode == "trace" else timed).append(sample)
        if sample.failed == sample.attempted and time.perf_counter() > deadline:
            break  # timed out: no further sample can finish in time
    return timed, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qranks" / "__init__.py").is_file():
        print(f"error: no qranks sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())[workload.name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = environment()
    timed, traced = measure(workload, args.seed, args.seconds, bool(args.trace), ref)
    after = environment()
    env["loadavg_after"], env["steal_ticks_after"] = after["loadavg"], after["steal_ticks"]
    env["samples"], env["traced_samples"] = len(timed), len(traced)
    env["median_scale"] = statistics.median(s.scale for s in timed + traced)
    env["median_raw_run_s"] = statistics.median(s.run_s / s.scale for s in timed)

    metrics = (per_layer(workload, traced, timed, [m["name"] for m in spec["per_layer"]])
               if args.trace else end_to_end(timed))
    everything = timed + traced
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)
    print(f"env: {json.dumps(env)}")
    print(f"workload: {workload.name}  seed: {args.seed}  "
          f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    misses = {name for s in traced
              for name in coverage_misses(workload, s.trace or defaultdict(int))}
    for name in sorted(misses):
        state = "silent, calls predicted" if name in workload.spans else "calls, none predicted"
        print(f"  coverage miss: {name} ({state})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
