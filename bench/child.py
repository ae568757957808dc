"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

    python3 bench/child.py SPAWNED KIND MODE ARG...

SPAWNED is the parent's ``time.perf_counter()`` just before the spawn (the
clock is system-wide on Linux).  KIND is "cli" (ARG... is the argv of
``qranks.cli.main``) or "grid" (ARG... is k, n_max, modulus and the grid
points "a,b" in evaluation order).  MODE is "probe" (import and stop),
"run", or "trace" (run with spans installed).

The program's output goes to stdout.  The exit code is the
program's.  The last line on stderr is this sample's report: set-up time,
the clock at the start and end of the work, the reference-loop times
measured before and after the work (and the CPU time they took), and the
span statistics when traced.
"""

import sys
import time


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the speed the CPU gives this
    process right now.  It allocates tuples and strings and sorts them,
    because under contention its slowdown tracks that of the series, census
    and specializer code within a few percent, where a tight dict-update loop
    slowed 15-25% more than they did."""
    start = time.perf_counter()
    for _ in range(8):
        sorted((i * 7919 % 1000, str(i)) for i in range(5_000))
    return time.perf_counter() - start


def _grid(qranks, args) -> int:
    import json
    from fractions import Fraction

    from workloads import coefficients_sha256

    k, n_max, modulus = map(int, args[:3])
    s = qranks.marked_durfee_rank_series(k, n_max)
    evaluations = {}
    for point in args[3:]:
        a, b = map(int, point.split(","))
        v = qranks.RootOfUnityVector((Fraction(a, modulus), Fraction(b, modulus)))
        c = qranks.specialize_numeric(s, v)
        evaluations[point] = [[z.real, z.imag, err] for z, err in zip(c.coeffs, c.error_bounds)]
    out = {"coefficients_sha256": coefficients_sha256(s), "evaluations": evaluations}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def main() -> int:
    spawned = float(sys.argv[1])
    kind, mode, args = sys.argv[2], sys.argv[3], sys.argv[4:]
    if kind == "grid":
        import qranks
    else:
        import qranks.cli
    ready = time.perf_counter()

    import json

    report = {"setup_s": ready - spawned, "loops": [], "loop_cpu_s": 0.0}

    def calibrate():
        cpu = time.process_time()
        report["loops"].append(reference_loop())
        report["loop_cpu_s"] += time.process_time() - cpu

    calibrate()
    code = 0
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    if mode != "probe":
        report["start"] = time.perf_counter()
        if kind == "grid":
            code = _grid(qranks, args)
        else:
            code = qranks.cli.main(args)
        sys.stdout.flush()
        report["end"] = time.perf_counter()
        calibrate()
    if tracer is not None:
        report["trace"] = tracer.metrics()
    sys.stderr.write("\n" + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
