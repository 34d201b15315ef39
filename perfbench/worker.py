"""One workload in one fresh process: set-up, warm-up, timed rounds, checks.

Started by run.py with the BLAS thread variables already set to 1; they are
set here as well, before numpy is imported, so a direct start is capped too.
Prints one JSON object as its last line of output.  Set-up time runs from
PERFBENCH_T0 (the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide) to the end of the warm-up round.

Timed rounds are reported in reference units.  For a workload with
``calibrated`` set, a fixed calibration computation runs during the timed
phase at an operation boundary at most every CALIBRATE_EVERY_S seconds,
outside the round timers, and one ref is its mean time; otherwise one ref
is one second.  On a shared host whose speed for this process drifts by
tens of percent within seconds, the ratio repeats where the seconds do not
(see README.md).
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


CALIBRATE_EVERY_S = 0.5


class Calibration:
    """A fixed computation, independent of fredkit and of the seed: eigvals
    of one 128 x 128 complex matrix (LAPACK) and a 200,000-step Python loop,
    about 20 ms each on the reference machine."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.eigvals = np.linalg.eigvals

    def __call__(self):
        self.eigvals(self.matrix)
        acc = 0.0
        for i in range(200_000):
            acc += i ** 0.5
        return acc


class Ops:
    """Operations attempted and failed; an operation is one public call or
    one CLI invocation.  ``start`` is called before each one."""

    def __init__(self, calibrate=None):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.calibrate = calibrate
        self.samples = []  # seconds per calibration run
        self.paused = 0.0  # seconds spent calibrating, kept out of round times
        self._last = float("-inf")

    def start(self):
        self.attempted += 1
        if self.calibrate is not None and time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            t0 = time.perf_counter()
            self.calibrate()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self.paused += self._last - t0


def run_rounds(wl, indices, ops, checks):
    """Run and check the given rounds; returns {round index: seconds}."""
    times = {}
    for i in indices:
        inp = wl.draw(i)
        paused = ops.paused
        t0 = time.perf_counter()
        try:
            res = wl.run_round(inp, ops)
        except Exception as exc:  # a raising call is a failed operation
            times[i] = time.perf_counter() - t0 - (ops.paused - paused)
            ops.failed += 1
            ops.errors.append(f"round {i}: {type(exc).__name__}: {exc}")
            continue
        times[i] = time.perf_counter() - t0 - (ops.paused - paused)
        checks.extend(wl.check(inp, res))
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    t_start = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

    if not os.path.exists(os.path.join(ROOT, "src", "fredkit", "__init__.py")):
        print(f"perfbench: no fredkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    tracer = counter = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        counter = tracer.counts
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, counter=counter, workdir=workdir)
        wl.setup()
        warm_inp = wl.draw(0)
        warm_res = wl.run_round(warm_inp, Ops())
        setup_s = time.monotonic() - t_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ops = Ops(Calibration() if wl.calibrated else None)
        checks = list(wl.setup_checks) + wl.check(warm_inp, warm_res)
        del warm_res
        n = wl.rounds(args.seconds)
        times = run_rounds(wl, range(1, n + 1), ops, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    like = [t for i, t in times.items() if wl.like(i)]
    failed_checks = [c for c in checks if not c[1] <= c[2]]
    worst = {}
    for name, err, bound in checks:
        worst[name] = max(worst.get(name, 0.0), err / bound if bound else (0.0 if err == 0 else float("inf")))
    out = {
        "workload": args.workload, "seed": args.seed, "rounds": n,
        "correct": not failed_checks, "attempted": ops.attempted, "failed": ops.failed,
        "errors": sorted(collections.Counter(ops.errors).items())[:20],
        "failed_checks": failed_checks[:20],
        "check_worst_share_of_bound": worst,
        "setup_s": setup_s,
        "wall_s": sum(times.values()),
        "round_p50_s": statistics.median(like),
        "round_times_s": [times[i] for i in sorted(times)],
        "calibration_s": ops.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    unit = statistics.fmean(ops.samples) if ops.samples else 1.0
    out["wall_ref"] = out["wall_s"] / unit
    out["round_p50_ref"] = out["round_p50_s"] / unit
    if tracer is not None:
        out["per_layer"] = tracer.per_layer(tracing.raw_seconds(tracer))
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
