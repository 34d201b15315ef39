"""fredkit benchmark: run workloads in fresh single-threaded processes.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh Python process (worker.py) with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, importing
fredkit from ../src.  The load is a closed loop with one caller.  With
``--trace 0`` the set-up is made SETUP_RUNS times, each in a fresh process,
and the last process goes on to the timed rounds; ``setup_s`` is the median
of those set-ups.  With ``--trace 1`` a single traced process reports the
per-module metrics instead.  The last line printed is the result as one JSON
object; the full record of each run is written to perfbench/out/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("spectra-n1024", "lambda-sweep", "cli-mix", "block-powerit")
SETUP_RUNS = 3
DEADLINE_S = 175  # one invocation ends within this, whatever its children do
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("round_p50_ref", "ref"), ("peak_rss_mb", "MB"))


def spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Run worker.py in a fresh process and return its JSON record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env["PERFBENCH_T0"] = repr(time.monotonic())
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        rec = spawn(workload, seed, seconds, 1, deadline)
        metrics = rec["per_layer"]
    else:
        setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        rec = spawn(workload, seed, seconds, 0, deadline)
        setups.append(rec["setup_s"])
        rec["setup_runs_s"] = setups
        rec["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": rec[name], "unit": unit} for name, unit in END_TO_END}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1)
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name in names[:-1]:
        print(f"{name}: {json.dumps(results[name])}")
    print(json.dumps(results[names[-1]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
