"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at reduced size (a few rounds each, refusal rounds
included) and requires every check to pass.  Then hands each check results
with one entry moved -- an eigenvalue or estimate off by 1e-6, a solution or
iterate entry off by 1e-8, one flipped output byte, a rule node or weight off
by 1e-6 -- and requires that every check fails on at least one of them.
Also confirms that the metric tables in the code match BENCHMARK.json.
Exits 1 on any miss.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Ops  # noqa: E402


def failing(checks):
    return {name for name, err, bound in checks if not err <= bound}


def perturbed_rules(rule):
    for attr in ("nodes", "weights"):
        arr = np.array(getattr(rule, attr))
        k = arr.size // 3
        arr[k] += 1e-6 * abs(arr[k])
        fields = {"count": rule.count, "nodes": rule.nodes, "weights": rule.weights, attr: arr}
        yield f"rule {attr} off by 1e-6", types.SimpleNamespace(**fields)


def check_workload(cls, workdir):
    wl = cls(seed=1, small=True, workdir=workdir)
    wl.setup()
    problems = []
    names = {c[0] for c in wl.setup_checks}
    caught = set()
    bad = failing(wl.setup_checks)
    if bad:
        problems.append(f"set-up checks fail unperturbed: {sorted(bad)}")
    if wl.rule_ref is not None:
        for label, rule in perturbed_rules(wl.rule):
            hit = failing(workloads.rule_checks(rule, *wl.rule_ref))
            print(f"  {label:42s} -> {sorted(hit)}")
            caught |= hit
    indices = [i for i in range(10) if not wl.like(i)][:1] + [0, 1]
    for i in indices:
        inp = wl.draw(i)
        ops = Ops()
        res = wl.run_round(inp, ops)
        base = wl.check(inp, res)
        names |= {c[0] for c in base}
        bad = failing(base)
        if bad:
            problems.append(f"round {i} fails unperturbed: {sorted(bad)}")
        if i == 1:
            continue  # round 1 only confirms the outputs repeat
        for label, pres in wl.perturbations(res):
            hit = failing(wl.check(inp, pres))
            print(f"  {label:42s} -> {sorted(hit)}")
            if not hit:
                problems.append(f"no check caught: {label}")
            caught |= hit
    missing = names - caught
    if missing:
        problems.append(f"checks no perturbation made fail: {sorted(missing)}")
    print(f"  {len(names)} checks, all failed on some perturbation: {not missing}")
    return problems


def check_tables():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        spec = json.load(fh)
    problems = []
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(run.WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)),
        ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracing.PER_LAYER)),
    ]
    for key, listed, coded in pairs:
        if listed != coded:
            problems.append(f"BENCHMARK.json {key} differ from the code: {listed} vs {coded}")
    return problems


def main():
    workdir = os.path.join(HERE, "out", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = check_tables()
    try:
        for cls in workloads.WORKLOADS.values():
            print(cls.name)
            problems += [f"{cls.name}: {p}" for p in check_workload(cls, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
