"""Command-line driver: one JSON config in, machine-readable artifacts out.

A run is described by a single JSON document (file or stdin)::

    {
      "kernel":  {"name": "mehler", "r": 0.5},
      "measure": {"kind": "gauss-hermite-prob", "n": 40},
      "command": "eig",
      "params":  {},
      "output":  {"format": "json", "destination": null}
    }

Flags only select the config path and overrides, so a config file is a
reproducible artifact: the same document yields byte-identical JSON
output.  Exit codes: 0 success, 1 computation error (category printed on
stderr), 2 config/usage error.

Kernels: mehler (r), separable (coeffs + rights/lefts as polynomial
coefficient lists, ascending powers), defective (lam, m; basis built from
the measure), grid (csv path with "re,im" cells).  Measures: the
constructor specs gauss-legendre {n,a,b}, gauss-hermite-prob {n},
discrete {points,weights}, or an inline rule {kind,nodes,weights}.
"""
import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fredholm, jordan, kernels, measure, nystrom, opsvd, powerit, spectral
from .errors import FredkitError, InvalidArgumentError
from .serialize import (
    complex_to_obj,
    csv_text,
    decomposition_to_obj,
    dumps_canonical,
    jordan_to_obj,
    obj_to_complex,
    read_complex_csv,
    write_complex_csv,
)

COMMANDS = (
    "eig", "djf", "jordan", "svd", "solve", "det", "iterate", "powerit",
    "trace", "validate",
)
KERNEL_NAMES = ("mehler", "separable", "defective", "grid")
MEASURE_KINDS = (
    measure.KIND_GAUSS_LEGENDRE,
    measure.KIND_GAUSS_HERMITE_PROB,
    measure.KIND_DISCRETE,
    measure.KIND_CUSTOM,
)


@dataclass
class RunConfig:
    """Parsed run description; round-trips through to_dict/from_dict."""

    kernel: dict
    measure: dict
    command: str
    params: dict = field(default_factory=dict)
    output_format: str = "json"
    destination: str = None

    def to_dict(self):
        return {
            "kernel": self.kernel,
            "measure": self.measure,
            "command": self.command,
            "params": self.params,
            "output": {"format": self.output_format, "destination": self.destination},
        }

    @staticmethod
    def from_dict(doc):
        if not isinstance(doc, dict):
            raise InvalidArgumentError("config must be a JSON object")
        out = doc.get("output", {}) or {}
        return RunConfig(
            kernel=doc.get("kernel", {}) or {},
            measure=doc.get("measure", {}) or {},
            command=doc.get("command", ""),
            params=doc.get("params", {}) or {},
            output_format=out.get("format", "json"),
            destination=out.get("destination"),
        )


def build_rule(spec):
    """QuadratureRule from a measure spec (constructor form or inline rule)."""
    kind = spec.get("kind")
    if "nodes" in spec:
        return measure.QuadratureRule.from_dict(spec)
    if kind == measure.KIND_GAUSS_LEGENDRE:
        return measure.gauss_legendre(int(spec["n"]), float(spec["a"]), float(spec["b"]))
    if kind == measure.KIND_GAUSS_HERMITE_PROB:
        return measure.gauss_hermite_prob(int(spec["n"]))
    if kind == measure.KIND_DISCRETE:
        return measure.discrete_measure(spec["points"], spec["weights"])
    raise InvalidArgumentError(f"unknown measure kind {kind!r}")


def _poly(coeffs):
    vals = [obj_to_complex(c) for c in coeffs]
    if all(v.imag == 0 for v in vals):
        vals = [v.real for v in vals]
    return np.polynomial.Polynomial(vals)


def build_kernel(spec, rule):
    """Kernel from a gallery spec; defective kernels take their basis from
    polynomials orthonormalized under the rule."""
    name = spec.get("name")
    if name == "mehler":
        return kernels.mehler_kernel(float(spec["r"]))
    if name == "separable":
        coeffs = [obj_to_complex(c) for c in spec["coeffs"]]
        rights = [_poly(p) for p in spec["rights"]]
        lefts = [_poly(p) for p in spec["lefts"]]
        return kernels.separable_kernel(coeffs, rights, lefts)
    if name == "defective":
        m = int(spec["m"])
        basis = kernels.orthonormal_poly_basis(rule, m)
        return kernels.defective_kernel(obj_to_complex(spec["lam"]), m, basis, rule)
    if name == "grid":
        table = read_complex_csv(spec["csv"])
        return kernels.grid_kernel(rule, table)
    raise InvalidArgumentError(f"unknown kernel name {name!r}")


def validate(config: RunConfig):
    """Static constraint report; no computation is performed."""
    violations = []
    if config.command not in COMMANDS:
        violations.append(f"command: unknown command {config.command!r}")
    if config.output_format not in ("json", "csv"):
        violations.append(f"output.format: must be json or csv, got {config.output_format!r}")

    m = config.measure
    kind = m.get("kind")
    if config.command != "validate" or m or config.kernel:
        if "nodes" in m:
            if len(m.get("nodes", [])) != len(m.get("weights", [])):
                violations.append("measure: nodes and weights lengths differ")
            if any(w <= 0 for w in m.get("weights", [])):
                violations.append("measure: weights must be positive")
        elif kind not in MEASURE_KINDS or kind == measure.KIND_CUSTOM:
            violations.append(f"measure.kind: unknown kind {kind!r}")
        else:
            n = m.get("n", m.get("points") and len(m["points"]))
            if kind != measure.KIND_DISCRETE:
                if not isinstance(n, int) or n < 1:
                    violations.append(f"measure.n: need an integer >= 1, got {n!r}")
                elif n > measure.MAX_RULE_SIZE:
                    violations.append(f"measure.n: {n} exceeds cap {measure.MAX_RULE_SIZE}")
            if kind == measure.KIND_GAUSS_LEGENDRE:
                a, b = m.get("a"), m.get("b")
                if a is None or b is None or not float(a) < float(b):
                    violations.append(f"measure: need a < b, got a={a!r}, b={b!r}")
            if kind == measure.KIND_DISCRETE:
                pts = m.get("points", [])
                wts = m.get("weights", [])
                if len(pts) != len(wts) or not pts:
                    violations.append("measure: points/weights must be equal-length, nonempty")
                if len(set(pts)) != len(pts):
                    violations.append("measure.points: must be pairwise distinct")
                if any(w <= 0 for w in wts):
                    violations.append("measure.weights: must be positive")

        k = config.kernel
        kname = k.get("name")
        if kname not in KERNEL_NAMES:
            violations.append(f"kernel.name: unknown kernel {kname!r}")
        elif kname == "mehler":
            r = k.get("r")
            if r is None or not abs(float(r)) < 1:
                violations.append(f"kernel.r: need |r| < 1, got {r!r}")
        elif kname == "separable":
            lens = {len(k.get(key, [])) for key in ("coeffs", "rights", "lefts")}
            if len(lens) != 1 or 0 in lens:
                violations.append("kernel: coeffs/rights/lefts must have equal nonzero length")
        elif kname == "defective":
            if int(k.get("m", 0)) < 2:
                violations.append("kernel.m: defective blocks need m >= 2")
        elif kname == "grid":
            import os

            path = k.get("csv")
            if not path or not os.path.exists(path):
                violations.append(f"kernel.csv: file not found: {path!r}")

    p = config.params
    cmd = config.command
    if cmd == "solve":
        if "lambda" not in p:
            violations.append("params.lambda: required for solve")
        rhs = p.get("rhs")
        if isinstance(rhs, str) and rhs != "ones":
            import os

            if not os.path.exists(rhs):
                violations.append(f"params.rhs: file not found: {rhs!r}")
    if cmd == "det" and "lambda_grid" in p:
        try:
            a, b, steps = _parse_grid(p["lambda_grid"])
            if steps < 1 or not a <= b:
                raise ValueError
        except Exception:
            violations.append(f"params.lambda_grid: malformed, need 'a:b:steps', got {p.get('lambda_grid')!r}")
    if cmd == "iterate" and int(p.get("n", 1)) < 1:
        violations.append("params.n: need n >= 1")
    if cmd == "trace" and int(p.get("n", 0)) < 0:
        violations.append("params.n: need n >= 0")
    if cmd == "powerit":
        if int(p.get("k", 1)) < 1:
            violations.append("params.k: need k >= 1")
        if float(p.get("tol", 1e-10)) <= 0:
            violations.append("params.tol: need tol > 0")
        if int(p.get("nmax", 200)) < 1:
            violations.append("params.nmax: need nmax >= 1")
    return violations


def _parse_grid(text):
    a, b, steps = str(text).split(":")
    return float(a), float(b), int(steps)


def _get_lambda(params):
    lam = params.get("lambda", 0.0)
    if isinstance(lam, (list, tuple)):
        return complex(float(lam[0]), float(lam[1]))
    return obj_to_complex(lam)


def execute(config: RunConfig, dump_operator=None, dump_vectors=None):
    """Run one command; returns (json_obj, csv_rows).

    main renders the rows to text only when CSV output is asked for.
    """
    if config.command == "validate":
        report = validate(config)
        return {"violations": report}, report

    violations = validate(config)
    if violations:
        raise InvalidArgumentError("; ".join(violations))

    rule = build_rule(config.measure)
    kern = build_kernel(config.kernel, rule)
    op = nystrom.discretize(kern, rule)
    if dump_operator:
        write_complex_csv(f"{dump_operator}_K.csv", op.K)
        write_complex_csv(f"{dump_operator}_A.csv", op.A)
        write_complex_csv(f"{dump_operator}_B.csv", op.B)
    p = config.params
    cmd = config.command

    if cmd in ("eig", "djf"):
        d = spectral.hermitian_eig(op) if cmd == "eig" else spectral.djf_eig(op)
        if dump_vectors:
            write_complex_csv(f"{dump_vectors}_P.csv", d.right)
            write_complex_csv(f"{dump_vectors}_Q.csv", d.left)
        obj = decomposition_to_obj(d)
        return obj, [[v] for v in d.eigenvalues]

    if cmd == "jordan":
        jf = jordan.jordan_decompose(op.A, cluster_tol=float(p.get("cluster_tol", 1e-7)))
        if dump_vectors:
            write_complex_csv(f"{dump_vectors}_P.csv", jf.P)
            write_complex_csv(f"{dump_vectors}_Q.csv", jf.Q)
        obj = jordan_to_obj(jf)
        return obj, [[lam, complex(m)] for lam, m in jf.blocks]

    if cmd == "svd":
        sv = opsvd.operator_svd(op)
        if dump_vectors:
            write_complex_csv(f"{dump_vectors}_P.csv", sv.left)
            write_complex_csv(f"{dump_vectors}_Q.csv", sv.right)
        obj = {
            "singular_values": [float(t) for t in sv.singular_values],
            "rank_numerical": sv.rank_numerical,
        }
        return obj, [[complex(t)] for t in sv.singular_values]

    if cmd == "solve":
        lam = _get_lambda(p)
        rhs = p.get("rhs", "ones")
        if isinstance(rhs, str):
            if rhs == "ones":
                f = np.ones(op.A.shape[1], dtype=complex)
            else:
                f = read_complex_csv(rhs).reshape(-1)
        else:
            f = np.array([obj_to_complex(v) for v in rhs])
        sol = fredholm.resolvent_solve(op, lam, f)
        obj = {
            "lambda": complex_to_obj(lam),
            "residual": sol.residual,
            "nearest_eigen_gap": sol.nearest_eigen_gap,
            "solution": [complex_to_obj(v) for v in sol.solution],
        }
        return obj, [[v] for v in sol.solution]

    if cmd == "det":
        method = p.get("method", "direct")
        if "lambda_grid" in p:
            a, b, steps = _parse_grid(p["lambda_grid"])
            lams = np.linspace(a, b, steps)
        else:
            lams = [_get_lambda(p)]
        evals = [fredholm.fredholm_determinant(op, lam, method) for lam in lams]
        obj = {
            "method": method,
            "values": [
                {"lambda": complex_to_obj(e.lam), "re": e.value.real, "im": e.value.imag}
                for e in evals
            ],
        }
        return obj, [[e.lam, complex(e.value.real), complex(e.value.imag)] for e in evals]

    if cmd == "iterate":
        n = int(p.get("n", 1))
        Kn = nystrom.iterated_kernel(op, n)
        obj = {
            "n": n,
            "matrix": [[complex_to_obj(v) for v in row] for row in Kn],
        }
        return obj, Kn

    if cmd == "powerit":
        k = int(p.get("k", 1))
        tol = float(p.get("tol", 1e-10))
        nmax = int(p.get("nmax", 200))
        res = powerit.sequential_spectrum(op, k, nmax, tol)
        obj = {
            "estimates": [complex_to_obj(nu) for nu, _p, _q in res],
            "ratios": [
                [complex_to_obj(r) for r in tr.ratios] for tr in res.traces
            ],
            "stages_completed": res.stages_completed,
            "failure": res.failure_reason,
        }
        return obj, [[nu] for nu, _p, _q in res]

    if cmd == "trace":
        n = int(p.get("n", 0))
        sv = opsvd.operator_svd(op)
        val = opsvd.trace_power(sv, n)
        return {"n": n, "value": val}, [[complex(val)]]

    raise InvalidArgumentError(f"unknown command {config.command!r}")


def _render_csv(command, rows):
    """CSV text of execute's rows; validate writes one violation per line."""
    if command == "validate":
        return "".join(v + "\n" for v in rows)
    return csv_text(rows)


def _cap_threads():
    import os

    raw = os.environ.get("FREDKIT_THREADS")
    if raw is None:
        return None
    try:
        n = max(1, int(raw))
    except ValueError:
        return None
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass  # env vars set by fredkit.__init__ cover fresh interpreters
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fredkit",
        description="Integral-operator toolkit: spectral, Jordan, SVD, "
        "resolvent and determinant computations from one JSON config.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=COMMANDS,
        help="override the config's command field",
    )
    parser.add_argument("-c", "--config", help="config JSON path ('-' or omitted: stdin)")
    parser.add_argument("--format", choices=("json", "csv"), help="override output format")
    parser.add_argument("--output", help="override output destination path")
    parser.add_argument(
        "--dump-operator",
        metavar="PREFIX",
        help="also write PREFIX_K.csv, PREFIX_A.csv, PREFIX_B.csv",
    )
    parser.add_argument(
        "--dump-vectors",
        metavar="PREFIX",
        help="for eig/djf/jordan/svd: also write PREFIX_P.csv, PREFIX_Q.csv",
    )
    args = parser.parse_args(argv)
    _cap_threads()

    import json

    try:
        if args.config and args.config != "-":
            with open(args.config) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
        config = RunConfig.from_dict(doc)
    except (OSError, ValueError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command:
        config.command = args.command
    if args.format:
        config.output_format = args.format
    if args.output:
        config.destination = args.output
    if config.command not in COMMANDS:
        print(f"config error: unknown command {config.command!r}", file=sys.stderr)
        return 2

    try:
        obj, rows = execute(
            config, dump_operator=args.dump_operator, dump_vectors=args.dump_vectors
        )
    except FredkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if config.output_format == "json":
        text = dumps_canonical(obj, indent=2) + "\n"
    else:
        text = _render_csv(config.command, rows)
    if config.destination:
        with open(config.destination, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
