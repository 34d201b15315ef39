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
output.  Exit codes: 0 success, 1 computation error or field violation
(category printed on stderr), 2 config/usage error.

A config is validated by building it: each field goes through the library's
check of its kind, the rule and kernel constructors enforce their own
constraints, and failures are labelled ``section.key:``.

Kernels: mehler (r), separable (coeffs + rights/lefts as polynomial
coefficient lists, ascending powers), defective (lam, m; basis built from
the measure), grid (csv path with "re,im" cells).  Measures: the
constructor specs gauss-legendre {n,a,b}, gauss-hermite-prob {n},
discrete {points,weights}, or an inline rule {nodes,weights}.
"""
import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fredholm, jordan, kernels, measure, nystrom, opsvd, powerit, spectral
from .errors import (FredkitError, InvalidArgumentError, _array_arg, _count_arg, _number_arg,
                     _tolerance_arg)
from .serialize import (csv_text, dumps_canonical, obj_to_complex, read_complex_csv,
                        write_complex_csv)

COMMANDS = (
    "eig", "djf", "jordan", "svd", "solve", "det", "iterate", "powerit",
    "trace", "validate",
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
        """Raises InvalidArgumentError unless the document and each of its
        sections is a JSON object and the destination a path or null."""
        if not isinstance(doc, dict):
            raise InvalidArgumentError("config must be a JSON object")
        sections = {}
        for key in ("kernel", "measure", "params", "output"):
            sections[key] = {} if doc.get(key) is None else doc[key]
            if not isinstance(sections[key], dict):
                raise InvalidArgumentError(f"{key}: must be a JSON object, got {doc[key]!r}")
        out = sections["output"]
        if not isinstance(out.get("destination", ""), (str, type(None))):
            raise InvalidArgumentError("output.destination: must be a path or null")
        return RunConfig(
            kernel=sections["kernel"],
            measure=sections["measure"],
            command=doc.get("command", ""),
            params=sections["params"],
            output_format=out.get("format", "json"),
            destination=out.get("destination"),
        )


_REQUIRED = object()
# what reading a field can raise, the constructors' own errors included
_FIELD_ERRORS = (TypeError, ValueError, IndexError, OverflowError, OSError, FredkitError)


def _labelled(label, fn, *args, **kwargs):
    """fn(...), any failure raised as InvalidArgumentError("label: message")."""
    try:
        return fn(*args, **kwargs)
    except _FIELD_ERRORS as exc:
        raise InvalidArgumentError(f"{label}: {exc}") from None


def _field(section, spec, key, convert, default=_REQUIRED):
    """convert(spec[key]) labelled section.key, or `default` when the key is absent."""
    if key in spec:
        return _labelled(f"{section}.{key}", convert, spec[key])
    if default is _REQUIRED:
        raise InvalidArgumentError(f"{section}.{key}: required")
    return default


def _build(section, constructor, spec, **converters):
    """constructor(**fields), each field read by _field; the constructor's
    own failures span several fields, so they carry the bare section label."""
    fields = {key: _field(section, spec, key, convert) for key, convert in converters.items()}
    return _labelled(section, constructor, **fields)


# the library's checks, one per kind of field.  _rule_size also caps a lambda
# grid (an LU a step); a vector's values are its constructor's to check
_real = functools.partial(_number_arg, name="value", real=True)
_tolerance = functools.partial(_tolerance_arg, name="value")
_count = functools.partial(_count_arg, name="count")
_positive_count = functools.partial(_count_arg, name="count", low=1)
_rule_size = functools.partial(_count_arg, name="count", low=1, high=measure.MAX_RULE_SIZE)
_vector = functools.partial(_array_arg, name="value", shape=(None,), real=True, finite=False)


def build_rule(spec):
    """QuadratureRule from a measure spec (constructor form or inline rule);
    raises InvalidArgumentError labelled with the failing field."""
    if "nodes" in spec:
        return _build("measure", measure.QuadratureRule, spec, nodes=_vector, weights=_vector)
    kind = spec.get("kind")
    if kind == measure.KIND_GAUSS_LEGENDRE:
        return _build("measure", measure.gauss_legendre, spec,
                      n=_rule_size, a=_real, b=_real)
    if kind == measure.KIND_GAUSS_HERMITE_PROB:
        return _field("measure", spec, "n", measure.gauss_hermite_prob)
    if kind == measure.KIND_DISCRETE:
        return _build("measure", measure.discrete_measure, spec, points=_vector, weights=_vector)
    raise InvalidArgumentError(f"measure.kind: unknown kind {kind!r}")


def _poly(coeffs):
    return np.polynomial.Polynomial([nystrom._narrowed(obj_to_complex(c)) for c in coeffs])


def build_kernel(spec, rule):
    """Kernel from a gallery spec; defective kernels take their basis from
    polynomials orthonormalized under the rule.  Raises InvalidArgumentError
    labelled with the failing field."""
    name = spec.get("name")
    if name == "mehler":
        return _field("kernel", spec, "r", kernels.mehler_kernel)
    if name == "separable":
        return _build("kernel", kernels.separable_kernel, spec,
                      coeffs=lambda cs: [obj_to_complex(c) for c in cs],
                      rights=lambda ps: [_poly(p) for p in ps],
                      lefts=lambda ps: [_poly(p) for p in ps])
    if name == "defective":
        def defective(lam, m):
            basis = kernels.orthonormal_poly_basis(rule, m)
            return kernels.defective_kernel(lam, m, basis, rule)

        return _build("kernel", defective, spec, lam=obj_to_complex, m=_count)
    if name == "grid":
        # os.fspath: a number is not a path (open() would take it for a descriptor)
        return _build("kernel", lambda csv: kernels.grid_kernel(rule, csv), spec,
                      csv=lambda path: read_complex_csv(os.fspath(path)))
    raise InvalidArgumentError(f"kernel.name: unknown kernel {name!r}")


def _positive(value):
    value = _real(value)
    if not value > 0:
        raise ValueError(f"need a value > 0, got {value!r}")
    return value


def _lambda(value):
    """A number, a complex object {"re", "im"} or a pair [re, im] of numbers."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"a pair [re, im] needs exactly two numbers, got {value!r}")
        value = complex(*(_number_arg(v, "lambda part", real=True) for v in value))
    return _number_arg(obj_to_complex(value), "lambda")


def _lambda_grid(text):
    """Real grid 'a:b:steps'; one LU per step, so steps is capped as a rule size is."""
    try:
        a, b, steps = str(text).split(":")
        a, b, steps = float(a), float(b), int(steps)
    except ValueError:
        steps = 0
    if steps < 1 or not -np.inf < a <= b < np.inf:
        raise ValueError(f"malformed, need 'a:b:steps' with finite a <= b, got {text!r}")
    return np.linspace(a, b, _rule_size(steps))


def _det_method(name):
    """The method name as given, which the output echoes, once fredholm's
    method table has it (in any case)."""
    fredholm._determinant_method(name)
    return name


def _rhs(value):
    """None for "ones" (sized by the operator), else the rhs vector."""
    if isinstance(value, str):
        return None if value == "ones" else read_complex_csv(value).reshape(-1)
    return np.array([obj_to_complex(v) for v in value])


# command -> {param: (converter, default)}; _REQUIRED marks a required param
PARAMS = {
    "jordan": {"cluster_tol": (_tolerance, 1e-7)},
    "solve": {"lambda": (_lambda, _REQUIRED), "rhs": (_rhs, None)},
    "det": {"lambda": (_lambda, 0j), "lambda_grid": (_lambda_grid, None),
            "method": (_det_method, "direct")},
    "iterate": {"n": (_positive_count, 1)},
    "trace": {"n": (_count, 0)},
    "powerit": {"k": (_positive_count, 1), "tol": (_positive, 1e-10),
                "nmax": (_positive_count, 200)},
}


def _parse_params(command, params):
    """Typed, range-checked params of one command, defaults filled in."""
    return {key: _field("params", params, key, convert, default)
            for key, (convert, default) in PARAMS.get(command, {}).items()}


def _prepare(config: RunConfig):
    """(violations, rule, kernel, params) of a config; a part that failed
    is None, and a kernel built on the rule is skipped when the rule failed."""
    violations = []
    if config.command not in COMMANDS:
        violations.append(f"command: unknown command {config.command!r}")
    if config.output_format not in ("json", "csv"):
        violations.append(f"output.format: must be json or csv, got {config.output_format!r}")

    def collect(build, *args):
        try:
            return build(*args)
        except InvalidArgumentError as exc:
            violations.append(str(exc))

    rule = collect(build_rule, config.measure)
    on_rule = config.kernel.get("name") in ("defective", "grid")
    kern = collect(build_kernel, config.kernel, rule) if rule or not on_rule else None
    params = collect(_parse_params, config.command, config.params)
    return violations, rule, kern, params


def validate(config: RunConfig):
    """Constraint report: the message of every field or constructor that
    rejects the config.  Builds the rule and kernel; runs no discretization
    or decomposition."""
    return _prepare(config)[0]


def execute(config: RunConfig, dump_operator=None, dump_vectors=None):
    """Run one command; returns (json_obj, csv_rows).

    Each command's branch builds its JSON object and names the (P, Q) pair,
    if any, that dump_vectors writes.  main renders the rows to text only
    when CSV output is asked for.
    """
    if config.command == "validate":
        report = validate(config)
        return {"violations": report}, report

    violations, rule, kern, p = _prepare(config)
    if violations:
        raise InvalidArgumentError("; ".join(violations))
    op = nystrom.discretize(kern, rule)
    if dump_operator:
        write_complex_csv(f"{dump_operator}_K.csv", op.K)
        write_complex_csv(f"{dump_operator}_A.csv", op.A)
        write_complex_csv(f"{dump_operator}_B.csv", op.B)
    cmd = config.command
    vectors = ()  # the (P, Q) pair that --dump-vectors writes, if the command has one

    if cmd in ("eig", "djf"):
        d = spectral.hermitian_eig(op) if cmd == "eig" else spectral.djf_eig(op)
        vectors = d.right, d.left
        obj = {
            "eigenvalues": np.asarray(d.eigenvalues, dtype=complex),
            "biorth_residual": float(d.biorth_residual),
            "hermitian": bool(d.hermitian),
            "retained": int(d.retained),
        }
        rows = [[v] for v in d.eigenvalues]

    elif cmd == "jordan":
        jf = jordan.jordan_decompose(op.A, cluster_tol=p["cluster_tol"])
        vectors = jf.P, jf.Q
        obj = {
            "blocks": [{"lambda": complex(lam), "m": int(m)} for lam, m in jf.blocks],
            "residuals": np.asarray(jf.residuals, dtype=float),
        }
        rows = [[lam, complex(m)] for lam, m in jf.blocks]

    elif cmd == "svd":
        sv = opsvd.operator_svd(op)
        vectors = sv.left, sv.right
        obj = {
            "singular_values": np.asarray(sv.singular_values, dtype=float),
            "rank_numerical": sv.rank_numerical,
        }
        rows = [[complex(t)] for t in sv.singular_values]

    elif cmd == "solve":
        f = np.ones(op.K.shape[1], dtype=complex) if p["rhs"] is None else p["rhs"]
        sol = fredholm.resolvent_solve(op, p["lambda"], f)
        obj = {
            "lambda": complex(sol.lam),
            "residual": sol.residual,
            "nearest_eigen_gap": sol.nearest_eigen_gap,
            "solution": np.asarray(sol.solution, dtype=complex),
        }
        rows = [[v] for v in sol.solution]

    elif cmd == "det":
        lams = [p["lambda"]] if p["lambda_grid"] is None else p["lambda_grid"]
        evals = [fredholm.fredholm_determinant(op, lam, p["method"]) for lam in lams]
        obj = {
            "method": p["method"],
            "values": [
                {"lambda": complex(e.lam), "re": e.value.real, "im": e.value.imag}
                for e in evals
            ],
        }
        rows = [[e.lam, complex(e.value.real), complex(e.value.imag)] for e in evals]

    elif cmd == "iterate":
        Kn = nystrom.iterated_kernel(op, p["n"])
        obj = {
            "n": p["n"],
            "matrix": np.asarray(Kn, dtype=complex),
        }
        rows = Kn

    elif cmd == "powerit":
        res = powerit.sequential_spectrum(op, p["k"], p["nmax"], p["tol"])
        obj = {
            "estimates": np.array([nu for nu, _p, _q in res], dtype=complex),
            "ratios": [np.asarray(tr.ratios, dtype=complex) for tr in res.traces],
            "stages_completed": res.stages_completed,
            "failure": res.failure_reason,
        }
        rows = [[nu] for nu, _p, _q in res]

    else:  # trace
        val = opsvd.trace_power(opsvd.operator_svd(op), p["n"])
        obj, rows = {"n": p["n"], "value": val}, [[complex(val)]]

    if dump_vectors:
        for name, M in zip("PQ", vectors):
            write_complex_csv(f"{dump_vectors}_{name}.csv", M)
    return obj, rows


def _render_csv(command, rows):
    """CSV text of execute's rows; validate writes one violation per line."""
    if command == "validate":
        return "".join(v + "\n" for v in rows)
    return csv_text(rows)


@functools.cache
def _parser():
    """The argument parser, built once per process."""
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
        help="also write PREFIX_P.csv, PREFIX_Q.csv: the N x r retained vectors, or jordan's P, Q",
    )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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
        if config.output_format == "json":
            text = dumps_canonical(obj, indent=2) + "\n"
        else:
            text = _render_csv(config.command, rows)
        if config.destination:
            with open(config.destination, "wb") as fh:
                fh.write(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except FredkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output or dump path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
