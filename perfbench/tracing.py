"""Spans around fredkit's modules, recorded from outside the package.

``install`` replaces every binding of the public functions of fredkit's
modules -- in the defining module, in modules that imported the name and in
the package namespace -- with a wrapper that records a span, so a call is
seen wherever its caller looks the name up (``spectral.hermitian_eig`` from
``cli``, ``djf_eig`` imported into ``fredholm``).  The LAPACK entry points
fredkit reaches (``numpy.linalg`` functions, scipy's ``lu_factor``,
``lu_solve``, ``eigh_tridiagonal`` and the routines ``get_lapack_funcs``
returns) are wrapped the same way and record a span only inside a fredkit
call.  ``Kernel.sample_matrix`` is wrapped as the sampling layer.

Left unwrapped: ``wlinalg`` and the per-entry converters
``serialize.complex_to_obj``/``obj_to_complex``, which are called once per
vector entry or matrix element and would put the wrapper's cost inside the
times it is meant to measure.  A function already on the span stack is
called straight through, so the recursive ``dumps_canonical`` makes one span
per document.

A span is ``[name, start, end, parent index]``; spans stay in memory and
are written out when the run ends.
"""
import collections
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("measure", "kernels", "nystrom", "spectral", "jordan", "opsvd",
           "fredholm", "powerit", "serialize", "cli")
UNWRAPPED = ("serialize.complex_to_obj", "serialize.obj_to_complex")
NUMPY_LAPACK = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "det", "slogdet", "inv",
                "solve", "qr", "lstsq", "pinv", "matrix_rank", "cholesky")
SCIPY_LAPACK = ("lu_factor", "lu_solve", "eigh_tridiagonal")
CSV_FUNCS = ("serialize.csv_text", "serialize.write_complex_csv", "serialize.read_complex_csv")
# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("measure.rule_s", "s"), ("kernels.sample_s", "s"), ("kernels.evaluator_calls", "count"),
    ("nystrom.discretize_self_s", "s"), ("nystrom.operator_mb", "MB"),
    ("nystrom.iterated_kernel_s", "s"), ("spectral.hermitian_eig_s", "s"),
    ("spectral.djf_eig_s", "s"), ("spectral.lapack_s", "s"), ("spectral.self_s", "s"),
    ("spectral.hermitian_eig.raw_ratio", "ratio"), ("spectral.djf_eig.raw_ratio", "ratio"),
    ("opsvd.operator_svd_s", "s"), ("opsvd.operator_svd.raw_ratio", "ratio"),
    ("fredholm.resolvent_solve_s", "s"), ("fredholm.det_direct_s", "s"),
    ("fredholm.det_product_s", "s"), ("fredholm.eigvals_calls", "count"),
    ("fredholm.lapack_s", "s"), ("fredholm.self_s", "s"),
    ("fredholm.resolvent_solve.raw_ratio", "ratio"), ("powerit.sequential_spectrum_s", "s"),
    ("powerit.deflate_s", "s"), ("powerit.iterations", "count"), ("jordan.decompose_s", "s"),
    ("serialize.dumps_s", "s"), ("serialize.csv_s", "s"), ("serialize.bytes_out", "bytes"),
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.validate_s", "s"),
)


def _module(name):
    return "lapack" if name.startswith(("numpy.", "scipy.")) else name.split(".")[0]


class Tracer:
    """In-memory spans, counts and the inputs kept for the raw-LAPACK ratios."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.operator_bytes = 0
        self.raw = {}  # call name -> {input shape: [seconds, calls, inputs of the last call]}
        self._stack = []
        self._open = set()

    def wrap(self, name, fn, lapack=False, after=None):
        def wrapper(*args, **kwargs):
            if name in self._open or (lapack and not self._stack):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open.add(name)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._open.discard(name)
            if after is not None:
                after(self, span, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def keep_raw(self, name, key, seconds, inputs):
        rec = self.raw.setdefault(name, {}).setdefault(key, [0.0, 0, None])
        rec[0] += seconds
        rec[1] += 1
        rec[2] = inputs

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def per_layer(self, raw_seconds):
        """Per-layer metrics over the traced process.  ``raw_seconds`` maps
        (call name, input shape) to the time of the bare LAPACK call."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total = collections.Counter()
        self_s = collections.Counter()
        lapack = collections.Counter()
        entered = collections.Counter()  # time of outermost calls into each CSV function set
        eigvals_in_fredholm = 0
        for i, (name, _, _, parent) in enumerate(spans):
            total[name] += dur[i]
            self_s[_module(name)] += dur[i] - child[i]
            if name in CSV_FUNCS and (parent < 0 or spans[parent][0] not in CSV_FUNCS):
                entered["csv"] += dur[i]
            if _module(name) == "lapack":
                lapack[_module(spans[parent][0])] += dur[i]
                if name == "numpy.linalg.eigvals":
                    p = parent
                    while p >= 0 and _module(spans[p][0]) != "fredholm":
                        p = spans[p][3]
                    eigvals_in_fredholm += p >= 0
        discretize_self = sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == "nystrom.discretize")

        def ratio(name):
            calls = self.raw.get(name, {})
            base = sum(rec[1] * raw_seconds[(name, key)] for key, rec in calls.items())
            return sum(rec[0] for rec in calls.values()) / base if base else 0.0

        values = {
            "measure.rule_s": sum(v for k, v in total.items() if _module(k) == "measure"),
            "kernels.sample_s": total["kernels.sample_matrix"],
            "kernels.evaluator_calls": self.counts["kernels.evaluator_calls"],
            "nystrom.discretize_self_s": discretize_self,
            "nystrom.operator_mb": self.operator_bytes / 1e6,
            "nystrom.iterated_kernel_s": total["nystrom.iterated_kernel"],
            "spectral.hermitian_eig_s": total["spectral.hermitian_eig"],
            "spectral.djf_eig_s": total["spectral.djf_eig"],
            "spectral.lapack_s": lapack["spectral"],
            "spectral.self_s": self_s["spectral"],
            "spectral.hermitian_eig.raw_ratio": ratio("spectral.hermitian_eig"),
            "spectral.djf_eig.raw_ratio": ratio("spectral.djf_eig"),
            "opsvd.operator_svd_s": total["opsvd.operator_svd"],
            "opsvd.operator_svd.raw_ratio": ratio("opsvd.operator_svd"),
            "fredholm.resolvent_solve_s": total["fredholm.resolvent_solve"],
            "fredholm.det_direct_s": total["fredholm.fredholm_determinant[direct]"],
            "fredholm.det_product_s": total["fredholm.fredholm_determinant[product]"],
            "fredholm.eigvals_calls": eigvals_in_fredholm,
            "fredholm.lapack_s": lapack["fredholm"],
            "fredholm.self_s": self_s["fredholm"],
            "fredholm.resolvent_solve.raw_ratio": ratio("fredholm.resolvent_solve"),
            "powerit.sequential_spectrum_s": total["powerit.sequential_spectrum"],
            "powerit.deflate_s": total["powerit.deflate"],
            "powerit.iterations": self.counts["powerit.iterations"],
            "jordan.decompose_s": total["jordan.jordan_decompose"],
            "serialize.dumps_s": total["serialize.dumps_canonical"],
            "serialize.csv_s": entered["csv"],
            "serialize.bytes_out": self.counts["serialize.bytes_out"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_s["cli"],
            "cli.validate_s": total["cli.validate"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ------------------------------------------------------ hooks on return values

def _discretized(tracer, span, args, kwargs, op):
    size = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
    tracer.operator_bytes = max(tracer.operator_bytes, size)


def _sequential(tracer, span, args, kwargs, res):
    tracer.counts["powerit.iterations"] += sum(tr.iterations_used for tr in res.traces)


def _determinant(tracer, span, args, kwargs, det):
    span[0] = f"{span[0]}[{det.method}]"


def _decomposed(tracer, span, args, kwargs, out):
    op = args[0]
    tracer.keep_raw(span[0], op.B.shape, span[2] - span[1], (op,))


def _solved(tracer, span, args, kwargs, out):
    op = args[0]
    tracer.keep_raw(span[0], op.A.shape, span[2] - span[1], (op, out.lam, args[2]))


AFTER = {
    "nystrom.discretize": _discretized,
    "powerit.sequential_spectrum": _sequential,
    "fredholm.fredholm_determinant": _determinant,
    "spectral.hermitian_eig": _decomposed,
    "spectral.djf_eig": _decomposed,
    "opsvd.operator_svd": _decomposed,
    "fredholm.resolvent_solve": _solved,
}


def raw_seconds(tracer, repeats=3):
    """Median time of the bare LAPACK call on the inputs each traced call
    last saw, per (call name, input shape)."""
    import scipy.linalg

    def bare(name, inputs):
        op = inputs[0]
        if name == "spectral.hermitian_eig":
            return lambda: np.linalg.eigh(op.B)
        if name == "spectral.djf_eig":
            return lambda: np.linalg.eig(op.B)
        if name == "opsvd.operator_svd":
            return lambda: np.linalg.svd(op.B, full_matrices=False)
        _, lam, f = inputs
        M = np.eye(op.A.shape[0], dtype=complex) - lam * op.A
        return lambda: scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), f)

    out = {}
    for name, calls in tracer.raw.items():
        for key, rec in calls.items():
            fn = bare(name, rec[2])
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            out[(name, key)] = sorted(times)[len(times) // 2]
    return out


def install(tracer):
    """Wrap fredkit's public functions and the LAPACK calls they reach."""
    import scipy.linalg

    import fredkit
    from fredkit.kernels import Kernel

    mods = [importlib.import_module(f"fredkit.{m}") for m in MODULES]
    wrappers = {}  # id(original) -> wrapper
    for mod in mods:
        short = mod.__name__.split(".")[-1]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                wrappers[id(obj)] = tracer.wrap(name, obj, after=AFTER.get(name))
    for attr in NUMPY_LAPACK:
        fn = getattr(np.linalg, attr)
        wrappers[id(fn)] = tracer.wrap(f"numpy.linalg.{attr}", fn, lapack=True)
    for attr in SCIPY_LAPACK:
        fn = getattr(scipy.linalg, attr)
        wrappers[id(fn)] = tracer.wrap(f"scipy.linalg.{attr}", fn, lapack=True)
    get_funcs = scipy.linalg.get_lapack_funcs

    def get_lapack_funcs(names, arrays=(), *args, **kwargs):
        funcs = get_funcs(names, arrays, *args, **kwargs)
        if isinstance(funcs, (list, tuple)):
            return [tracer.wrap(f"scipy.linalg.lapack.{f.typecode}{n}", f, lapack=True)
                    for f, n in zip(funcs, names)]
        return tracer.wrap(f"scipy.linalg.lapack.{funcs.typecode}{names}", funcs, lapack=True)

    wrappers[id(get_funcs)] = get_lapack_funcs
    for mod in (fredkit, np.linalg, *mods):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    Kernel.sample_matrix = tracer.wrap("kernels.sample_matrix", Kernel.sample_matrix)
