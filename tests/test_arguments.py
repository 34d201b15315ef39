"""Malformed arguments: every public entry point refuses them with a
FredkitError subclass, never with a raw Python, numpy or scipy error or a
runtime warning.

Each row of ROWS names a public callable, builds good arguments for it and
lists the arguments to spoil, each with the kind of its spoiled values:
a count gets 2.5, True and -1; a number NaN, inf, 10**400, True and the
text "0.5"; a sample vector a wrong length and a NaN entry; an array a text
entry, a bool entry, a complex entry where it is real, ragged nesting, one
axis too many and a NaN entry where it is finite; a kernel, an operator,
a decomposition, an SVD, a Jordan form or a profile None or a string, and
an operator where a square block shape is needed a (1, 2)-block one too; a
quadrature rule None, a string or an array; a list of functions a number,
None or a list with a number in it; a finite-rank body terms that are not
(number, callable, callable) triples; a block shape None, a number, text,
a triple and a zero or fractional entry; an operator's samples K those of
an array (K may hold a sample that is not finite) and a wrong shape; a
matrix to put in Jordan form an empty one.
test_every_entry_point_has_rows walks ``fredkit.__all__`` so that a public
function taking an object (a kernel, an operator, a decomposition, ...), a
count, a sample vector, an array, a rule or a list of functions cannot ship
without rows here.
"""
import copy
import dataclasses
import functools
import inspect
import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit.kernels import ClosedForm, FiniteRank


@functools.cache
def env():
    """Good arguments, built once: a non-Hermitian two-term operator on GL8
    (eigenvalues 0.5 and 0.2) with its bi-orthogonal decomposition, Mehler
    on GL8 with its SVD (numerical rank 7), a Jordan form and a (1, 2)-block
    operator."""
    rule = fk.gauss_legendre(8, 0.0, 1.0)
    e = fk.orthonormal_poly_basis(rule, 3)
    kern = fk.separable_kernel([0.5, 0.2], [e[0], e[1]], [e[0] + 0.6 * e[2], e[1] - 0.4 * e[2]])
    op = fk.discretize(kern, rule)
    d = fk.djf_eig(op)
    hermitian = fk.discretize(fk.mehler_kernel(0.5), rule)
    wide = fk.Kernel((1, 2), ClosedForm(lambda y, z: np.array([[y * z, y + z]])))
    return {
        "rule": rule, "basis": e[:2], "kernel": kern, "op": op, "d": d,
        "profile": fk.asymptotic_profile(d), "hermitian": hermitian,
        "svd": fk.operator_svd(hermitian), "wide": fk.discretize(wide, rule),
        "jf": fk.jordan_decompose(np.array([[0.5, 1.0], [0.0, 0.5]])),
        "nu": d.eigenvalues[0], "p": d.right[:, 0], "q": d.left[:, 0], "ones": np.ones(8),
    }


def _nan_entry(v):
    v = np.array(v, dtype=complex)
    v[0] = np.nan
    return v


COUNT = {"2.5": lambda v: 2.5, "True": lambda v: True, "-1": lambda v: -1}
NUMBER = {"nan": lambda v: float("nan"), "inf": lambda v: float("inf"),
          "1e400": lambda v: 10 ** 400, "True": lambda v: True, "text": lambda v: "0.5"}
VECTOR = {"short": lambda v: np.asarray(v)[:-1], "nan-entry": _nan_entry}


def _first_entry(new):
    """Spoil: the array as nested lists with its first entry replaced by `new`."""
    def spoil(v):
        entries = np.array(v, dtype=object)
        entries.flat[0] = new
        return entries.tolist()
    return spoil


def _ragged(v):
    """The array as nested lists whose last row is one entry short (of a
    vector: whose last entry is wrapped in a list)."""
    rows = np.asarray(v).tolist()
    rows[-1] = rows[-1][:-1] if isinstance(rows[-1], list) else [rows[-1]]
    return rows


# an array of finite numbers; REAL_ARRAY one of finite real numbers
ARRAY = {"text": _first_entry("0.5"), "bool": _first_entry(True), "ragged": _ragged,
         "rank": lambda v: [np.asarray(v).tolist()], "nan-entry": _first_entry(float("nan"))}
REAL_ARRAY = dict(ARRAY, complex=_first_entry(0.5 + 1j))
# a grid table may hold a cell that is not finite (discretize names its node
# pair), and hermite_he evaluates at any array of real numbers, of any rank
TABLE = {k: ARRAY[k] for k in ("text", "bool", "ragged", "rank")}
POINTS = {k: REAL_ARRAY[k] for k in ("text", "bool", "complex", "ragged")}
# an object argument (kernel, operator, decomposition, ...); an operator
# where a square block shape is needed
OBJECT = {"none": lambda v: None, "text": lambda v: "op"}
OPERATOR = dict(OBJECT, **{"block-1x2": lambda v: env()["wide"]})
PAIR = {"end-" + k: (lambda s: lambda v: (0.0, s(v)))(s) for k, s in NUMBER.items()}
PAIR.update({"scalar": lambda v: 0.5, "triple": lambda v: (0.0, 0.5, 1.0)})
BLOCKS = {"scalar-block": lambda v: [0.5], "triple-block": lambda v: [(0.5, 2, 1)],
          "scalar": lambda v: 0.5}
BODY = {"none": lambda v: None, "function": lambda v: (lambda y, z: y * z),
        "terms-none": lambda v: FiniteRank(None),
        "term-pair": lambda v: FiniteRank((v.terms[0][:2],)),
        "term-text-coeff": lambda v: FiniteRank((("0.5", *v.terms[0][1:]),)),
        "term-nan-coeff": lambda v: FiniteRank(((float("nan"), *v.terms[0][1:]),)),
        "term-not-callable": lambda v: FiniteRank(((v.terms[0][0], 5, v.terms[0][2]),))}
SHAPE = {"none": lambda v: None, "number": lambda v: 1, "text": lambda v: "11",
         "triple": lambda v: (1, 1, 1), "zero": lambda v: (0, 1), "fraction": lambda v: (1.5, 1)}
SAMPLES = dict(TABLE, **{"wrong-shape": lambda v: np.ones((7, 7))})
RULE = {"none": lambda v: None, "text": lambda v: "x", "nodes": lambda v: v.nodes}
FUNCTIONS = {"number": lambda v: 5, "none": lambda v: None, "entry": lambda v: [5, *v[1:]]}

# name -> (callable, good keyword arguments from env(), {argument: spoils})
ROWS = {
    "QuadratureRule": (fk.QuadratureRule,
                       lambda e: dict(nodes=[0.0, 0.5, 1.0], weights=[0.25, 0.5, 0.25]),
                       {"nodes": REAL_ARRAY, "weights": REAL_ARRAY}),
    "discrete_measure": (fk.discrete_measure,
                         lambda e: dict(points=[1.0, 0.0, 0.5], weights=[0.25, 0.5, 0.25]),
                         {"points": REAL_ARRAY, "weights": REAL_ARRAY}),
    "Kernel": (fk.Kernel, lambda e: dict(shape=(1, 1), body=e["kernel"].body),
               {"shape": SHAPE, "body": BODY}),
    "DiscreteOperator": (fk.DiscreteOperator,
                         lambda e: dict(rule=e["rule"], shape=(1, 1), K=e["op"].K),
                         {"rule": RULE, "shape": SHAPE, "K": SAMPLES}),
    "separable_kernel": (fk.separable_kernel,
                         lambda e: dict(coeffs=[0.5, 0.2], rights=e["basis"], lefts=e["basis"]),
                         {"coeffs": ARRAY, "rights": FUNCTIONS, "lefts": FUNCTIONS}),
    "basis_kernel": (fk.basis_kernel,
                     lambda e: dict(coeff_matrix=np.eye(2), basis=e["basis"], rule=e["rule"],
                                    gram_tol=1e-10),
                     {"coeff_matrix": ARRAY, "gram_tol": NUMBER, "basis": FUNCTIONS,
                      "rule": RULE}),
    "grid_kernel": (fk.grid_kernel, lambda e: dict(rule=e["rule"], table=np.eye(8)),
                    {"table": TABLE, "rule": RULE}),
    "lift_to_kernel": (fk.lift_to_kernel,
                       lambda e: dict(blocks=[(0.5, 2)], basis=e["basis"], rule=e["rule"]),
                       {"blocks": BLOCKS, "basis": FUNCTIONS, "rule": RULE}),
    "gauss_legendre": (fk.gauss_legendre, lambda e: dict(n=8, a=0.0, b=1.0),
                       {"n": COUNT, "a": NUMBER, "b": NUMBER}),
    "gauss_hermite_prob": (fk.gauss_hermite_prob, lambda e: dict(n=8), {"n": COUNT}),
    "HermitePair": (fk.HermitePair, lambda e: dict(degree=2), {"degree": COUNT}),
    "hermite_he": (fk.hermite_he, lambda e: dict(j=2, x=[0.1, 0.2]),
                   {"j": COUNT, "x": POINTS}),
    "mehler_kernel": (fk.mehler_kernel, lambda e: dict(r=0.5), {"r": NUMBER}),
    "defective_kernel": (fk.defective_kernel,
                         lambda e: dict(lam=0.5, m=2, basis=e["basis"], rule=e["rule"]),
                         {"lam": NUMBER, "m": COUNT, "basis": FUNCTIONS, "rule": RULE}),
    "orthonormal_poly_basis": (fk.orthonormal_poly_basis,
                               lambda e: dict(rule=e["rule"], count=3),
                               {"count": COUNT, "rule": RULE}),
    "discretize": (fk.discretize, lambda e: dict(kernel=e["kernel"], rule=e["rule"]),
                   {"kernel": OBJECT, "rule": RULE}),
    # apply, its adjoint and the SVD take any block shape
    "apply": (fk.apply, lambda e: dict(op=e["op"], f=e["ones"]), {"op": OBJECT, "f": VECTOR}),
    "apply_adjoint": (fk.apply_adjoint, lambda e: dict(op=e["op"], p=e["ones"]),
                      {"op": OBJECT, "p": VECTOR}),
    "iterated_kernel": (fk.iterated_kernel, lambda e: dict(op=e["op"], n=3),
                        {"op": OPERATOR, "n": COUNT}),
    "nystrom_extend": (fk.nystrom_extend,
                       lambda e: dict(kernel=e["kernel"], rule=e["rule"], eig_samples=e["p"],
                                      nu=e["nu"], y=0.3),
                       {"kernel": OBJECT, "eig_samples": VECTOR, "nu": NUMBER, "y": NUMBER,
                        "rule": RULE}),
    "hermitian_eig": (fk.hermitian_eig, lambda e: dict(op=e["hermitian"]), {"op": OPERATOR}),
    "djf_eig": (fk.djf_eig, lambda e: dict(op=e["op"]), {"op": OPERATOR}),
    "asymptotic_profile": (fk.asymptotic_profile, lambda e: dict(d=e["d"], cluster_tol=1e-8),
                           {"d": OBJECT, "cluster_tol": NUMBER}),
    "power_approx": (fk.power_approx,
                     lambda e: dict(d=e["d"], profile=e["profile"], n=3),
                     {"d": OBJECT, "profile": OBJECT, "n": COUNT}),
    "reconstruct": (fk.reconstruct, lambda e: dict(d=e["d"], k=2), {"d": OBJECT, "k": COUNT}),
    "jordan_block": (fk.jordan_block, lambda e: dict(lam=0.5, m=2),
                     {"lam": NUMBER, "m": COUNT}),
    "jordan_block_power": (fk.jordan_block_power, lambda e: dict(lam=0.5, m=2, n=3),
                           {"lam": NUMBER, "m": COUNT, "n": COUNT}),
    "jordan_decompose": (fk.jordan_decompose,
                         lambda e: dict(N=np.diag([0.5, 0.2]), cluster_tol=1e-7),
                         {"N": dict(ARRAY, empty=lambda v: np.zeros((0, 0))),
                          "cluster_tol": NUMBER}),
    "matrix_power_via_jordan": (fk.matrix_power_via_jordan, lambda e: dict(jf=e["jf"], n=3),
                                {"jf": OBJECT, "n": COUNT}),
    "defective_asymptotic": (fk.defective_asymptotic,
                             lambda e: dict(jf=e["jf"], n=3, tier_rtol=1e-8),
                             {"jf": OBJECT, "n": COUNT, "tier_rtol": NUMBER}),
    "operator_svd": (fk.operator_svd, lambda e: dict(op=e["op"]), {"op": OBJECT}),
    "iterated_gram": (fk.iterated_gram, lambda e: dict(svd=e["svd"], n=2),
                      {"svd": OBJECT, "n": COUNT}),
    "iterated_gram_with_kernel": (fk.iterated_gram_with_kernel,
                                  lambda e: dict(svd=e["svd"], n=1), {"svd": OBJECT, "n": COUNT}),
    "gram_apply": (fk.gram_apply, lambda e: dict(svd=e["svd"], n=1, f=e["ones"]),
                   {"svd": OBJECT, "n": COUNT, "f": VECTOR}),
    "trace_power": (fk.trace_power, lambda e: dict(svd=e["svd"], n=1),
                    {"svd": OBJECT, "n": COUNT}),
    "svd_truncate": (fk.svd_truncate, lambda e: dict(svd=e["svd"], M=1),
                     {"svd": OBJECT, "M": COUNT}),
    "resolvent_solve": (fk.resolvent_solve, lambda e: dict(op=e["op"], lam=0.3, f=e["ones"]),
                        {"op": OPERATOR, "lam": NUMBER, "f": VECTOR}),
    "resolvent_kernel": (fk.resolvent_kernel, lambda e: dict(op=e["op"], lam=0.3),
                         {"op": OPERATOR, "lam": NUMBER}),
    "resolvent_series": (fk.resolvent_series, lambda e: dict(d=e["d"], lam=0.3, k=2),
                         {"d": OBJECT, "lam": NUMBER, "k": COUNT}),
    "second_kind_solve_series": (fk.second_kind_solve_series,
                                 lambda e: dict(d=e["d"], lam=0.3, f=e["ones"], k=2),
                                 {"d": OBJECT, "lam": NUMBER, "f": VECTOR, "k": COUNT}),
    "fredholm_determinant": (fk.fredholm_determinant, lambda e: dict(op=e["op"], lam=0.3),
                             {"op": OPERATOR, "lam": NUMBER}),
    "determinant_log_derivative_check": (
        fk.determinant_log_derivative_check,
        lambda e: dict(op=e["op"], lambda_path=(0.0, 1.0), steps=4),
        {"op": OPERATOR, "lambda_path": PAIR, "steps": COUNT}),
    "first_kind_solve": (fk.first_kind_solve, lambda e: dict(op=e["op"], lambda_j=2.0, tol=1e-6),
                         {"op": OPERATOR, "lambda_j": NUMBER, "tol": NUMBER}),
    "power_ratio_estimate": (fk.power_ratio_estimate,
                             lambda e: dict(op=e["op"], f=e["ones"], n_max=200, tol=1e-10,
                                            probe=e["ones"]),
                             {"op": OPERATOR, "f": VECTOR, "n_max": COUNT, "tol": NUMBER,
                              "probe": VECTOR}),
    "variational_estimate": (fk.variational_estimate, lambda e: dict(op=e["op"]),
                             {"op": OPERATOR}),
    "extract_leading_pair": (fk.extract_leading_pair,
                             lambda e: dict(op=e["op"], nu1=e["nu"], f=e["ones"], g=e["ones"],
                                            n=200, resid_rtol=1e-6),
                             {"op": OPERATOR, "nu1": NUMBER, "f": VECTOR, "g": VECTOR,
                              "n": COUNT, "resid_rtol": NUMBER}),
    # a kernel target, which deflate discretizes on the rule
    "deflate": (fk.deflate, lambda e: dict(target=e["kernel"], nu1=e["nu"], p1=e["p"], q1=e["q"],
                                           rule=e["rule"]),
                {"target": OPERATOR, "nu1": NUMBER, "p1": VECTOR, "q1": VECTOR, "rule": RULE}),
    "sequential_spectrum": (fk.sequential_spectrum,
                            lambda e: dict(op=e["op"], k=1, n_max=200, tol=1e-10),
                            {"op": OPERATOR, "k": COUNT, "n_max": COUNT, "tol": NUMBER}),
}

CASES = [(row, arg, spoil) for row, (_fn, _good, spoils) in ROWS.items()
         for arg, kinds in spoils.items() for spoil in kinds]


def _call(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(**kwargs)


@pytest.mark.parametrize("row", ROWS)
def test_good_arguments_pass(row):
    fn, good, _spoils = ROWS[row]
    _call(fn, good(env()))


@pytest.mark.parametrize("row, arg, spoil", CASES, ids=["-".join(c) for c in CASES])
def test_spoiled_argument_refused(row, arg, spoil):
    fn, good, spoils = ROWS[row]
    kwargs = good(env())
    kwargs[arg] = spoils[arg][spoil](kwargs[arg])
    with pytest.raises(fk.FredkitError):
        _call(fn, kwargs)


# arguments that make an entry point gated: by annotation or by name
GATED_TYPES = (fk.DiscreteOperator, fk.BiSpectralDecomposition, fk.OperatorSVD, fk.JordanForm,
               int)
OBJECT_NAMES = {"op", "target", "d", "svd", "jf", "kernel", "profile"}
COUNT_NAMES = {"n", "k", "m", "M", "count", "steps", "n_max", "degree", "j"}
VECTOR_NAMES = {"f", "g", "p", "p1", "q1", "probe", "eig_samples"}
ARRAY_NAMES = {"nodes", "weights", "points", "table", "coeffs", "coeff_matrix", "N", "x"}
RULE_NAMES = {"rule"}
FUNCTIONS_NAMES = {"rights", "lefts", "basis"}
SPOILED_NAMES = (OBJECT_NAMES | COUNT_NAMES | VECTOR_NAMES | ARRAY_NAMES | RULE_NAMES
                 | FUNCTIONS_NAMES)


def _gated_arguments(obj):
    params = inspect.signature(obj).parameters.values()
    return {p.name for p in params if p.annotation in GATED_TYPES
            or p.name in SPOILED_NAMES}


def test_every_entry_point_has_rows():
    """A public function (or a class that is not a record) taking an
    object, a count, a sample vector, an array, a rule or a list of
    functions has a row, and the row spoils each of these arguments."""
    missing = []
    for name in fk.__all__:
        obj = getattr(fk, name)
        if not callable(obj) or (inspect.isclass(obj) and (
                dataclasses.is_dataclass(obj) or issubclass(obj, (Exception, Warning)))):
            continue
        gated = _gated_arguments(obj)
        if not gated:
            continue
        spoiled = set(ROWS[name][2]) if name in ROWS else set()
        unspoiled = (gated & SPOILED_NAMES) - spoiled
        if name not in ROWS or unspoiled:
            missing.append(f"{name} {sorted(unspoiled or gated)}")
    assert not missing, f"public entry points without rows: {missing}"


# each tolerance an entry point takes: a call with it and good arguments, one
# value in range and the values out of it (a tier tolerance lies in [0, 1),
# any other is >= 0), each of which the check refuses before any arithmetic
def _mehler_gh16():
    return fk.hermitian_eig(fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(16)))


TOLERANCES = {
    "asymptotic_profile": (lambda t: fk.asymptotic_profile(_mehler_gh16(), cluster_tol=t),
                           0.0, [-0.5, 1.0]),
    "defective_asymptotic": (lambda t: fk.defective_asymptotic(env()["jf"], 5, tier_rtol=t),
                             0.0, [-1e-8, 1.0]),
    "jordan_decompose": (lambda t: fk.jordan_decompose(np.array([[0.5, 1.0], [0.0, 0.5]]),
                                                       cluster_tol=t), 0.0, [-1e-7]),
    "first_kind_solve": (lambda t: fk.first_kind_solve(env()["op"], 2.0, tol=t), 1e-8, [-1.0]),
    "power_ratio_estimate": (lambda t: fk.power_ratio_estimate(env()["op"], env()["ones"], 200, t),
                             1e-10, [-1e-10]),
    "extract_leading_pair": (lambda t: fk.extract_leading_pair(
        env()["op"], env()["nu"], env()["ones"], env()["ones"], 200, resid_rtol=t), 1e-6, [-1e-6]),
}


@pytest.mark.parametrize("name", TOLERANCES)
def test_tolerance_out_of_range_refused(name):
    call, good, bad = TOLERANCES[name]
    call(good)
    for value in bad:
        with pytest.raises(fk.InvalidArgumentError, match="must be a finite number"):
            call(value)


def test_empty_basis_refused():
    """An empty basis is refused before its coefficient matrix is read, by
    basis_kernel and by lift_to_kernel with no blocks alike."""
    rule = env()["rule"]
    for call in (lambda: fk.basis_kernel(np.zeros((0, 0)), [], rule),
                 lambda: fk.lift_to_kernel([], [], rule)):
        with pytest.raises(fk.InvalidArgumentError, match="^basis is empty: a basis kernel "
                                                          "needs one function or more$"):
            _call(call, {})


def test_rows_name_public_callables():
    for name, (fn, _good, spoils) in ROWS.items():
        assert getattr(fk, name) is fn and name in fk.__all__
        assert set(spoils) <= set(inspect.signature(fn).parameters)


# record class -> a record of it, built from env(); each holds arrays
RECORDS = {
    "QuadratureRule": lambda e: e["rule"],
    "GridSampled": lambda e: fk.grid_kernel(e["rule"], np.eye(8)).body,
    "DiscreteOperator": lambda e: e["op"],
    "NodePartition": lambda e: e["op"].node_partition,
    "BiSpectralDecomposition": lambda e: e["d"],
    "AsymptoticProfile": lambda e: e["profile"],
    "JordanForm": lambda e: e["jf"],
    "OperatorSVD": lambda e: e["svd"],
    "ResolventSolve": lambda e: fk.resolvent_solve(e["op"], 0.3, e["ones"]),
    "PowerTrace": lambda e: fk.power_ratio_estimate(e["op"], e["ones"], 200, 1e-10),
    "SequentialSpectrumResult": lambda e: fk.sequential_spectrum(e["op"], 1, 200, 1e-10),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_identity(name):
    """A record holding arrays equals itself and not a distinct record with
    equal contents, and hashes: no comparison reaches an array's ambiguous
    truth value."""
    record = RECORDS[name](env())
    twin = copy.deepcopy(record)
    assert type(record).__name__ == name
    assert record == record and not record != record
    assert record != twin and not record == twin
    assert hash(record) == hash(record) and len({record, twin}) == 2


def test_determinants_compare_by_value():
    op = env()["op"]
    assert fk.fredholm_determinant(op, 0.3) == fk.fredholm_determinant(op, 0.3)
