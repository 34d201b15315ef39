"""The four workloads: seeded inputs, one round of fredkit calls, checks.

Each workload builds its inputs from the seed, computes its references apart
from fredkit, and then runs rounds.  A round is timed on its own and does the
same fredkit calls every time on inputs drawn for that round from
``default_rng([seed, round])``, so the inputs repeat for a seed whatever the
run length.  Checks run after a round, outside its timer, and return
``(name, error, bound)`` triples; a check passes when ``error <= bound``.

References never come from fredkit's own answers: kernels are evaluated with
the formulas below, spectra come from closed forms or from ``eigvalsh`` of
the benchmark's own matrix, and rules are compared against numpy's
``leggauss``/``hermegauss`` and exact moments.  Reference matrices are built
on the nodes and weights of fredkit's rule once that rule has passed its own
check: at n = 1024 numpy's ``leggauss`` weights sit 1.3e-9 (relative) from
fredkit's and miss the exact moments by 10x more, so a reference built on
them would move every spectral bound up by two orders of magnitude.
"""
import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np
import scipy.linalg
from numpy.polynomial import hermite_e, legendre

import fredkit as fk
from fredkit import cli
from fredkit.kernels import ClosedForm

U = np.finfo(float).eps / 2  # unit roundoff
RETAIN_RTOL = 1e-12  # fredkit's documented retained-spectrum cut (|nu| > 1e-12 |nu_1|)
RESID_RTOL = 1e-9  # eigen-residual budget djf_eig enforces, relative to |nu_1|
ORTH_TOL = 1e-10  # weighted-orthonormality budget of the polished eigenvectors
BIORTH_TOL = 1e-8  # bi-orthogonality budget djf_eig and deflate enforce
NORMAL_MOMENTS = (1.0, 1.0, 3.0, 15.0)  # E[x^{2k}] of the standard normal


# ---------------------------------------------------------------- formulas

def mehler(r, y, z):
    """Mehler kernel: bivariate-normal density over the product of marginals."""
    c = 1.0 / (2.0 * (1.0 - r * r))
    return np.exp((2.0 * r * y * z - r * r * (y * y + z * z)) * c) / math.sqrt(1.0 - r * r)


def mehler_scalar(r, y, z):
    c = 1.0 / (2.0 * (1.0 - r * r))
    return math.exp((2.0 * r * y * z - r * r * (y * y + z * z)) * c) / math.sqrt(1.0 - r * r)


def twin_kernel(r, a, counter=None):
    """e^{iay} M_r(y, z) e^{-iaz}: a unitary diagonal similarity of Mehler."""
    def evaluator(y, z):
        if counter is not None:
            counter["kernels.evaluator_calls"] += 1
        return np.exp(1j * a * y) * mehler(r, y, z) * np.exp(-1j * a * z)
    return fk.Kernel(shape=(1, 1), body=ClosedForm(evaluator))


def fredholm_det(r, lam):
    """D(lambda) = prod_j (1 - lambda r^j) for Mehler against the normal law,
    with the number of factors multiplied."""
    out = 1.0 + 0.0j
    j = 0
    while abs(lam) * abs(r) ** j > 1e-20:
        out *= 1.0 - lam * r ** j
        j += 1
    return out, j


def det_bound(n, lam, r, factors):
    """Relative error allowed between det(I - lam A) of order n by LU and
    the reference product: the first-order LU estimate n u cond(M), with
    cond(M) = (1 + |lam|) / min_j |1 - lam r^j| for the symmetrized Mehler
    operator (spectrum r^j, norm 1), plus 4u per reference factor (one
    rounding to form it, up to 3 in the complex multiply)."""
    cond = (1.0 + abs(lam)) / float(np.min(np.abs(1.0 - lam * r ** np.arange(factors + 1))))
    return (n * cond + 4 * factors) * U


def eig_conditions(B):
    """Eigenvalues of B with their condition numbers ||x|| ||y|| / |y^H x|."""
    vals, left, right = scipy.linalg.eig(B, left=True, right=True)
    dots = np.abs(np.sum(left.conj() * right, axis=0))
    return vals, np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) / dots, left, right


def dropped_mass(r):
    """sum of r^j over the eigenvalues the retained-spectrum cut may drop.

    The cut keeps |nu| > 1e-12 |nu_1|; starting one index early covers a
    computed eigenvalue near the cut landing on the other side.
    """
    j = math.ceil(math.log(RETAIN_RTOL) / math.log(abs(r))) - 1
    return abs(r) ** j / (1.0 - abs(r))


def he_table(x, degree):
    """He_0..He_degree at x, one row per degree (numpy's hermite_e)."""
    return np.array([hermite_e.hermeval(x, np.eye(degree + 1)[k]) for k in range(degree + 1)])


def wnorms(w, X):
    """Weighted 2-norms of the columns of X."""
    return np.sqrt(np.sum(w[:, None] * np.abs(X) ** 2, axis=0))


def max_rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def rule_checks(rule, prefix, x_np, moments):
    """fredkit's rule against numpy's nodes and the exact even moments."""
    n = rule.count
    node_err = float(np.max(np.abs(rule.nodes - x_np)) / np.max(np.abs(x_np)))
    mom_err = max(
        abs(float(np.sum(rule.weights * rule.nodes ** (2 * k))) - m) / m
        for k, m in enumerate(moments)
    )
    return [
        (f"{prefix}.rule_nodes", node_err, n * U),
        (f"{prefix}.rule_moments", mom_err, n * U),
    ]


class Workload:
    """A workload: ``setup``, then per round ``draw`` inputs, ``run_round``
    (the timed fredkit calls) and ``check`` the results."""

    name = ""
    nominal_round_s = 1.0  # seconds of --seconds per round: sets the round count
    round_multiple = 1
    # whether round times are divided by the calibration computation's time
    calibrated = True
    # result key -> relative size of the perturbation the self-check applies
    perturb = {}
    # keys holding node samples, one column per vector
    families = ()

    def __init__(self, seed, counter=None, small=False, workdir="."):
        self.seed = seed
        self.counter = counter  # Counter for the traced run's counts, or None
        self.small = small  # reduced sizes, for the self-check
        self.workdir = workdir  # where a workload may write its files

    def rounds(self, seconds):
        m = self.round_multiple
        return m * max(1, round(seconds / (self.nominal_round_s * m)))

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def like(self, i):
        """Rounds of the main kind; percentiles are taken over these only."""
        return True

    def perturbations(self, res):
        """(label, perturbed copy) pairs: one entry of each result moved."""
        for key, size in self.perturb.items():
            if key not in res:
                continue
            arr = np.array(res[key], dtype=complex)
            if key in self.families:  # first vector, at the middle node, where the weight is largest
                k = (arr.shape[0] // 2, 0)
                arr[k] += size * np.max(np.abs(arr[:, 0]))
            else:
                k = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
                arr[k] += size * abs(arr[k])
            yield f"{key} off by {size:g}", dict(res, **{key: arr})


# ------------------------------------------------------------ spectra-n1024

class Spectra(Workload):
    """Dense decompositions at the largest size the rules allow."""

    name = "spectra-n1024"
    nominal_round_s = 8.5
    # seconds-long LAPACK calls average the host's short slow-downs themselves;
    # the few calibration samples a 9 s round allows would add noise instead
    calibrated = False
    R = 0.5
    perturb = {
        "herm_vals": 1e-6, "herm_vecs": 1e-6, "djf_vals": 1e-6, "djf_right": 1e-6,
        "djf_left": 1e-6, "sv_vals": 1e-6, "sv_left": 1e-6, "sv_right": 1e-6, "k20_diag": 1e-8,
    }
    families = ("herm_vecs", "djf_right", "djf_left", "sv_left", "sv_right")

    def setup(self):
        n = 128 if self.small else 1024
        self.rule = fk.gauss_legendre(n, -4.0, 4.0)
        self.mehler = fk.mehler_kernel(self.R)
        t, _ = legendre.leggauss(n)
        x, w = self.rule.nodes, self.rule.weights
        self.rule_ref = ("spectra", 4.0 * t, [8.0 * 4.0 ** (2 * k) / (2 * k + 1) for k in range(4)])
        self.setup_checks = rule_checks(self.rule, *self.rule_ref)
        self.K = mehler(self.R, x[:, None], x[None, :])
        B = np.sqrt(w)[:, None] * self.K * np.sqrt(w)[None, :]
        self.nu = np.linalg.eigvalsh(B)[::-1]
        self.trace = float(np.sum(w * np.diag(self.K)))
        self.hs2 = float(np.sum(B ** 2))
        self.trace20 = float(np.sum(self.nu ** 20))

    def draw(self, i):
        return {"a": self.rng(i).uniform(0.5, 1.5)}

    def run_round(self, inp, ops):
        ops.start()
        op_m = fk.discretize(self.mehler, self.rule)
        ops.start()
        op_t = fk.discretize(twin_kernel(self.R, inp["a"], self.counter), self.rule)
        ops.start()
        dh = fk.hermitian_eig(op_m)
        ops.start()
        dj = fk.djf_eig(op_t)
        ops.start()
        sv = fk.operator_svd(op_t)
        ops.start()
        k20 = fk.iterated_kernel(op_t, 20)
        # copies of what the checks read, so the N x N arrays are freed before
        # the checks allocate theirs and peak memory stays fredkit's
        return {
            "herm_vals": dh.eigenvalues, "herm_vecs": dh.right[:, : dh.retained].copy(),
            "djf_vals": dj.eigenvalues, "djf_right": dj.right[:, : dj.retained].copy(),
            "djf_left": dj.left[:, : dj.retained].copy(),
            "sv_vals": sv.singular_values, "sv_left": sv.left[:, : sv.rank_numerical].copy(),
            "sv_right": sv.right[:, : sv.rank_numerical].copy(), "k20_diag": np.diag(k20).copy(),
        }

    def check(self, inp, res):
        w = self.rule.weights
        n = w.size
        nu1 = self.nu[0]
        ref = np.sort(self.nu)
        phase = np.exp(1j * inp["a"] * self.rule.nodes)
        K_t = phase[:, None] * self.K * phase.conj()[None, :]
        A_t = K_t * w

        def spectrum_err(vals):
            vals = np.asarray(vals)
            return max(np.max(np.abs(np.sort(vals.real) - ref)), np.max(np.abs(vals.imag))) / nu1

        def orth_err(Q, P):
            G = Q.conj().T @ (w[:, None] * P)
            return float(np.max(np.abs(G - np.eye(G.shape[0]))))

        def resid(A, P, vals):
            return float(np.max(wnorms(w, A @ P - P * vals[: P.shape[1]]))) / nu1

        hv, hp = res["herm_vals"], res["herm_vecs"]
        dv, dp, dq = res["djf_vals"], res["djf_right"], res["djf_left"]
        sv, sp, sq = res["sv_vals"], res["sv_left"], res["sv_right"]
        left = K_t.conj().T @ (w[:, None] * dq) - dq * np.conj(dv[: dq.shape[1]])
        sum_scale = float(np.sum(np.abs(self.nu)))
        return [
            ("spectra.hermitian_eigenvalues", spectrum_err(hv), n * U),
            ("spectra.hermitian_trace", abs(np.sum(hv) - self.trace) / sum_scale, n * U),
            ("spectra.hermitian_orthonormality", orth_err(hp, hp), ORTH_TOL),
            ("spectra.hermitian_residual", resid(self.K * w, hp, hv), RESID_RTOL),
            ("spectra.djf_eigenvalues", spectrum_err(dv), n * U),
            ("spectra.djf_trace", abs(np.sum(dv) - self.trace) / sum_scale, n * U),
            ("spectra.djf_biorthogonality", orth_err(dq, dp), BIORTH_TOL),
            ("spectra.djf_right_residual", resid(A_t, dp, dv), RESID_RTOL),
            ("spectra.djf_left_residual",
             float(np.max(wnorms(w, left) / wnorms(w, dq))) / nu1, RESID_RTOL),
            ("spectra.svd_hilbert_schmidt", abs(np.sum(sv ** 2) - self.hs2) / self.hs2, n * U),
            ("spectra.svd_orthonormality", max(orth_err(sp, sp), orth_err(sq, sq)), ORTH_TOL),
            ("spectra.svd_pairs",
             float(np.max(wnorms(w, A_t @ sq - sp * sv[: sp.shape[1]]))) / sv[0], RESID_RTOL),
            ("spectra.iterate20_trace",
             abs(np.sum(w * res["k20_diag"]) - self.trace20) / self.trace20, 20 * n * U),
        ]


# ------------------------------------------------------------- lambda-sweep

class LambdaSweep(Workload):
    """Resolvent solves and determinants at many lambda on fixed operators."""

    name = "lambda-sweep"
    nominal_round_s = 0.3
    round_multiple = 10  # every tenth round is a refusal round
    R = 0.5
    DEGREE = 5
    SOLVE_TOL = 3e-13
    perturb = {"solution": 1e-8, "det_direct": 1e-6, "det_product": 1e-6, "nearest": 1e-6}

    def setup(self):
        n = 64 if self.small else 256
        self.rule = fk.gauss_hermite_prob(n)
        x_np, _ = hermite_e.hermegauss(n)
        self.rule_ref = ("lambda", x_np, NORMAL_MOMENTS)
        self.setup_checks = rule_checks(self.rule, *self.rule_ref)
        x = self.rule.nodes
        self.phases = [np.ones(n), np.exp(1j * x)]  # Mehler, then its twin
        self.ops = [
            fk.discretize(fk.mehler_kernel(self.R), self.rule),
            fk.discretize(twin_kernel(self.R, 1.0, self.counter), self.rule),
        ]
        self.he = he_table(x, self.DEGREE)
        self.gain = self.R ** np.arange(self.DEGREE + 1)

    def like(self, i):
        return i % 10 != 9

    def draw(self, i):
        rng = self.rng(i)
        if not self.like(i):
            j = int(rng.integers(0, 6))
            return {"j": j, "lam": 2.0 ** j * (1.0 + rng.uniform(-1e-10, 1e-10))}
        lam = complex(rng.uniform(-4.0, 12.0), rng.uniform(0.5, 3.0) * rng.choice([-1, 1]))
        c = rng.standard_normal(self.DEGREE + 1) + 1j * rng.standard_normal(self.DEGREE + 1)
        return {"lam": lam, "c": c}

    def run_round(self, inp, ops):
        lam = inp["lam"]
        if "j" in inp:
            nearest = []
            for op in self.ops:
                ops.start()
                try:
                    fk.resolvent_solve(op, lam, np.ones(op.A.shape[0], dtype=complex))
                    nearest.append(np.nan)  # not refused: the check reports it
                except fk.EigenvalueProximityError as exc:
                    nearest.append(exc.nearest)
            return {"nearest": np.array(nearest)}
        f = inp["c"] @ self.he
        sol, direct, product = [], [], []
        for op, ph in zip(self.ops, self.phases):
            ops.start()
            sol.append(fk.resolvent_solve(op, lam, f * ph).solution)
            ops.start()
            direct.append(fk.fredholm_determinant(op, lam, "direct").value)
            ops.start()
            product.append(fk.fredholm_determinant(op, lam, "product").value)
        return {"solution": np.array(sol), "det_direct": np.array(direct),
                "det_product": np.array(product)}

    def check(self, inp, res):
        lam = inp["lam"]
        if "j" in inp:
            target = 2.0 ** inp["j"]
            err = float(np.max(np.abs(res["nearest"] - target))) / target  # nan: not refused
            return [("lambda.refusal_names_eigenvalue", np.nan_to_num(err, nan=np.inf), 1e-12)]
        n = self.rule.count
        expect = (inp["c"] / (1.0 - lam * self.gain)) @ self.he
        sol_err = max(max_rel(s, expect * ph) for s, ph in zip(res["solution"], self.phases))
        d, factors = fredholm_det(self.R, lam)
        bound = det_bound(n, lam, self.R, factors)
        return [
            ("lambda.solution", sol_err, self.SOLVE_TOL),
            ("lambda.det_direct", float(np.max(np.abs(res["det_direct"] - d))) / abs(d), bound),
            ("lambda.det_product", float(np.max(np.abs(res["det_product"] - d))) / abs(d),
             abs(lam) * dropped_mass(self.R) + bound),
        ]


# ------------------------------------------------------------------ cli-mix

class CliMix(Workload):
    """Every CLI command, in process, on small configs written at set-up."""

    name = "cli-mix"
    nominal_round_s = 0.3
    # grid kernel with one nan cell: the CLI should exit 1 or 2, not raise
    NAN_CONFIGS = ("nan_eig", "nan_det")
    # the part of each output a content check reads, for the self-check
    PAYLOAD = {
        "eig": "eigenvalues", "djf": "eigenvalues", "jordan": "blocks",
        "svd": "singular_values", "solve": "solution", "det": "values",
        "iterate": "matrix", "powerit": "estimates", "trace": "value",
        "validate": "violations",
    }

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        rng = self.rng(0)
        n_big = 32 if self.small else 128
        n_power = 64 if self.small else 256
        n_trace = 64 if self.small else 200
        gh = {"kind": "gauss-hermite-prob"}
        self.r = {k: float(rng.uniform(0.3, 0.6)) for k in ("eig", "svd", "solve", "det", "powerit", "trace")}
        self.lam = complex(rng.uniform(-2.0, 0.5), rng.uniform(0.5, 2.0))
        self.det_a = float(rng.uniform(-6.0, -2.0))
        self.jordan_lam = float(rng.uniform(0.5, 0.9))
        self.jordan_norm = float(np.linalg.norm(self.jordan_lam * np.eye(3) + np.eye(3, k=1), 2))
        sep_coeffs, self.sep_eigs, self.sep_kappa, self.sep_kappa0, self.sep_norm = self._separable(rng, 48)
        self.rhs_c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # the right-hand side is sampled on the nodes the CLI will use
        self.he_solve = he_table(fk.gauss_hermite_prob(n_big).nodes, 3)
        with open(self._path("rhs.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)  # quotes the "re,im" cells
            for v in self.rhs_c @ self.he_solve:
                writer.writerow([f"{float(v.real)!r},{float(v.imag)!r}"])
        grid = np.array([[mehler_scalar(0.5, y, z) / 8.0 for z in range(8)] for y in range(8)])
        grid[3, 5] = np.nan
        np.savetxt(self._path("nan_grid.csv"), grid, delimiter=",")
        t, _ = legendre.leggauss(n_big)
        x_it = 0.5 + 0.5 * t
        self.iter_ref = (1.0 / 3.0) ** 19 * np.outer(x_it, x_it)

        def mehler_cfg(key):
            return {"name": "mehler", "r": self.r[key]}

        nan_kernel = {"name": "grid", "csv": self._path("nan_grid.csv")}
        nan_rule = {"kind": "discrete", "points": [float(v) for v in range(8)], "weights": [0.125] * 8}
        separable = {"name": "separable", "coeffs": [{"re": v.real, "im": v.imag} for v in sep_coeffs],
                     "rights": self.SEP_RIGHTS, "lefts": self.SEP_LEFTS}
        configs = {  # name: (command, kernel, measure, params)
            "eig": ("eig", mehler_cfg("eig"), dict(gh, n=64), {}),
            "djf": ("djf", separable, {"kind": "gauss-legendre", "n": 48, "a": -1.0, "b": 1.0}, {}),
            "jordan": ("jordan", {"name": "defective", "lam": self.jordan_lam, "m": 3},
                       {"kind": "gauss-legendre", "n": 32, "a": 0.0, "b": 1.0}, {"cluster_tol": 1e-4}),
            "svd": ("svd", mehler_cfg("svd"), dict(gh, n=96), {}),
            "solve": ("solve", mehler_cfg("solve"), dict(gh, n=n_big),
                      {"lambda": {"re": self.lam.real, "im": self.lam.imag}, "rhs": self._path("rhs.csv")}),
            "det": ("det", mehler_cfg("det"), dict(gh, n=64), {"lambda_grid": f"{self.det_a!r}:0.9:40"}),
            "iterate": ("iterate", {"name": "separable", "coeffs": [1.0], "rights": [[0.0, 1.0]], "lefts": [[0.0, 1.0]]},
                        {"kind": "gauss-legendre", "n": n_big, "a": 0.0, "b": 1.0}, {"n": 20}),
            "powerit": ("powerit", mehler_cfg("powerit"), dict(gh, n=n_power), {"k": 3}),
            "trace": ("trace", mehler_cfg("trace"), dict(gh, n=n_trace), {"n": 2}),
            "validate": ("validate", {"name": "mehler", "r": 1.5}, dict(gh, n=32), {}),
            "nan_eig": ("eig", nan_kernel, nan_rule, {}),
            "nan_det": ("det", nan_kernel, nan_rule, {"lambda": 0.5}),
        }
        self.sizes = {name: cfg[2].get("n", 8) for name, cfg in configs.items()}
        self.argv = {}
        for name, (command, kern, meas, params) in configs.items():
            doc = {"kernel": kern, "measure": meas, "command": command, "params": params,
                   "output": {"format": "json", "destination": self._path(f"out_{name}.json")}}
            with open(self._path(f"{name}.json"), "w") as fh:
                json.dump(doc, fh)
            self.argv[name] = ["-c", self._path(f"{name}.json")]
        self.digests = {}
        self.rule_ref = None
        self.setup_checks = []

    SEP_RIGHTS = [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]  # ascending coefficients
    SEP_LEFTS = [[0.0, 1.0], [1.0], [1.0, 0.0, 1.0]]

    def _separable(self, rng, n):
        """Coefficients of a rank-3 polynomial kernel and the eigenvalues of
        its moment matrix c_j <left_j, right_k>, drawn until those are well
        separated so that djf_eig's contract (diagonalizable) applies.  Also
        the scale for the check: the eigenvalue condition numbers and norm
        of the benchmark's own W^1/2 K W^1/2 on the n-node rule, and the norm
        of the spectral projector onto the null space."""
        t, w = legendre.leggauss(16)  # exact for these degree <= 4 products
        R = np.array([np.polynomial.polynomial.polyval(t, p) for p in self.SEP_RIGHTS])
        L = np.array([np.polynomial.polynomial.polyval(t, p) for p in self.SEP_LEFTS])
        while True:
            c = rng.uniform(0.3, 1.0, 3) * np.exp(1j * rng.uniform(-0.5, 0.5, 3))
            ev = np.linalg.eigvals(c[:, None] * (L * w) @ R.T)
            gaps = np.abs(ev[:, None] - ev[None, :]) + np.eye(3)
            if gaps.min() > 0.1 * np.abs(ev).max():
                break
        t, w = legendre.leggauss(n)
        R = np.array([np.polynomial.polynomial.polyval(t, p) for p in self.SEP_RIGHTS])
        L = np.array([np.polynomial.polynomial.polyval(t, p) for p in self.SEP_LEFTS])
        sw = np.sqrt(w)
        B = (sw[:, None] * (R.T * c)) @ (L * sw)
        vals, kappa, left, right = eig_conditions(B)
        top = np.argsort(-np.abs(vals))[:3]
        kappa = [kappa[int(np.argmin(np.abs(vals[top] - e)))] for e in ev]
        proj = np.eye(n) - sum(np.outer(right[:, k], left[:, k].conj()) / (left[:, k].conj() @ right[:, k])
                               for k in top)
        return c, ev, np.array(kappa), float(np.linalg.norm(proj, 2)), float(np.linalg.norm(B, 2))

    def draw(self, i):
        return {}

    def run_round(self, inp, ops):
        out = {}
        for name, argv in self.argv.items():
            ops.start()
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:  # an escape breaks the 0/1/2 exit-code contract
                ops.failed += 1
                ops.errors.append(f"cli {name}: {type(exc).__name__}: {exc}")
                continue
            out[name] = {"rc": rc, "stderr": err.getvalue(), "bytes": b""}
        for name, rec in out.items():
            path = self._path(f"out_{name}.json")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    rec["bytes"] = fh.read()
                os.remove(path)
            if self.counter is not None:
                self.counter["serialize.bytes_out"] += len(rec["bytes"])
        return out

    def perturbations(self, res):
        for name in self.NAN_CONFIGS:  # absent from res while the CLI raises on them
            silent = {"rc": 0, "stderr": "", "bytes": b""}
            yield f"{name} exits 0 silently", dict(res, **{name: silent})
        for name, rec in res.items():
            if name in self.NAN_CONFIGS:
                continue
            data = bytearray(rec["bytes"])
            data[0] ^= 1
            yield f"{name} first byte flipped", dict(res, **{name: dict(rec, bytes=bytes(data))})
            obj = json.loads(rec["bytes"])
            obj[self.PAYLOAD[name]] = _nudge(obj[self.PAYLOAD[name]])
            yield (f"{name} largest number off by 1e-6",
                   dict(res, **{name: dict(rec, bytes=json.dumps(obj).encode())}))

    def check(self, inp, res):
        out = []
        for name, rec in res.items():
            if name in self.NAN_CONFIGS:
                ok = rec["rc"] in (1, 2) and rec["stderr"].strip() != ""
                out.append((f"cli.{name}_refused", 0.0 if ok else np.inf, 0.0))
                continue
            try:
                obj = json.loads(rec["bytes"]) if rec["rc"] == 0 else None
            except ValueError:
                obj = None
            out.append((f"cli.{name}_parses", 0.0 if obj is not None else np.inf, 0.0))
            digest = hashlib.sha256(rec["bytes"]).hexdigest()
            same = digest == self.digests.setdefault(name, digest)
            out.append((f"cli.{name}_bytes_repeat", 0.0 if same else np.inf, 0.0))
            if obj is not None:
                # n u for the rule fredkit builds (its moment check's bound)
                # plus n u for the backward error of the solver
                out.append(getattr(self, f"_check_{name}")(obj, 2 * self.sizes[name] * U))
        return out

    def _check_eig(self, obj, nu):
        vals = _complex(obj["eigenvalues"][:12])
        return ("cli.eig_mehler_powers", max_rel(vals, self.r["eig"] ** np.arange(12)), nu)

    def _check_djf(self, obj, nu):
        # first-order perturbation: |d nu_j| <= kappa_j ||dB|| with a backward
        # error ||dB|| <= n u ||B||; the null space moves by its projector norm
        vals = _complex(obj["eigenvalues"])
        top = vals[np.argsort(-np.abs(vals))]
        err = max(float(np.min(np.abs(top[:3] - e))) / k for e, k in zip(self.sep_eigs, self.sep_kappa))
        rest = float(np.abs(top[3])) / self.sep_kappa0
        return ("cli.djf_moment_eigenvalues", max(err, rest) / self.sep_norm, nu)

    def _check_jordan(self, obj, nu):
        blocks = [(complex(b["lambda"]["re"], b["lambda"]["im"]), b["m"]) for b in obj["blocks"]]
        chains = [(lam, m) for lam, m in blocks if m != 1]
        if len(chains) != 1 or chains[0][1] != 3:
            return ("cli.jordan_one_block", np.inf, nu)
        zeros = max((abs(lam) for lam, m in blocks if m == 1), default=0.0)
        # the block's mean eigenvalue and the exact zeros move by the backward
        # error n u ||A||; ||A|| is the norm of the block (orthonormal basis)
        err = max(abs(chains[0][0] - self.jordan_lam), zeros) / self.jordan_norm
        return ("cli.jordan_one_block", err, nu)

    def _check_svd(self, obj, nu):
        vals = np.array(obj["singular_values"][:12])
        return ("cli.svd_mehler_powers", max_rel(vals, self.r["svd"] ** np.arange(12)), nu)

    def _check_solve(self, obj, nu):
        expect = (self.rhs_c / (1.0 - self.lam * self.r["solve"] ** np.arange(4))) @ self.he_solve
        return ("cli.solve_hermite", max_rel(_complex(obj["solution"]), expect), LambdaSweep.SOLVE_TOL)

    def _check_det(self, obj, nu):
        worst = 0.0
        for v in obj["values"]:
            lam = complex(v["lambda"]["re"], v["lambda"]["im"])
            d, factors = fredholm_det(self.r["det"], lam)
            err = abs(complex(v["re"], v["im"]) - d) / abs(d)
            worst = max(worst, err / det_bound(self.sizes["det"], lam, self.r["det"], factors))
        return ("cli.det_grid", worst, 1.0)

    def _check_iterate(self, obj, nu):
        mat = np.array([_complex(row) for row in obj["matrix"]])
        return ("cli.iterate_rank_one", max_rel(mat, self.iter_ref), 20 * nu)

    def _check_powerit(self, obj, nu):
        est = _complex(obj["estimates"])
        if obj["stages_completed"] != 3 or obj["failure"] is not None or est.size != 3:
            return ("cli.powerit_estimates", np.inf, 1e-8)
        return ("cli.powerit_estimates", max_rel(est, self.r["powerit"] ** np.arange(3)), 1e-8)

    def _check_trace(self, obj, nu):
        exact = 1.0 / (1.0 - self.r["trace"] ** 6)  # sum_j (r^j)^(2n+2) at n = 2
        return ("cli.trace_power", abs(obj["value"] - exact) / exact, 6 * nu)

    def _check_validate(self, obj, nu):
        v = obj["violations"]
        ok = len(v) == 1 and v[0].startswith("kernel.r:")
        return ("cli.validate_names_violation", 0.0 if ok else np.inf, 0.0)


def _complex(objs):
    return np.array([complex(o["re"], o["im"]) for o in objs])


def _nudge(node):
    """Copy of a parsed JSON payload with its largest number moved by 1e-6
    (relative), or with its first string changed when it holds no number."""
    leaves = []

    def walk(v, path):
        if isinstance(v, dict):
            for k in v:
                walk(v[k], path + (k,))
        elif isinstance(v, list):
            for k, item in enumerate(v):
                walk(item, path + (k,))
        else:
            leaves.append((path, v))

    walk(node, ())
    numbers = [(p, v) for p, v in leaves if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if numbers:
        path, v = max(numbers, key=lambda pv: abs(pv[1]))
        new = v * (1.0 + 1e-6) if v else 1e-6
    else:
        path, v = leaves[0]
        new = "_" + v
    if not path:
        return new
    node = json.loads(json.dumps(node))
    parent = node
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = new
    return node


# ------------------------------------------------------------ block-powerit

class BlockPowerit(Workload):
    """A 2x2 kernel evaluated point pair by point pair, then power iteration."""

    name = "block-powerit"
    nominal_round_s = 0.75
    EXPECT = np.array([1.0, 0.8, 0.6])
    perturb = {"estimates": 1e-6, "right": 1e-6, "left": 1e-6}
    families = ("right", "left")

    def setup(self):
        n = 64 if self.small else 256
        self.rule = fk.gauss_hermite_prob(n)
        x_np, _ = hermite_e.hermegauss(n)
        self.rule_ref = ("block", x_np, NORMAL_MOMENTS)
        self.setup_checks = rule_checks(self.rule, *self.rule_ref)
        self.w2 = np.repeat(self.rule.weights, 2)

    def draw(self, i):
        rng = self.rng(i)
        while True:
            S = rng.uniform(-1.0, 1.0, (2, 2)) + 1.5 * np.eye(2)
            if np.linalg.cond(S) < 4.0:
                return {"S": S, "Si": np.linalg.inv(S)}

    def run_round(self, inp, ops):
        S, Si = inp["S"], inp["Si"]
        counter = self.counter

        def evaluator(y, z):
            if counter is not None:
                counter["kernels.evaluator_calls"] += 1
            return (S * np.array([mehler_scalar(0.6, y, z), 0.8 * mehler_scalar(-0.5, y, z)])) @ Si

        ops.start()
        op = fk.discretize(fk.Kernel(shape=(2, 2), body=ClosedForm(evaluator)), self.rule)
        ops.start()
        res = fk.sequential_spectrum(op, 3, 400, 1e-10)
        return {
            "estimates": np.array(res.eigenvalues),
            "right": np.column_stack([p for _, p, _ in res]) if len(res) else np.zeros((0, 0)),
            "left": np.column_stack([q for _, _, q in res]) if len(res) else np.zeros((0, 0)),
        }

    def check(self, inp, res):
        est = res["estimates"]
        if est.size != 3:
            return [("block.estimates", np.inf, 1e-8), ("block.biorthogonality", np.inf, BIORTH_TOL)]
        G = res["left"].conj().T @ (self.w2[:, None] * res["right"])
        return [
            ("block.estimates", float(np.max(np.abs(est - self.EXPECT))), 1e-8),
            ("block.biorthogonality", float(np.max(np.abs(G - np.eye(3)))), BIORTH_TOL),
        ]


WORKLOADS = {cls.name: cls for cls in (Spectra, LambdaSweep, CliMix, BlockPowerit)}
