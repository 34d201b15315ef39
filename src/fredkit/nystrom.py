"""Nystrom discretization of integral operators.

Replacing the integral by a quadrature sum turns the operator into the
dense matrix A = K W with block entry A[i, j] = N(x_i, x_j) * w_j.  An
operator stores one matrix, the raw samples K; every product with A is
K (w x) (_apply_A).  The symmetrized form B = W^{1/2} K W^{1/2}, which
shares A's eigenvalues and turns weighted orthonormality of eigenfunction
samples into Euclidean orthonormality, is formed afresh on each read of
DiscreteOperator.B, as A is on each read of DiscreteOperator.A: one
expression each, whose reader owns (and may overwrite) what it gets.
B's Hermitian defect and one eigen-family record (BiSpectralDecomposition)
per operator are computed once, on first use; DiscreteOperator.family is the
one dispatch: hermitian_family (one eigh of B's Hermitian part) when
hermitian_to_roundoff(), the one gate of every Hermitian shortcut, holds,
else general_family (one sorted Schur form of B).
The reflection route.  On a reflection-symmetric operator (a 1 x 1 block,
mirrored weights and J K J == K, or == conj(K) for a complex K, J reversing
the node order; DiscreteOperator.reflection_symmetric, read off K), that eigh
is two half-size real eighs or one real eigh of the real form
(_reflected_eigh), and iterated_kernel forms the top ceil(N/2) rows of each
product and fills the bottom ones by the exact reflection J X J (conjugated
for a complex X).
K (and A and B) are float64 for a real kernel and complex128
otherwise; _matvec applies a real matrix to complex samples (a vector, a
matrix or a stack of them) without a complex copy of the matrix.
One rule decides every result that can leave the float range (_finite):
its arithmetic runs with numpy's overflow and invalid warnings off, and a
result that is not finite raises InvalidArgumentError naming what
overflowed.  Each map of node samples runs under it at the power-of-two
scale of the samples' largest entry (_scale_free).

Node samples live in the discrete L2(mu), <u, v>_W = sum_i w_i conj(u_i) v_i;
block samples are node-major (entry i*s + c is component c at node i), each
node weight repeated over the block's components (w_rows / w_cols).
"""
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import get_lapack_funcs

from .errors import (
    ConvergenceError,
    EvaluationError,
    InvalidArgumentError,
    NontrivialityWarning,
    ZeroDivisionSignal,
    _array_arg, _count_arg, _instance_arg, _number_arg, _shape_arg,
)
from .kernels import Kernel, _kernel_arg, _real_point
from .measure import QuadratureRule, _rule_arg

UNIT = np.finfo(float).eps / 2  # unit roundoff u

# scipy.linalg.eigh's driver for B's Hermitian part, by dtype kind: divide
# and conquer (dsyevd, as numpy's eigh) for a real B, MRRR (zheevr; Dhillon,
# Parlett & Voemel, ACM TOMS 32(4), 2006) for a complex one.  On Mehler and
# its complex twin (scipy's OpenBLAS 0.3.30, one thread, 2-vCPU Xeon guest),
# dsyevr takes 1.3-1.4x dsyevd's time at N = 32..128 and 0.95-0.99x at 256
# and 1024, while zheevr takes 0.94x zheevd's at N = 128, 0.71x at 256 and
# 0.44x at 1024, for the same full orthonormal family.
EIGH_DRIVER = {"f": "evd", "c": "evr"}
# BiSpectralDecomposition.route of a reflection-symmetric Hermitian family, by
# B's dtype kind: two half-size real eighs, or one real eigh of the real form
REFLECTED_ROUTE = {"f": "hermitian-split", "c": "hermitian-real"}

RETAIN_RTOL = 1e-12       # eigenpairs below this (relative) are numerical null space
TIE_RTOL = 1e-10          # moduli this close (relative) sort as tied, by phase
DEGENERATE_RTOL = 1e-9    # eigenvalues this close (relative) share an eigenspace
REFINE_RTOL = 1e-5        # Nystrom pass only above this (times max ||q_j||_W in
                          # djf_eig): it injects eps*||A||*||q_j||_W/|nu| noise,
                          # which must stay below the orthonormality budget
# _no_overflow keeps a norm at or above this as it is.  A norm of m entries
# (or of weights summing to m, for _wnorm) is at most sqrt(m) max|x|, so for
# m <= 2^22 (N x N, N <= 2048) it has max|x| >= 2^-511, whose square is
# normal, and the squares that underflow move it by at most
# m 2^-1075 / 2^-1000 <= u relative
NORM_FLOOR = 2.0 ** -500
ITERATE_SLAB = 256        # rows of X W that iterated_kernel's squares form at a time


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Discretized integral operator on one quadrature rule.

    Attributes
    ----------
    rule : QuadratureRule
    shape : (s1, s2) kernel block shape
    K : raw kernel samples, (n*s1) x (n*s2), node-major blocks
    A : K * w_cols, formed on every read (the Frobenius norm of the
        collapse test, the CLI's jordan and --dump-operator; fredkit's
        products with A are K (w x))
    B : W^{1/2} K W^{1/2}, formed on every read (the Hilbert-Schmidt norm,
        the Hermitian defect and part, the Schur form, the svd)
    A and B are fresh, writeable arrays their reader owns: writing to
    one changes nothing on the operator, and the operator keeps neither.
    family : the one eigen-family (BiSpectralDecomposition); spectrum : its
        eigenvalues
    node_partition : the nodes the lambda-path factors and the ones it
        drops (NodePartition)

    An operator is built from (rule, shape, K), each checked: a
    QuadratureRule, two positive integers and an array of numbers of shape
    (n*s1, n*s2), not copied when float64 or complex128.  It stores K only.
    The dtype follows the kernel: a complex K whose imaginary part is exactly
    zero is stored as its float64 real part, and A and B follow K, so a
    real kernel, and a real sample vector or power-iteration start with it,
    gets real arrays, products and LAPACK calls.  Complex by contract are the
    spectrum, the general family's pairs and Jordan forms.  K is read-only, so
    nothing cached from it (on first read, read-only) can go stale: the
    Hermitian defect, the reflection gate, the families, the node partition
    (with K in the lambda-path's order) and fredholm's last LU.  A float64
    or complex128 K is the caller's own array, made read-only in place: a
    read-only view would leave the caller free to write the samples under
    those caches, and a copy would cost 8-16 MB per discretize at N = 1024.

    The Hermitian route.  When hermitian_defect() <= n u (n = K.shape[0],
    u = eps / 2), one eigh of S = (B + B^H) / 2 (EIGH_DRIVER) replaces the
    Schur form and operator_svd's svd: S is within (n u / 2) ||B||_F of B,
    inside the backward error those calls commit.  Off the route every
    eigenvalue comes from one backward-stable Schur form of
    B = W^{1/2} A W^{-1/2}, within its condition times n u ||B||_F.  On a
    reflection-symmetric operator S is exactly centrosymmetric (real) or
    centro-Hermitian (complex), and its eigh splits or turns real
    (_reflected_eigh) with no further approximation.
    """

    rule: QuadratureRule
    shape: tuple
    K: np.ndarray

    def __post_init__(self):
        n = _rule_arg(self.rule).count
        s1, s2 = shape = _shape_arg(self.shape)
        object.__setattr__(self, "shape", shape)
        # a sample that is not finite is its reader's to refuse: discretize names its node pair
        K = _array_arg(self.K, "K", (n * s1, n * s2), finite=False)
        if K.dtype.kind == "c" and not K.imag.any():
            K = K.real.copy()
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @property
    def A(self):
        """The Nystrom matrix K * w_cols, K's columns scaled by the node
        weights, formed on every read: a fresh array its reader owns.  An
        entry past the float range reads inf, with no warning, for the
        ||A||_F refusal of its reader."""
        with np.errstate(over="ignore"):
            return self.K * self.w_cols

    @property
    def B(self):
        """W^{1/2} K W^{1/2}, formed on every read: a fresh array its reader
        owns and may overwrite.  An entry past the float range reads inf,
        with no warning, for the ||B||_F refusal of its reader."""
        with np.errstate(over="ignore"):
            return np.sqrt(self.w_rows)[:, None] * self.K * np.sqrt(self.w_cols)

    @property
    def spectrum(self):
        """All eigenvalues of A, complex and read-only: family.eigenvalues,
        in the family's order."""
        return self.family.eigenvalues

    @property
    def family(self):
        """The one dispatch between the routes: hermitian_family when
        hermitian_to_roundoff() holds, else general_family."""
        self._require_square("an eigendecomposition")
        return self.hermitian_family if self.hermitian_to_roundoff() else self.general_family

    @cached_property
    def w_rows(self):
        """Node weights repeated over the block's rows, computed once and read-only."""
        return _read_only(np.repeat(self.rule.weights, self.shape[0]))

    @cached_property
    def w_cols(self):
        """Node weights repeated over the block's columns, computed once and read-only."""
        return _read_only(np.repeat(self.rule.weights, self.shape[1]))

    @property
    def is_square_block(self):
        return self.shape[0] == self.shape[1]

    def _require_square(self, what):
        """InvalidArgumentError, naming `what`, unless the block shape is square."""
        if not self.is_square_block:
            raise InvalidArgumentError(f"{what} needs a square block shape, got {self.shape}")

    def hs_norm(self):
        """Quadrature estimate of the Hilbert-Schmidt norm ||N||_2:
        sqrt(sum_ij w_i w_j ||N(x_i, x_j)||_F^2) = ||B||_F."""
        return float(_norm(self.B))

    def hermitian_defect(self):
        """Relative departure of B from Hermitian symmetry,
        ||B - B^H||_F / ||B||_F, computed once.  Raises InvalidArgumentError
        for a block shape that is not square, or when ||B||_F or B's Hermitian
        part is not finite (_hermitian_part), for every reader of the family
        or the lambda-path."""
        return self._hermitian_defect(self.K.shape[0] * UNIT)

    def _hermitian_defect(self, keep):
        """hermitian_defect(), computed once; the Hermitian part it builds is
        kept for _hermitian_eigh when the defect is at most `keep` (n u, or
        hermitian_eig's limit when the family build follows in its call)."""
        defect = self.__dict__.get("_defect")
        if defect is None:
            self._require_square("a Hermitian defect")
            S, defect = _hermitian_part(self.B)
            if defect <= keep:
                self.__dict__["_hermitian_S"] = S
            self.__dict__["_defect"] = defect
        return defect

    def hermitian_to_roundoff(self):
        """Whether the Hermitian route applies: a square block shape and
        hermitian_defect() <= n u, n = K.shape[0], u = eps / 2."""
        return self.is_square_block and self.hermitian_defect() <= self.K.shape[0] * UNIT

    @cached_property
    def reflection_symmetric(self):
        """Whether the reflection route applies, read off K alone in O(N^2)
        and cached: a 1 x 1 block, mirrored weights (w == w[::-1]) and K
        reflection-symmetric in its bits, J K J == K for a real K and
        J K J == conj(K) for a complex one (J reverses the node order).  B
        and its Hermitian part then hold the same symmetry exactly."""
        K, w = self.K, self.rule.weights
        top = (K.shape[0] + 1) // 2
        return (self.shape == (1, 1) and np.array_equal(w, w[::-1])
                and np.array_equal(K[::-1, ::-1][:top], np.conj(K[:top])))

    @cached_property
    def node_partition(self):
        """The lambda-path's NodePartition, read off K and the weights in
        O(N^2) and cached.  Needs a square block shape."""
        return _node_partition(self)

    @cached_property
    def hermitian_family(self):
        """The W-orthonormal family (left is right) of B's Hermitian part,
        built once; hermitian_eig returns it.  eigh's values, held as complex,
        and its retained vectors' node samples v / sqrt(w) in B's dtype: one
        Nystrom pass p <- A p / nu polishes those with |nu| >= REFINE_RTOL |nu_1|,
        then each gets unit W-norm and a real-positive anchor.  Raises as
        _hermitian_eigh does, caching nothing."""
        vals, P = _hermitian_eigh(self)
        route = REFLECTED_ROUTE[P.dtype.kind] if self.reflection_symmetric else "hermitian"
        keep = _retained(vals)
        retained = int(np.count_nonzero(keep))
        order = _family_order(vals, keep)  # real vals sort as their complex form does
        nu, P = vals[order], P[:, order[:retained]]
        w = self.w_rows
        P /= np.sqrt(w)[:, None]
        sel = np.flatnonzero(np.abs(nu[:retained]) >= REFINE_RTOL * np.abs(nu[0]))
        P[:, sel] = _apply_A(self, P[:, sel]) / nu[sel]
        P *= _unit_anchored(w, P)
        P = _read_only(P)
        return BiSpectralDecomposition(_read_only(nu.astype(complex)), P, P,
                                       _biorth_residual(w, P, P), route=route,
                                       retained=retained, weights=w, K=self.K)

    @cached_property
    def general_family(self):
        """The bi-orthogonal family of B off the Hermitian route, built once;
        djf_eig returns it.  One Schur form B = Z T Z^H in B's dtype, reordered
        by LAPACK's trsen so that the m eigenvalues outside the retained cut
        come first (T = [[T11, T12], [0, T22]], T22 r x r, Z = [Q_t, Q_perp];
        Golub & Van Loan, Matrix Computations, 4th ed., sec. 7.6; Bai &
        Demmel, Linear Algebra Appl. 186 (1993)), one Sylvester solve
        T11 Y - Y T22 = -T12 (trsyl) and the r x r eig T22 G = G Lambda give
        V_r = Z [Y G; G], so V = [V_r, Q_t] = Z M with M = [[A, I], [C, 0]],
        A = Y G and C = G up to V_r's column scaling; T22's eigenvalues are
        the retained ones; the record keeps V_r and U_r = Q_perp C^{-H} only.
        Raises InvalidArgumentError for a B that is not finite and
        ConvergenceError when the Schur form or its reordering fails, caching nothing."""
        return _general_family(self)


@dataclass(frozen=True, eq=False)
class BiSpectralDecomposition:
    """Eigenvalues with right/left eigenvector node samples: one operator's
    eigen-family, built once (DiscreteOperator.family) and read-only.

    Eigenvalues are complex, all N of them, sorted by descending modulus,
    ties by descending phase in (-pi, pi], with the `retained` pairs first
    (_family_order), whose vectors alone right and left keep (N x `retained`).
    Right vectors p_j have unit weighted norm with a
    real-positive anchor entry; left vectors q_j are fixed by
    bi-orthogonality <q_j, p_k>_W = delta_jk, and biorth_residual is
    max |<q_j, p_k>_W - delta_jk| over the retained pairs.  ``route`` names
    the build: "hermitian" (one eigh),
    "hermitian-split" (two half-size real eighs of a real reflection-symmetric
    B), "hermitian-real" (one real eigh of a complex reflection-symmetric B's
    real form) or "general" (the Schur form); ``hermitian``, read off it, is
    True exactly when the pairs come from an eigh of B's Hermitian part
    (left is right).  weights are the operator's w_rows and K its samples,
    for the Nystrom step of second_kind_solve_series.  right, left and
    biorth_residual are None when refusal holds a DefectiveSuspectedError's
    message.  It never holds its operator, so a dropped operator needs no
    collector.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    biorth_residual: float
    route: str
    retained: int
    weights: np.ndarray
    K: np.ndarray
    refusal: str = None

    @property
    def hermitian(self):
        return self.route != "general"


@dataclass(frozen=True, eq=False)
class NodePartition:
    """The rows of K (nodes, for a 1 x 1 block) that every LU of
    I - lambda*A factors, the kept block, and the ones it drops: one
    operator's record, built once (DiscreteOperator.node_partition) and
    read-only.

    Row i's mass is the root mean square of ||B_{i,:}|| and ||B_{:,i}|| (for a
    Hermitian B, its row norm).  The dropped rows t are the largest set,
    smallest mass first (stable), whose masses' root sum of squares is at
    most u ||B||_F / sqrt(2), u = eps / 2: ||B_{t,:}||_F and ||B_{:,t}||_F
    are then each at most u ||B||_F, and what the lambda-path leaves out of
    them is a backward error below rounding of B (Weyl; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 12).  On a
    reflection-symmetric operator the masses are those of the top ceil(N/2)
    nodes, each counted with its mirror, and the partition is
    mirror-symmetric bit for bit.  Nothing is dropped when ||B||_F is 0 or
    not finite.  Mehler r = 1/2 on Gauss-Hermite 256 drops its 104 lightest
    nodes; the Gauss-Legendre operators of fredkit's tests drop none.

    order : the rows, kept ones first, each part by decreasing weight (a
        stable sort): the lambda-path's elimination order, heaviest first
    kept_count : the number of kept rows, order[:kept_count]
    dropped : the dropped rows, order[kept_count:]
    dropped_mass : the dropped masses' root sum of squares over ||B||_F
    K_e, w_e : K[order][:, order] and w_cols[order], the samples each lambda
        builds its system from
    """

    order: np.ndarray
    kept_count: int
    dropped_mass: float
    K_e: np.ndarray
    w_e: np.ndarray

    @property
    def dropped(self):
        return self.order[self.kept_count:]


def _node_partition(op):
    """DiscreteOperator.node_partition's build, from |B|'s squared rows at a
    power-of-two scale that keeps them in range: the top ceil(N/2) alone on
    the reflection route, where column j's bottom rows are column N-1-j's
    top ones, reflected."""
    op._require_square("a node partition")
    K, w = op.K, op.w_cols
    N = K.shape[0]
    top = (N + 1) // 2 if op.reflection_symmetric else N
    sqw = np.sqrt(w)
    with np.errstate(over="ignore", invalid="ignore"):  # a K that is not finite drops nothing
        Y = np.abs(K[:top]) * sqw[:top, None] * sqw
        Y *= _pow2_scale(Y)
        Y *= Y
        rows, cols = Y.sum(axis=1), Y.sum(axis=0)
        if top < N:
            cols = cols[:top] + cols[::-1][:top] - (N % 2) * Y[-1, :top]
        pairs = np.where(np.arange(top) < N - top, 2.0, 1.0)  # a node and its mirror
        total = float(np.sum(pairs * rows))  # ||B||_F^2 at Y's scale
        by_mass = np.argsort(rows + cols, kind="stable")
        cum = np.cumsum((pairs * (rows + cols) / 2)[by_mass])
    k = int(np.count_nonzero(cum <= UNIT ** 2 * total / 2)) if 0 < total < np.inf else 0
    dropped = np.zeros(N, dtype=bool)
    dropped[by_mass[:k]] = True
    dropped[N - 1 - by_mass[:k]] |= top < N  # their mirrors
    order = np.lexsort((-w, dropped))  # stable: ties keep their listing
    return NodePartition(_read_only(order), N - int(np.count_nonzero(dropped)),
                         float(np.sqrt(cum[k - 1] / total)) if k else 0.0,
                         _read_only(K[np.ix_(order, order)]), _read_only(w[order]))


def _operator_arg(op):
    """op; InvalidArgumentError unless it is a DiscreteOperator, the one
    check of every entry point's operator argument."""
    return _instance_arg(op, DiscreteOperator, "operator")


def _hermitian_eigh(op):
    """(vals, vecs in B's dtype) of B's Hermitian part, built here or kept by
    the defect (_hermitian_defect): _reflected_eigh's on a reflection-symmetric
    operator, else one _eigh, vals ascending.  Raises InvalidArgumentError
    when that part is not finite (_hermitian_part: zheevr would answer
    without an error) and ConvergenceError when eigh does not converge."""
    op._require_square("a Hermitian eigendecomposition")
    S = op.__dict__.pop("_hermitian_S", None)
    if S is None:
        S, defect = _hermitian_part(op.B)
        op.__dict__.setdefault("_defect", defect)
    return _reflected_eigh(S) if op.reflection_symmetric else _eigh(S)


def _eigh(S):
    """scipy.linalg.eigh of the Hermitian S with S's EIGH_DRIVER, for LAPACK
    to overwrite."""
    return _linalg("eigh", S, lib=scipy.linalg, driver=EIGH_DRIVER[S.dtype.kind],
                   overwrite_a=True, check_finite=False)


def _reflected_eigh(S):
    """(vals, vecs in S's dtype) of a Hermitian S that is reflection-symmetric
    (J S J == S real, == conj(S) complex; DiscreteOperator.reflection_symmetric).
    With h = ceil(N/2), m = floor(N/2), F = S[:h, :h], G = F's columns
    reflected (S[:h, N-1-j]) and D = I but 1/sqrt(2) at an odd N's middle
    node, E = D (F + G) D and O = (F - G)[:m, :m].  A real S is orthogonally
    similar to diag(E, O): two half-size eighs whose vectors u give the
    exactly even and odd [u; +-Ju] / sqrt(2) (Cantoni & Butler, Linear Algebra
    Appl. 13, 1976).  A complex S is unitarily similar, through
    Q = [[I, iI], [J, -iJ]] / sqrt(2), to the real symmetric
    R = [[Re E, Im E[:m]^T], [Im E[:m], Re O]] (Lee, Linear Algebra Appl. 29,
    1980): one real eigh whose vectors [a; b] give [a + ib; J (a - ib)] / sqrt(2),
    each bottom half the conjugate reflection of its top.  vals ascend within
    each eigh.  E and R are symmetric in their bits, so LAPACK gets them in
    Fortran order as they are."""
    N = S.shape[0]
    h, m = (N + 1) // 2, N // 2
    c = np.full(h, np.sqrt(0.5))
    c[m:] = 1.0  # an odd N's middle node maps to itself
    d = np.sqrt(0.5) / c
    F, G = S[:h, :h], S[:h, ::-1][:, :h]
    E = (F + G) * d[:, None] * d
    V = np.empty_like(S)
    if S.dtype.kind == "f":
        (even, Ve), (odd, Vo) = _eigh(E.T), _eigh((F - G)[:m, :m].T)
        V[:h, :h] = Ve * c[:, None]
        V[:m, h:] = Vo * np.sqrt(0.5)
        V[m:h, h:] = 0.0
        np.multiply(V[:m][::-1], np.repeat([1.0, -1.0], (h, m)), out=V[h:])
        return np.concatenate((even, odd)), V
    R = np.empty((N, N))
    R[:h, :h], R[h:, :h], R[h:, h:] = E.real, E.imag[:m], (F - G)[:m, :m].real
    R[:h, h:] = R[h:, :h].T
    del E, F, G
    vals, Y = _eigh(R.T)
    V.real[:h] = Y[:h] * c[:, None]
    V.imag[:m] = Y[h:] * np.sqrt(0.5)
    V.imag[m:h] = 0.0
    np.conjugate(V[:m][::-1], out=V[h:])
    return vals, V


def _hermitian_part(B):
    """(S, defect) for a square B that is the caller's to overwrite: its Hermitian part
    S = (B + B^H) / 2 and ||B - B^H||_F / ||B||_F, read off S as
    2 ||B - S||_F / ||B||_F since B - B^H = 2 (B - S).  S is B^H, in one
    C-ordered buffer, plus B, and B - S is taken in B's own buffer: B and S
    are the only N x N arrays.  Raises InvalidArgumentError when ||B||_F or
    the defect is not finite: the defect is not finite exactly when S is."""
    message = "B's Hermitian part has an entry that is not finite, or ||B||_F overflows"
    scale = max(_finite(message, lambda: float(_norm(B))), 1e-300)
    S = np.conjugate(B.T, out=np.empty_like(B))

    def defect():
        np.multiply(np.add(S, B, out=S), 0.5, out=S)
        return 2.0 * float(_norm(np.subtract(B, S, out=B))) / scale

    return S, _finite(message, defect)


def _general_family(op):
    """DiscreteOperator.general_family's build, on a square operator."""
    B = op.B
    _finite("B has an entry that is not finite", lambda: B)
    T, Z = _linalg("schur", B, lib=scipy.linalg, output={"f": "real", "c": "complex"}[B.dtype.kind],
                   overwrite_a=True, check_finite=False)
    del B
    out = get_lapack_funcs("trsen", (T,))(~_retained(_schur_moduli(T)), T, Z, job="N",
                                           overwrite_t=1, overwrite_q=1)
    if out[-1] != 0:
        raise ConvergenceError(f"trsen did not converge: it could not reorder T (info {out[-1]})")
    T, Z, m = out[0], out[1], out[-4]
    n, r = T.shape[0], T.shape[0] - m
    lam, G = _linalg("eig", T[m:, m:])
    Y = np.zeros((m, r), dtype=T.dtype)
    if m and r:  # trsyl's warning that it perturbed close eigenvalues is kappa's to judge
        Y, scale, _info = get_lapack_funcs("trsyl", (T,))(T[:m, :m], T[m:, m:], -T[:m, m:], isgn=-1)
        Y /= scale
    X = np.vstack((_matvec(Y, G), G))
    del T, Y
    values = np.concatenate(((out[2] if Z.dtype.kind == "c" else out[2] + 1j * out[3])[:m], lam))
    order = _family_order(values, np.arange(n) >= m)  # T22's eigenvalues are retained
    nu, X = values[order], X[:, order[:r] - m]
    _rebasis_degenerate(nu, X, r)
    w = op.w_rows
    sqw = np.sqrt(w)[:, None]
    # p = v / sqrt(w) gets unit weighted norm and a real-positive anchor entry; A and C follow
    P = _matvec(Z, X) / sqw
    scale = _unit_anchored(w, P)
    P *= scale
    X *= scale
    U, kappa = _inverse_adjoint(X[:m], X[m:], Z[:, m:])
    del Z, X

    nu = _read_only(nu)

    def family(P=None, Q=None, resid=None, refusal=None):
        return BiSpectralDecomposition(nu, P, Q, resid, route="general",
                                       retained=r, weights=w, K=op.K, refusal=refusal)

    if not kappa * n * UNIT <= 1e-8:
        return family(refusal=f"eigenvector matrix condition {kappa:.3e} exceeds 1e-8 / "
                              f"(n u) = {1e-8 / (n * UNIT):.3e}; the operator looks "
                              "defective -- use the jordan module")
    top = np.abs(nu[0]) if n else 0.0
    AP = _apply_A(op, P)
    resid = _wnorm(w, AP - P * nu[:r])  # ||B v - nu v|| / ||v||, since ||p||_W = 1
    bad = np.flatnonzero(resid > 1e-9 * top)
    if bad.size:
        return family(refusal=f"eigen-residual {resid[bad[0]]:.3e} for nu={nu[bad[0]]:.6g} "
                              "exceeds 1e-9 |nu_1|; the eigenspace is deficient -- use the "
                              "jordan module")
    P = P.astype(complex, copy=False)
    Q = (U / sqw).astype(complex, copy=False)
    # the Nystrom pass on the retained pairs whose rounding fits (djf_eig),
    # then q rescaled to <q, p>_W = 1
    kappa_max = np.max(_wnorm(w, Q), initial=1.0)
    sel = np.flatnonzero(np.abs(nu[:r]) >= REFINE_RTOL * top * kappa_max)
    Ps = AP[:, sel] / nu[sel]
    Ps *= _unit_anchored(w, Ps)
    Qs = _apply_adjoint(op, Q[:, sel]) / np.conj(nu[sel])
    Qs /= np.conj(_winner(w, Qs, Ps))
    P[:, sel], Q[:, sel] = Ps, Qs
    resid = _biorth_residual(w, P, Q)
    if resid > 1e-8:
        return family(refusal=f"bi-orthogonality residual {resid:.3e} exceeds 1e-8; the "
                              "operator looks defective -- use the jordan module")
    return family(_read_only(P), _read_only(Q), resid)


def _schur_moduli(T):
    """|nu| of each eigenvalue of a Schur factor T, in T's order; a real T's
    2 x 2 block [[a, b], [c, a]] holds a +- i sqrt|b| sqrt|c|, as trsen reads it."""
    mods = np.abs(T.diagonal())
    if T.dtype.kind == "f":
        k = np.flatnonzero(T.diagonal(-1))
        im = np.sqrt(np.abs(T[k, k + 1])) * np.sqrt(np.abs(T[k + 1, k]))
        mods[k] = mods[k + 1] = np.hypot(T[k, k], im)
    return mods


def _inverse_adjoint(A, C, Qp):
    """(U_r, kappa) for V = [V_r, Q_t] = [Q_t, Q_perp] M, M = [[A, I], [C, 0]],
    [Q_t, Q_perp] unitary, A = Q_t^H V_r and C = Q_perp^H V_r (r x r): as
    M^{-1} = [[0, C^{-1}], [I, -A C^{-1}]], V_r's left partners, V^{-H}'s first
    r columns, are U_r = Q_perp C^{-H}, and kappa = ||M||_1 ||M^{-1}||_1 exactly,
    inf when C is singular (U_r None) or when it does not come out finite."""
    try:
        Cinv = np.linalg.inv(C)
    except np.linalg.LinAlgError:
        return None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # the columns of M are [A; C] and those of M^{-1} [C^{-1}; -A C^{-1}],
        # next to identity columns of 1-norm 1 (none when Q_t is empty)
        kappa = float(np.prod([np.max(np.abs(np.vstack(X)).sum(axis=0),
                                      initial=float(A.shape[0] > 0))
                               for X in ((A, C), (Cinv, A @ Cinv))]))
        U = _matvec(Qp, Cinv.conj().T)
    return U, kappa if np.isfinite(kappa) else np.inf


def _rebasis_degenerate(vals, V, retained):
    """Orthonormalize V's columns over each group of (numerically) equal
    retained eigenvalues, within DEGENERATE_RTOL of the larger modulus or the
    roundoff floor N eps |nu_1|: LAPACK's basis of a repeated semisimple
    eigenvalue is arbitrary, and a QR basis leaves the inversion and the
    condition check to the geometry between eigenspaces.  A group whose unit
    vectors have an R factor entry below n u / 1e-8 (a condition above the
    condition rule's limit) is left as it is: those are the coalescing
    vectors of a defective eigenvalue that the Schur form holds exactly, and
    rebasing them would hide the defect from the condition rule."""
    mods = np.abs(vals[:retained])
    gap = np.maximum(DEGENERATE_RTOL * np.maximum(mods[:-1], mods[1:]), _roundoff_floor(vals))
    edges = [0, *(np.flatnonzero(np.abs(np.diff(vals[:retained])) > gap) + 1), retained]
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a >= 2:
            Q, R = np.linalg.qr(V[:, a:b])
            unit_r = np.abs(R.diagonal()) / np.linalg.norm(V[:, a:b], axis=0)  # the unit vectors' R
            if np.min(unit_r) * 1e-8 > V.shape[0] * UNIT:
                V[:, a:b] = Q


def _pow2_scale(X):
    """The power of two s with max |X s| in [1/2, 1), 1 for a zero or
    non-finite X: multiplying by it is exact for every entry that stays in
    the normal range.  s is capped at 2^1023, the largest power of two, so a
    max |X| below 2^-1024 gets max |X s| in [2^-51, 1/2): its square is normal."""
    with np.errstate(over="ignore"):
        top = float(np.max(np.abs(X), initial=0.0))
    return float(np.ldexp(1.0, min(-np.frexp(top)[1], 1023))) if 0.0 < top < np.inf else 1.0


def _scale_free(message, f, apply):
    """apply(f s) / s, s = _pow2_scale(f), for a linear map `apply`, computed
    under _finite: a subnormal or huge f maps as its scaled copy does, bit
    for bit while apply's steps stay normal, and a result that is not
    finite raises InvalidArgumentError(message)."""
    s = _pow2_scale(f)
    return _finite(message, lambda: apply(f * s) / s)


def _no_overflow(norm, X):
    """norm(X) without overflow or underflow on the way: when X's largest
    entry is below 1/2 the norms below NORM_FLOOR, and when it is 1 or more
    those that overflow, are recomputed on X * _pow2_scale(X) and scaled
    back; scaling down would push a small norm's squares further below the
    normal range.  The others are norm(X) itself.  A norm past the float
    range reads inf, with no warning."""
    with np.errstate(over="ignore"):
        nrm = norm(X)
        if ((nrm >= NORM_FLOOR) & (nrm < np.inf)).all():
            return nrm
        s = _pow2_scale(X)
        redo = nrm < NORM_FLOOR if s > 1.0 else nrm == np.inf
        return np.where(redo, norm(X * s) / s, nrm) if redo.any() else nrm


def _norm(X):
    """np.linalg.norm(X), through _no_overflow."""
    return _no_overflow(np.linalg.norm, X)


def _finite(message, compute):
    """compute(), with numpy's overflow and invalid warnings off and an
    OverflowError read as inf; InvalidArgumentError(message) unless every
    entry of the result is finite.  The one rule for arithmetic that leaves
    the float range: a finite result keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = compute()
        except OverflowError:
            out = np.inf
    if not np.isfinite(out).all():
        raise InvalidArgumentError(message)
    return out


def _read_only(a):
    a.setflags(write=False)
    return a


def _linalg(name, *args, lib=np.linalg, **kwargs):
    """lib.<name>(*args, **kwargs), np.linalg's by default, its LinAlgError
    (numpy's and scipy.linalg's are one class) raised as
    ConvergenceError("<name> did not converge: ...")."""
    try:
        return getattr(lib, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{name} did not converge: {exc}") from exc


def _matvec(M, x):
    """M @ x for a vector, a matrix or a stack of matrices x (_on_float_view)."""
    return _on_float_view(M, lambda y: M @ y, x)


def _on_float_view(M, apply, x):
    """apply(x) for the linear map `apply` of matrices that M (a matrix or
    its factors) defines and a vector, matrix or stack x.  A real M's map of
    a complex x is one real call on x's float view: (n, 2) for a vector,
    (n, 2m) for an n x m matrix and (b, n, 2m) for a stack, whose real and
    imaginary columns the map keeps apart; numpy's mixed product, or a
    complex LAPACK call, would first copy M to complex, on every call."""
    if not (M.dtype.kind == "f" and x.dtype.kind == "c"):
        return apply(x)
    x = np.ascontiguousarray(x)
    y = np.ascontiguousarray(apply((x[:, None] if x.ndim == 1 else x).view(float)))
    y = y.view(complex)
    return y[:, 0] if x.ndim == 1 else y


def _weighted_products(M, w, X):
    """M @ (w x) for a vector x, or for each column x of a matrix X as
    stacked matrix-vector products that round as a lone one does: a
    matrix-matrix product rounds otherwise and can move an anchor between
    tied entries (mirror nodes of a symmetric rule).  A real M applies to
    complex samples on their float view (_matvec), with no complex copy."""
    if X.ndim == 1:
        return _matvec(M, w * X)
    return _matvec(M, (w[:, None] * X).T[:, :, None])[:, :, 0].T


def _apply_A(op, X):
    """A @ x = K (w_cols x) for node samples x, a vector or the columns of
    a matrix (_weighted_products): the one product with A, which is never
    formed for it."""
    return _weighted_products(op.K, op.w_cols, X)


def _winner(w, U, V):
    """<u, v>_W for vectors, in their kind, else per column pair; each sum runs
    along a contiguous row, so a column pair rounds exactly as the lone vectors do."""
    g = np.sum(np.ascontiguousarray(w * np.conj(U.T) * V.T), axis=-1)
    return g.item() if U.ndim == 1 else g


def _narrowed(z):
    """z.real when the scalar z has an exactly zero imaginary part, else z: the
    one rule by which a complex scalar is used as a real one, keeping real
    samples real (numpy promotes it back to z.real + 0j against complex ones)."""
    return z.real if z.imag == 0 else z


def _wnorm(w, U):
    """||u||_W for a vector, else per column (rounded as in _winner), through
    _no_overflow."""
    nrm = _no_overflow(
        lambda Y: np.sqrt(np.sum(np.ascontiguousarray(w * np.abs(Y.T) ** 2), axis=-1)), U)
    return float(nrm) if U.ndim == 1 else nrm


def _anchor_phase(U):
    """Unit-modulus factor rotating the first maximal-|.| entry of u (of each
    column of a matrix) real positive; 1 for a zero vector or column."""
    ua = np.take_along_axis(U, np.argmax(np.abs(U), axis=0, keepdims=True), axis=0)[0]
    ua = np.where(ua == 0, 1, ua)
    # hypot rounds as abs() of one complex does; np.abs of an array may not
    return np.hypot(ua.real, ua.imag) / ua


def _roundoff_floor(vals):
    """N * eps * |nu_1|: eigenvalues closer than this are not resolved."""
    return vals.size * np.finfo(float).eps * max(float(np.max(np.abs(vals))), 1e-300)


def _sort_order(vals):
    """Descending modulus with ties broken by descending phase in (-pi, pi].

    Moduli within TIE_RTOL of the group leader, or within the roundoff
    floor N * eps * |nu_1|, count as tied, so the ordering agrees across
    eig/eigh paths whose roundoff differs while resolved small moduli keep
    their order; phases hugging the -pi seam are wrapped to +pi (a
    negative real eigenvalue must not flip sides on 1e-17 imaginary noise).
    jordan_decompose orders its blocks by it too.
    """
    if vals.size == 0:
        return np.arange(0)
    mods = np.abs(vals)
    phases = np.angle(vals)
    phases = np.where(phases <= -np.pi + 1e-9, phases + 2.0 * np.pi, phases)
    order = list(np.lexsort((-phases, -mods)))
    floor = _roundoff_floor(vals)
    i = 0
    while i < len(order):
        tol = max(TIE_RTOL * mods[order[i]], floor)
        j = i + 1
        while j < len(order) and mods[order[i]] - mods[order[j]] <= tol:
            j += 1
        order[i:j] = sorted(order[i:j], key=lambda t: -phases[t])
        i = j
    return np.array(order)


def _family_order(vals, retained):
    """_sort_order, then the retained pairs (the mask `retained`) moved to
    the front, stable: the one order of both eigen-families."""
    order = _sort_order(vals)
    return order[np.argsort(~retained[order], kind="stable")]


def _retained(vals):
    """The retained cut, as a mask: |nu| > RETAIN_RTOL * max |nu|, so nothing
    is retained when that max is 0.  Shared by the decompositions, the
    operator SVD's numerical rank and the resolvent's pole guards."""
    mods = np.abs(vals)
    return mods > RETAIN_RTOL * np.max(mods, initial=0.0)


def _retained_count(vals):
    return int(np.count_nonzero(_retained(vals)))


def _biorth_residual(w, P, Q):
    G = Q.conj().T @ (w[:, None] * P)
    return float(np.max(np.abs(G - np.eye(P.shape[1])), initial=0.0))


def _unit_anchored(w, P):
    """Per-column factors giving each nonzero column of P unit W-norm and a
    real-positive first maximal entry (1 for a zero column)."""
    nrm = _wnorm(w, P)
    return _anchor_phase(P) / np.where(nrm > 0, nrm, 1.0)


def discretize(kernel: Kernel, rule: QuadratureRule) -> DiscreteOperator:
    """Sample a kernel on a rule into the operator's K.

    Raises EvaluationError, with ``pair`` set to the node pair (y, z), when
    a sample is not finite: the first such entry in row-major order is
    named.  Emits NontrivialityWarning when every sample is 0 (useful as a
    fixture, but no spectral content).
    """
    K = _kernel_arg(kernel).sample_matrix(_rule_arg(rule))
    s1, s2 = kernel.shape
    _check_finite(K, rule, s1, s2)
    op = DiscreteOperator(rule=rule, shape=(s1, s2), K=K)
    if not op.K.any():  # read off K: no B is formed
        warnings.warn(
            "discretized kernel is numerically zero (||N||_2 = 0)",
            NontrivialityWarning,
            stacklevel=2,
        )
    return op


def _check_finite(K, rule, s1, s2):
    finite = np.isfinite(K)
    if finite.all():
        return
    row, col = np.argwhere(~finite)[0]
    i, j = int(row) // s1, int(col) // s2
    y, z = float(rule.nodes[i]), float(rule.nodes[j])
    raise EvaluationError(
        f"kernel sample {K[row, col]} at node pair {i}, {j} "
        f"(y={y!r}, z={z!r}) is not finite",
        pair=(y, z),
    )


def apply(op: DiscreteOperator, f) -> np.ndarray:
    """Nystrom image of the operator on node samples: A @ f = K (w f).
    Scale-free (_scale_free); an image past the float range raises
    InvalidArgumentError."""
    f = _array_arg(f, "f", (_operator_arg(op).K.shape[1],))
    return _scale_free("A f overflows: its entries are not finite", f, lambda g: _apply_A(op, g))


def apply_adjoint(op: DiscreteOperator, p) -> np.ndarray:
    """Node samples of the adjoint image: (W K)^* p = K^H (w * p).
    Scale-free (_scale_free); an image past the float range raises
    InvalidArgumentError."""
    p = _array_arg(p, "p", (_operator_arg(op).K.shape[0],))
    return _scale_free("the adjoint image of p overflows: its entries are not finite", p,
                       lambda g: _apply_adjoint(op, g))


def _apply_adjoint(op, X):
    """K^H (w_rows x) for a vector x or each column of a matrix, as
    conj(K^T (w conj(x))) without forming K^H, an N x N copy per call."""
    return np.conj(_weighted_products(op.K.T, op.w_rows, np.conj(X)))


def iterated_kernel(op: DiscreteOperator, n: int) -> np.ndarray:
    """Node samples of the n-th iterated kernel: X_n = (K W)^{n-1} K.

    n = 1 returns a copy of K and n = 2 returns A @ K.  Larger n is built by
    doubling, from X_{a+b} = X_a W X_b: walking the bits of n below the
    leading one, each bit squares, X <- (X W) X, and each 1 bit then steps
    once more, X <- K (W X).  That is floor(log2 n) + popcount(n) - 1
    matrix products instead of n - 1.  Two N x N buffers take turns as X and
    the product: a square fills the other buffer ITERATE_SLAB rows at a time
    from one slab of X W, and a step scales X by W in place before K (W X),
    so two N x N arrays and one slab are alive, not three N x N arrays.  Each
    entry of a slab is the inner product the whole product would form, so
    the bound below holds as it is; BLAS may still round it otherwise for
    the smaller call (with OpenBLAS's SkylakeX kernels the bits agree when N
    is at most ITERATE_SLAB or a multiple of 8, and can differ otherwise).
    For n >= 3 on a reflection-symmetric operator, each product forms its top
    ceil(N/2) rows only and fills the bottom ones by the exact reflection
    X[N-1-i, N-1-j] = X[i, j] (its conjugate for a complex X), as
    J X_n J = X_n (or conj(X_n)) for X_n = (K W)^{n-1} K.

    The iterate has K's dtype: real products for a real operator.

    Roundoff grows as for the sequential product: if one product rounds
    within g |P| |Q| componentwise (g = gamma_N for N-term real inner
    products, g = sqrt(2) gamma_{2N} for complex ones, in any summation
    order) and scaling by W within u, then
    by induction over X_{a+b} = X_a W X_b, every evaluation order gives
    |computed X_n - X_n| <= (((1 + u)(1 + g))^{n-1} - 1) |K| (W |K|)^{n-1}
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.5).
    On the reflection route each bottom entry is an exact copy of a top one,
    with the same error modulus, and M = |K| (W |K|)^{n-1} is centrosymmetric
    there (M[N-1-i, N-1-j] = M[i, j]), so the bound holds for it as derived.

    Requires a square block shape.  Raises InvalidArgumentError when an
    entry of the iterate is not finite (overflow).
    """
    _operator_arg(op)._require_square("an iterated kernel")
    n = _count_arg(n, "iterate", 1)

    def doubling():
        X = op.K.copy()
        Y = np.empty_like(X)
        w = op.w_cols
        N = X.shape[0]
        top = (N + 1) // 2 if n > 2 and op.reflection_symmetric else N
        for bit in bin(n)[3:]:
            for r in range(0, top, ITERATE_SLAB):
                rows = slice(r, min(r + ITERATE_SLAB, top))
                np.matmul(X[rows] * w, X, out=Y[rows])
            np.conjugate(Y[:N - top][::-1, ::-1], out=Y[top:])
            X, Y = Y, X
            if bit == "1":
                X *= w[:, None]
                np.matmul(op.K[:top], X, out=Y[:top])
                np.conjugate(Y[:N - top][::-1, ::-1], out=Y[top:])
                X, Y = Y, X
        return X

    return _finite(f"iterate n={n} overflows: its entries are not finite", doubling)


def nystrom_extend(kernel: Kernel, rule: QuadratureRule, eig_samples, nu, y):
    """Off-grid eigenfunction value via the Nystrom interpolant.

    p(y) = nu^{-1} sum_i N(y, x_i) w_i p(x_i), one row of samples at (y, x_i)
    times the weighted samples.  At a node this reproduces the sample up to
    the eigen-residual; a grid-sampled kernel extends only to its own nodes.
    nu must be a finite number and y a finite real number.  Scale-free in
    the samples (_scale_free); a value past the float range raises
    InvalidArgumentError.
    """
    nu = _number_arg(nu, "nu")
    if nu == 0:
        raise ZeroDivisionSignal("cannot extend an eigenfunction with nu = 0")
    s1, s2 = _kernel_arg(kernel).shape
    p = _array_arg(eig_samples, "eig_samples", (_rule_arg(rule).count * s2,))
    row = kernel.body._samples(kernel.shape, _real_point(y, "y"), rule.nodes)
    acc = _scale_free("the Nystrom extension overflows: its entries are not finite", p,
                      lambda g: _matvec(row, np.repeat(rule.weights, s2) * g) / nu)
    return complex(acc[0]) if s1 == 1 else acc
