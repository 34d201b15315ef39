import numpy as np
import pytest

import fredkit as fk


@pytest.fixture(scope="session")
def gl8():
    return fk.gauss_legendre(8, 0.0, 1.0)


@pytest.fixture(scope="session")
def gh40():
    return fk.gauss_hermite_prob(40)


@pytest.fixture(scope="session")
def yz_kernel():
    # N(y,z) = y*z on [0,1]: rank one, eigenvalue int z^2 dz = 1/3
    return fk.separable_kernel([1.0], [lambda y: y], [lambda z: z])


@pytest.fixture(scope="session")
def yz_op(yz_kernel, gl8):
    return fk.discretize(yz_kernel, gl8)


@pytest.fixture(scope="session")
def yz2_kernel():
    # N(y,z) = y*z^2 on [0,1]: eigenvalue int z^2 * z dz = 1/4
    return fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z])


@pytest.fixture(scope="session")
def yz2_op(yz2_kernel, gl8):
    return fk.discretize(yz2_kernel, gl8)


@pytest.fixture(scope="session")
def mehler_op(gh40):
    return fk.discretize(fk.mehler_kernel(0.5), gh40)


@pytest.fixture(scope="session")
def two_term_kernel(gl8):
    # nonsymmetric kernel with eigenvalues exactly 0.5 and 0.2: right
    # eigenfunctions e0, e1 and left ones e0 + 0.6 e2, e1 - 0.4 e2
    # (bi-orthogonal by construction since the e's are orthonormal)
    e = fk.orthonormal_poly_basis(gl8, 3)
    return fk.separable_kernel(
        [0.5, 0.2], [e[0], e[1]], [e[0] + 0.6 * e[2], e[1] - 0.4 * e[2]]
    )


@pytest.fixture(scope="session")
def two_term_op(two_term_kernel, gl8):
    return fk.discretize(two_term_kernel, gl8)


@pytest.fixture(scope="session")
def pm_half_op(gl8):
    # symmetric kernel with eigenvalue pair +1/2, -1/2
    e = fk.orthonormal_poly_basis(gl8, 2)
    kern = fk.separable_kernel([0.5, -0.5], [e[0], e[1]], [e[0], e[1]])
    return fk.discretize(kern, gl8)


@pytest.fixture(scope="session")
def defective_op(gl8):
    basis = fk.orthonormal_poly_basis(gl8, 2)
    kern = fk.defective_kernel(0.5, 2, basis, gl8)
    return fk.discretize(kern, gl8)


def symmetrized(op):
    """B = W^{1/2} K W^{1/2}, derived from op's K and weights by the
    expression fredkit forms it with, so equal to op.B bit for bit: an
    oracle written apart from the property it checks."""
    return np.sqrt(op.w_rows)[:, None] * op.K * np.sqrt(op.w_cols)[None, :]


def wfro(op, X):
    """Weighted Frobenius norm matching the L2(mu x mu) geometry."""
    sr = np.sqrt(op.w_rows)[:, None]
    sc = np.sqrt(op.w_cols)[None, :]
    return float(np.linalg.norm(sr * np.asarray(X) * sc))
