"""fredkit: integral operators with non-symmetric kernels, discretized.

Nystrom discretization of (kernel, measure) pairs into dense matrices,
Hermitian and bi-orthogonal eigendecompositions, Jordan chains for
defective spectra, operator SVD with iterated Gram identities, resolvent
solves with Fredholm determinants, and power iteration with deflation.
"""
from .errors import (
    ClusteringError,
    ConvergenceError,
    DefectiveSuspectedError,
    EigenvalueProximityError,
    EvaluationError,
    FredkitError,
    IllConditionedChainError,
    InvalidArgumentError,
    NontrivialityWarning,
    NoSolutionError,
    NoSpectrumError,
    PoleError,
    PreconditionViolationError,
    StartingVectorError,
    UnsupportedKernelError,
    UnsupportedProfileError,
    WrongDecompositionError,
    ZeroDivisionSignal,
)
from .measure import (
    QuadratureRule,
    discrete_measure,
    gauss_hermite_prob,
    gauss_legendre,
)
from .kernels import (
    HermitePair,
    Kernel,
    basis_kernel,
    defective_kernel,
    grid_kernel,
    hermite_he,
    mehler_kernel,
    orthonormal_poly_basis,
    separable_kernel,
)
from .nystrom import (
    DiscreteOperator,
    NodePartition,
    apply,
    apply_adjoint,
    discretize,
    iterated_kernel,
    nystrom_extend,
)
from .spectral import (
    AsymptoticProfile,
    BiSpectralDecomposition,
    asymptotic_profile,
    djf_eig,
    hermitian_eig,
    power_approx,
    reconstruct,
)
from .jordan import (
    JordanForm,
    defective_asymptotic,
    jordan_block,
    jordan_block_power,
    jordan_decompose,
    lift_to_kernel,
    matrix_power_via_jordan,
)
from .opsvd import (
    OperatorSVD,
    gram_apply,
    iterated_gram,
    iterated_gram_with_kernel,
    operator_svd,
    svd_truncate,
    trace_power,
)
from .fredholm import (
    DeterminantEval,
    ResolventSolve,
    determinant_log_derivative_check,
    first_kind_solve,
    fredholm_determinant,
    resolvent_kernel,
    resolvent_series,
    resolvent_solve,
    second_kind_solve_series,
)
from .powerit import (
    PowerTrace,
    SequentialSpectrumResult,
    deflate,
    extract_leading_pair,
    power_ratio_estimate,
    sequential_spectrum,
    variational_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule", "gauss_legendre", "gauss_hermite_prob", "discrete_measure",
    "Kernel", "HermitePair", "hermite_he", "mehler_kernel", "separable_kernel",
    "defective_kernel", "grid_kernel", "basis_kernel", "orthonormal_poly_basis",
    "DiscreteOperator", "NodePartition", "discretize", "apply", "apply_adjoint",
    "iterated_kernel", "nystrom_extend",
    "BiSpectralDecomposition", "AsymptoticProfile", "hermitian_eig", "djf_eig",
    "asymptotic_profile", "power_approx", "reconstruct",
    "JordanForm", "jordan_block", "jordan_block_power", "jordan_decompose",
    "matrix_power_via_jordan", "defective_asymptotic", "lift_to_kernel",
    "OperatorSVD", "operator_svd", "iterated_gram", "iterated_gram_with_kernel",
    "gram_apply", "trace_power", "svd_truncate",
    "ResolventSolve", "DeterminantEval", "resolvent_solve", "resolvent_kernel",
    "resolvent_series", "second_kind_solve_series", "fredholm_determinant",
    "determinant_log_derivative_check", "first_kind_solve",
    "PowerTrace", "SequentialSpectrumResult", "power_ratio_estimate",
    "variational_estimate", "extract_leading_pair", "deflate",
    "sequential_spectrum",
    "FredkitError", "InvalidArgumentError", "PreconditionViolationError",
    "EvaluationError", "WrongDecompositionError", "DefectiveSuspectedError",
    "NoSpectrumError", "ClusteringError", "IllConditionedChainError",
    "UnsupportedProfileError", "EigenvalueProximityError", "PoleError",
    "NoSolutionError", "StartingVectorError", "ConvergenceError",
    "UnsupportedKernelError", "ZeroDivisionSignal", "NontrivialityWarning",
]
