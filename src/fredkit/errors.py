"""Exception and warning types shared across fredkit, and the argument checks
every public entry point runs, one per kind of value: a count is an integer
in range, a block shape two positive ones, a number is finite, an array
holds numbers in the shape asked for (a sample vector has the operator's
length) and, as a rule, finite ones, and an object (a rule, a kernel, an
operator, a decomposition, an SVD) is one of its class.
"""
import numbers
import sys

import numpy as np


class FredkitError(Exception):
    """Base class for all fredkit errors."""


class InvalidArgumentError(FredkitError, ValueError):
    """An argument violates a documented range or shape constraint."""


def _count_arg(value, name, low=0, high=None):
    """int(value); InvalidArgumentError unless value is a Python or numpy
    integer (not a bool) in low..high, with no upper bound when high is None."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidArgumentError(f"{name} must be {bound}, got {value}")
    return value


def _shape_arg(shape):
    """(s1, s2) as ints; InvalidArgumentError unless shape is a tuple or list
    of two positive integers, the one check of a block shape."""
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2):
        raise InvalidArgumentError(f"block shape must be two positive integers: {shape!r}")
    return tuple(_count_arg(s, "block shape entry", 1) for s in shape)


def _is_number(value, real=False):
    """Whether value is a number (a real one when real); a bool is not."""
    kind = numbers.Real if real else numbers.Complex
    return isinstance(value, kind) and not isinstance(value, bool)


def _number_arg(value, name, real=False):
    """complex(value), or float(value) when real; InvalidArgumentError unless
    value is a finite number (a real one when real), which a bool or a
    string is not.  |re|, |im| <= the largest float is the test, so 10**400
    is refused, not overflowed."""
    if not _is_number(value, real):
        raise InvalidArgumentError(f"{name}={value!r} is not a {'real ' if real else ''}number")
    big = sys.float_info.max
    if not (abs(value.real) <= big and abs(value.imag) <= big):
        raise InvalidArgumentError(
            f"{name}={value!r} is not {'a finite real number' if real else 'finite'}")
    return float(value) if real else complex(value)


def _tolerance_arg(value, name, below=None):
    """float(value); InvalidArgumentError unless value is a real number in
    [0, below), or a finite one >= 0 when below is None: every tolerance's check."""
    high = sys.float_info.max if below is None else below
    if not (_is_number(value, real=True) and 0 <= value <= high and value != below):
        bound = ">= 0" if below is None else f"in [0, {below:g})"
        raise InvalidArgumentError(f"{name} must be a finite number {bound}, got {value!r}")
    return float(value)


def _array_arg(value, name, shape=None, real=False, finite=True):
    """value as a float64 (real or integer entries) or complex128 array, not
    copied when it is one, so a sample keeps its kind: a real one stays real.
    InvalidArgumentError unless value is an array or evenly nested sequence
    of numbers (real ones when real; a bool or a string is not one), of
    `shape` (None: any length, or any shape) and, when finite, finite."""
    try:
        array = np.asarray(value)
        if isinstance(value, (np.ndarray, np.generic)):
            ok = array.dtype.kind in ("iuf" if real else "iufc")
        else:  # numpy reads a bool among numbers as 0 or 1, so each entry is looked at
            entries = np.array(value, dtype=object).ravel().tolist()
            ok = all(_is_number(v, real) for v in entries)
            if ok and array.dtype.kind == "O":  # an integer past int64
                array = array.astype(float if all(_is_number(v, True) for v in entries)
                                     else complex)
    except (TypeError, ValueError, OverflowError):  # rows of different lengths, 10**400
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{name} is not an array of {'real ' if real else ''}numbers")
    array = array.astype(complex if array.dtype.kind == "c" else float, copy=False)
    if shape is not None and (array.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, array.shape))):
        expected = str(tuple(shape)).replace("None", "any")
        raise InvalidArgumentError(f"{name} has shape {array.shape}, expected {expected}")
    if finite and not np.isfinite(array).all():
        raise InvalidArgumentError(f"{name} has an entry that is not finite")
    return array


def _instance_arg(value, cls, name):
    """value; InvalidArgumentError unless it is a `cls`, the one check behind
    each kind of object an entry point takes (measure._rule_arg,
    kernels._kernel_arg, nystrom._operator_arg, ...)."""
    if not isinstance(value, cls):
        raise InvalidArgumentError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


class PreconditionViolationError(FredkitError):
    """A checked precondition failed (e.g. basis not orthonormal)."""


class EvaluationError(FredkitError):
    """Kernel evaluation failed at a node pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class WrongDecompositionError(FredkitError):
    """The requested decomposition does not apply to this operator."""


class DefectiveSuspectedError(FredkitError):
    """Eigenvectors coalesce; a non-diagonal Jordan structure is likely.

    Raised by the bi-orthogonal eigendecomposition when the eigenvector
    matrix is numerically singular.  Use the jordan module instead.
    """


class NoSpectrumError(FredkitError):
    """All eigenvalues are numerically zero; no spectral profile exists."""


class ClusteringError(FredkitError):
    """Eigenvalue clusters are not separated well enough to be trusted."""

    def __init__(self, message, gap=None, threshold=None):
        super().__init__(message)
        self.gap = gap
        self.threshold = threshold


class IllConditionedChainError(FredkitError):
    """Jordan chain vectors could not be computed to tolerance."""


class UnsupportedProfileError(FredkitError):
    """The spectral configuration falls outside the supported asymptotics."""


class _NearPoleError(FredkitError):
    """lambda sits too near a Fredholm eigenvalue: ``nearest`` is that
    eigenvalue and ``gap`` = |lambda - nearest|."""

    def __init__(self, message, nearest=None, gap=None):
        super().__init__(message)
        self.nearest = nearest
        self.gap = gap


class EigenvalueProximityError(_NearPoleError):
    """A resolvent-type solve was requested too close to an eigenvalue."""


class PoleError(_NearPoleError):
    """A series or path evaluation hit a pole of the resolvent."""


class NoSolutionError(FredkitError):
    """The first-kind equation has no solution at the given parameter."""


class StartingVectorError(FredkitError):
    """A power-iteration starting vector collapsed to numerical zero."""


class ConvergenceError(FredkitError):
    """An iterative estimate failed to reach its residual tolerance."""


class UnsupportedKernelError(FredkitError):
    """The kernel body does not support the requested operation."""


class ZeroDivisionSignal(FredkitError, ZeroDivisionError):
    """Division by a zero eigenvalue was requested."""


class NontrivialityWarning(UserWarning):
    """The discretized kernel is numerically zero."""
