"""Dense linear algebra for the two shapes of the test: a state on A (x) B and
its symmetric extension on A (x) B (x) B'.

Every helper keeps its input's dtype: a real matrix stays float64 through
``hermitianize``, ``psd_project``, ``partial_trace``, ``partial_transpose``
and ``permute_systems``, and a complex one stays complex128. Tensor
structure is carried separately as a tuple of subsystem dimensions whose
product must equal the matrix side.
"""

import math

import numpy as np

HERMITICITY_TOL = 1e-10

__all__ = [
    "InputError",
    "hermitianize",
    "partial_trace",
    "partial_transpose",
    "swap_permutation",
    "permute_systems",
    "psd_project",
]

class InputError(ValueError):
    """An argument that breaks a documented rule of the library: a dimension
    or count, a tolerance, an extension side, a bipartite state, a [0, 1]
    parameter or a range. Faults found inside a computation are never
    InputError."""


def _require_count(name, value, least) -> int:
    """Return an integer count or dimension of at least ``least`` as an int;
    anything else, a float such as 2.0 or a bool included, is an InputError."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise InputError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """An int or float, numpy's included, and not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _require_fraction(name, value) -> float:
    """Return a real number in [0, 1] as a float; anything else, NaN, a bool,
    a string or a complex number included, is an InputError."""
    if not (_is_real(value) and 0 <= value <= 1):
        raise InputError(f"{name} must be a real number in [0, 1], got {value!r}")
    return float(value)


def _require_bipartite(dims) -> None:
    """Reject dims that do not name exactly two subsystems."""
    if len(dims) != 2:
        raise InputError(f"state must be bipartite (two subsystems), got dims {dims}")


def _require_tol(name, value) -> None:
    """Reject a tolerance that is not a positive, finite real number (NaN, a
    bool, a string and a complex number included)."""
    if not (_is_real(value) and 0 < value < math.inf):
        raise InputError(f"{name} must be a positive, finite real number, got {value!r}")


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _check_dims(m: np.ndarray, dims) -> tuple:
    dims = tuple(_require_count("subsystem dimension", d, 1) for d in dims)
    if math.prod(dims) != m.shape[0]:
        raise ValueError(
            f"product of dims {dims} is {math.prod(dims)}, "
            f"but matrix side is {m.shape[0]}"
        )
    return dims


def hermitianize(m) -> np.ndarray:
    """Return (m + m†)/2 in m's dtype (float64 or complex128); reject inputs
    whose skew part exceeds HERMITICITY_TOL.

    The tolerance is relative to max(1, ||m||) so that checks stay meaningful
    for matrices far from unit scale.
    """
    m = _as_square(m)
    skew_norm = np.linalg.norm((m - m.conj().T) / 2)
    if skew_norm > HERMITICITY_TOL * max(1.0, np.linalg.norm(m)):
        raise ValueError(
            f"matrix is not Hermitian: skew norm {skew_norm:.3e} "
            f"exceeds tolerance {HERMITICITY_TOL:.1e}"
        )
    return (m + m.conj().T) / 2


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Reduce a matrix on A (x) B to factor ``keep``: 0 traces out B, 1
    traces out A."""
    m = _as_square(m)
    _require_bipartite(dims)
    d_a, d_b = _check_dims(m, dims)
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 (A) or 1 (B), got {keep!r}")
    return np.trace(m.reshape(d_a, d_b, d_a, d_b), axis1=1 - keep, axis2=3 - keep)


def partial_transpose(m, dims) -> np.ndarray:
    """Transpose the B indices of a matrix on A (x) B."""
    m = _as_square(m)
    _require_bipartite(dims)
    d_a, d_b = _check_dims(m, dims)
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(m.shape)


def swap_permutation(d_a: int, d_b: int) -> np.ndarray:
    """Index permutation p of the swap V of B and B' on A (x) B (x) B':
    V m V equals m[np.ix_(p, p)], with no arithmetic."""
    return np.arange(d_a * d_b * d_b).reshape(d_a, d_b, d_b).transpose(0, 2, 1).reshape(-1)


def permute_systems(m, dims, perm) -> np.ndarray:
    """Reorder tensor factors so output factor k is input factor perm[k]."""
    m = _as_square(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    axes = list(perm) + [n + p for p in perm]
    return t.transpose(axes).reshape(m.shape)


def psd_project(m) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to a Hermitian input."""
    w, u = np.linalg.eigh(hermitianize(m))
    wc = np.clip(w, 0.0, None)
    out = (u * wc) @ u.conj().T
    return (out + out.conj().T) / 2
