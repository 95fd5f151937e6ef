"""Dense linear algebra over tensor-product index structure.

Every function here that takes a matrix casts it to complex128 (callers such
as the extension solver keep real data in float64). Multipartite structure
is carried separately as a tuple of subsystem dimensions whose product must
equal the matrix side.
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

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


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
    m = np.asarray(m, dtype=complex)
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
    """Return (m + m†)/2; reject inputs whose skew part exceeds HERMITICITY_TOL.

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


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a set of subsystem indices; kept subsystems stay in their
    original relative order.
    """
    m = _as_square(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    if 2 * n > len(_LETTERS):
        raise ValueError("too many subsystems for einsum labels")
    labels = list(_LETTERS[: 2 * n])
    for j in range(n):
        if j not in keep:
            labels[n + j] = labels[j]
    out = [labels[k] for k in keep] + [labels[n + k] for k in keep]
    spec = "".join(labels) + "->" + "".join(out)
    side = math.prod(dims[k] for k in keep)
    return np.einsum(spec, m.reshape(dims + dims)).reshape(side, side)


def partial_transpose(m, dims, which: int) -> np.ndarray:
    """Transpose the indices of a single tensor factor."""
    m = _as_square(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    which = int(which)
    if which < 0 or which >= n:
        raise ValueError(f"subsystem index {which} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[which], axes[n + which] = axes[n + which], axes[which]
    return t.transpose(axes).reshape(m.shape)


def swap_permutation(dims, i: int, j: int) -> np.ndarray:
    """Index permutation p of the swap V of factors i and j: V m V equals
    m[np.ix_(p, p)], with no arithmetic."""
    dims = tuple(_require_count("subsystem dimension", d, 1) for d in dims)
    n = len(dims)
    i, j = int(i), int(j)
    if i < 0 or i >= n or j < 0 or j >= n:
        raise ValueError(f"factor indices ({i}, {j}) out of range for {n} factors")
    if dims[i] != dims[j]:
        raise ValueError(
            f"cannot swap factors of unequal dimension {dims[i]} and {dims[j]}"
        )
    grid = np.arange(math.prod(dims)).reshape(dims)
    return np.swapaxes(grid, i, j).reshape(-1)


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
