"""Exact analytic states and extensions used as generators and solver oracles.

The 3x3 example family lives on A (x) B with A, B three-dimensional. Its
known tripartite extension is naturally written with the extending party
first, i.e. on (B', A, B); builders here permute it to the canonical
A (x) B (x) B' order where the exchange symmetry acts on factors 1 and 2.
"""

import math

import numpy as np

from . import linalg
from .quantum import DensityMatrix, fidelity_maxent, max_entangled_projector

__all__ = [
    "example_state",
    "filtered_state",
    "example_extension",
    "isotropic",
    "twirl_isotropic",
    "isotropic_boundary_fidelity",
    "boundary_isotropic_extension",
]


def _ket(dims, *indices) -> np.ndarray:
    v = np.zeros(math.prod(dims))
    stride = 1
    pos = 0
    for d, i in zip(reversed(dims), reversed(indices)):
        pos += i * stride
        stride *= d
    v[pos] = 1.0
    return v


def _proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec)


def example_state(fidelity: float) -> DensityMatrix:
    """Rank-four 3x3 family: F P+ + (1-F)/3 (|01><01| + |20><20| + |21><21|)."""
    f = linalg._require_fraction("fidelity", fidelity)
    dims = (3, 3)
    m = f * max_entangled_projector(3)
    for a, b in ((0, 1), (2, 0), (2, 1)):
        m += (1.0 - f) / 3.0 * _proj(_ket(dims, a, b))
    return DensityMatrix(m, dims)


def filtered_state(fidelity: float) -> DensityMatrix:
    """Example state filtered on the first factor so its marginal is I/3.

    The filter is diag(1, 1/sqrt(F), 1/sqrt(2-F)); F = 0 makes it singular.
    """
    f = linalg._require_fraction("fidelity", fidelity)
    if f == 0.0:
        raise linalg.InputError("fidelity must be in (0, 1], got 0.0: the filter is singular")
    w = np.diag([1.0, 1.0 / np.sqrt(f), 1.0 / np.sqrt(2.0 - f)])
    op = np.kron(w, np.eye(3))
    m = op @ example_state(f).matrix @ op.T
    m /= m.trace()
    return DensityMatrix(m, (3, 3))


def _extension_vectors() -> tuple:
    """The six eigenvectors on (B', A, B); the second one is unnormalized."""
    dims = (3, 3, 3)
    phi1 = (
        _ket(dims, 0, 0, 1)
        + _ket(dims, 1, 0, 0)
        + _ket(dims, 1, 1, 1)
        + _ket(dims, 1, 2, 2)
        + _ket(dims, 2, 2, 1)
    )
    return (
        _ket(dims, 0, 2, 0),
        phi1,
        _ket(dims, 0, 2, 1),
        _ket(dims, 1, 0, 1),
        _ket(dims, 1, 2, 0),
        _ket(dims, 1, 2, 1),
    )


def example_extension(fidelity: float, lam2: float = None) -> np.ndarray:
    """Tripartite extension of the example state, on canonical A (x) B (x) B'.

    The six eigenvector weights obey two reduction constraints,
    lam0 + lam4 = (1-F)/3 and lam2 + lam5 = (1-2F)/3, and the exchange
    symmetry of the extension forces lam2 = lam4. That leaves lam2 in
    [0, (1-2F)/3] as the one free choice, by default (1-2F)/6. The weight on
    the unnormalized five-term vector is F/3, which is what makes the total
    trace one and the first-factor reduction reproduce the example state.
    PSD requires F <= 1/2, so a larger F is an InputError.
    """
    f = linalg._require_fraction("fidelity", fidelity)
    if f > 0.5 + 1e-12:
        raise linalg.InputError(f"extension is not PSD for F > 1/2 (got F = {f})")
    lam3 = (1.0 - 2.0 * f) / 3.0
    if lam2 is None:
        lam2 = lam3 / 2.0
    elif not (linalg._is_real(lam2) and -1e-12 <= lam2 <= lam3 + 1e-12):
        raise linalg.InputError(f"lam2={lam2!r} outside [0, (1-2F)/3] = [0, {lam3:.6f}]")
    lams = ((1.0 - f) / 3.0 - lam2, f / 3.0, lam2, lam3, lam2, lam3 - lam2)
    m = np.zeros((27, 27))
    for lam, vec in zip(lams, _extension_vectors()):
        m += lam * _proj(vec)
    # (B', A, B) -> (A, B, B')
    return linalg.permute_systems(m, (3, 3, 3), (1, 2, 0))


def isotropic(d: int, fidelity: float) -> DensityMatrix:
    """Isotropic state with the given overlap on the maximally entangled state."""
    d = linalg._require_count("dimension", d, 2)
    f = linalg._require_fraction("fidelity", fidelity)
    p = max_entangled_projector(d)
    m = d**2 / (d**2 - 1) * ((1.0 - f) * np.eye(d * d) / d**2 + (f - 1.0 / d**2) * p)
    return DensityMatrix(m, (d, d))


def twirl_isotropic(rho: DensityMatrix) -> DensityMatrix:
    """Average over U (x) U*: the isotropic state of the same fidelity, which
    is clamped to [0, 1] because rounding can put it a few ulps outside."""
    return isotropic(rho.dims[0], min(max(fidelity_maxent(rho), 0.0), 1.0))


def isotropic_boundary_fidelity(d: int) -> float:
    """Largest isotropic fidelity that still admits a symmetric extension.

    Twirling by U (x) U* preserves both the fidelity and extendibility, and
    maps every d x d state onto the isotropic state of the same fidelity,
    so the isotropic family is extremal: no extendible d x d state, the
    Choi state of a zero-capacity channel included, has a larger fidelity.
    """
    d = linalg._require_count("dimension", d, 2)
    return (d + 1) / (2 * d)


def boundary_isotropic_extension(d: int) -> np.ndarray:
    """Explicit symmetric extension of the boundary isotropic state, any d >= 2.

    Equals 2 Pi (Phi (x) I) Pi / (d(d+1)), with Pi = (I + V)/2 the projector
    onto the part of B (x) B' symmetric under the swap V and Phi = |phi><phi|,
    phi = sum_i |ii>. So it is 2/(d(d+1)) S S^dag, where column k of S is
    Pi (|phi> (x) |k>): trace one, PSD, invariant under swapping the last two
    factors, and its two-party reduction is isotropic with fidelity (d+1)/(2d).
    S is real, so the result is float64, and verifying it costs a real
    eigvalsh. The entries of S are 0, 1/2 and 1, so S S^T is exact.
    """
    d = linalg._require_count("dimension", d, 2)
    e = np.eye(d)
    # column k of phi_k is |phi> (x) |k>, indexed (a, b, b', k); V swaps b, b'
    phi_k = e[:, :, None, None] * e[None, None, :, :]
    s = ((phi_k + phi_k.transpose(0, 2, 1, 3)) / 2).reshape(d**3, d)
    return 2 / (d * (d + 1)) * (s @ s.T)
