"""Seeded random states, channels and unitaries for batteries and tests."""

import math

import numpy as np

from .linalg import InputError, _require_count
from .quantum import DensityMatrix, KrausChannel

__all__ = [
    "random_unitary",
    "random_pure_state",
    "random_density",
    "random_product_pure",
    "random_separable",
    "random_entangled_pure",
    "random_cptp",
]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    n = _require_count("dimension", n, 1)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    n = _require_count("dimension", n, 1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dims, rank=None) -> DensityMatrix:
    """Wishart-style random mixed state, optionally rank-limited.

    Only the tests pass ``rank``: their rank-deficient targets drive the
    extension solver's forced-support (face) path. It stays for the
    rank-deficient distance instances proposed in the ROADMAP (items 2 and
    7), which would give it a caller in the library or the benchmark."""
    dims = tuple(_require_count("subsystem dimension", d, 1) for d in dims)
    n = math.prod(dims)
    r = n if rank is None else _require_count("rank", rank, 1)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims)


def random_product_pure(rng: np.random.Generator, dims) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for d in dims:
        out = np.kron(out, random_pure_state(rng, d))
    return out


def random_separable(rng: np.random.Generator, dims) -> DensityMatrix:
    """Mixture of at most prod(dims) random product pure states."""
    dims = tuple(_require_count("subsystem dimension", d, 1) for d in dims)
    n = math.prod(dims)
    k = int(rng.integers(1, n + 1))
    weights = rng.random(k)
    weights /= weights.sum()
    m = np.zeros((n, n), dtype=complex)
    for w in weights:
        v = random_product_pure(rng, dims)
        m += w * np.outer(v, v.conj())
    return DensityMatrix(m, dims)


def random_entangled_pure(rng: np.random.Generator, dims) -> DensityMatrix:
    """Bipartite pure state whose second Schmidt coefficient is not tiny."""
    da, db = (_require_count("subsystem dimension", d, 2) for d in dims)
    while True:
        v = random_pure_state(rng, da * db)
        sv = np.linalg.svd(v.reshape(da, db), compute_uv=False)
        if sv[1] >= 0.1:
            return DensityMatrix(np.outer(v, v.conj()), (da, db))


def random_cptp(rng: np.random.Generator, d_in: int, d_out: int, n_kraus: int) -> KrausChannel:
    """Random channel from a Haar isometry into d_out * n_kraus dimensions,
    which must be at least d_in."""
    d_in, d_out = _require_count("d_in", d_in, 1), _require_count("d_out", d_out, 1)
    n_kraus = _require_count("n_kraus", n_kraus, 1)
    if d_out * n_kraus < d_in:
        raise InputError(f"d_out * n_kraus = {d_out * n_kraus} is below d_in = {d_in}")
    a = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q, _ = np.linalg.qr(a)
    ops = tuple(q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus))
    return KrausChannel(d_in, d_out, ops)
