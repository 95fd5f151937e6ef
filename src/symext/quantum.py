"""States, channels, the Choi bridge, and entropic functionals."""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

INPUT_TOL = 1e-9  # trace, PSD, Kraus-completeness and Choi-marginal residuals
LOG_FLOOR = 1e-12
KERNEL_EIG_TOL = 1e-13
SUPPORT_MASS_TOL = 1e-8

__all__ = [
    "DensityMatrix",
    "KrausChannel",
    "ChoiState",
    "max_entangled_projector",
    "choi_from_kraus",
    "kraus_from_choi",
    "apply_channel",
    "depolarizing_channel",
    "von_neumann_entropy",
    "relative_entropy",
    "coherent_information",
    "fidelity_maxent",
    "negativity",
]


def _readonly(m: np.ndarray) -> np.ndarray:
    m = np.array(m)
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD trace-one matrix tagged with subsystem dimensions.

    matrix is read-only: float64 when the input's imaginary part is all
    zero (-0.0 included), complex128 otherwise. Its dtype sets the
    arithmetic of the solver and the distance.
    """

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        m = linalg.hermitianize(self.matrix)
        m = m if m.imag.any() else m.real
        dims = linalg._check_dims(m, self.dims)
        tr = float(m.trace().real)
        if abs(tr - 1.0) > INPUT_TOL:
            raise ValueError(f"trace is {tr!r}, off from 1 by {abs(tr - 1.0):.3e}")
        wmin = float(np.linalg.eigvalsh(m).min())
        if wmin < -INPUT_TOL:
            raise ValueError(f"minimum eigenvalue {wmin:.3e} below -{INPUT_TOL:.1e}")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel given by Kraus operators of shape d_out x d_in."""

    d_in: int
    d_out: int
    kraus: tuple

    def __post_init__(self):
        d_in = linalg._require_count("d_in", self.d_in, 1)
        d_out = linalg._require_count("d_out", self.d_out, 1)
        ops = tuple(_readonly(np.asarray(k, dtype=complex)) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (d_out, d_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape} is not ({d_out}, {d_in})"
                )
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus operator contains NaN or Inf entries")
        comp = sum(k.conj().T @ k for k in ops)
        res = np.linalg.norm(comp - np.eye(d_in))
        if res > INPUT_TOL:
            raise ValueError(
                f"not trace-preserving: ||sum K†K - I|| = {res:.3e} "
                f"exceeds {INPUT_TOL:.1e}"
            )
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "kraus", ops)


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Bipartite state on input x output with maximally mixed input marginal."""

    state: DensityMatrix

    def __post_init__(self):
        # partial_trace holds the bipartite rule
        marg = linalg.partial_trace(self.state.matrix, self.state.dims, 0)
        d_in = self.state.dims[0]
        res = np.linalg.norm(marg - np.eye(d_in) / d_in)
        if res > INPUT_TOL:
            raise ValueError(
                f"input marginal differs from I/{d_in}: residual {res:.3e} "
                f"exceeds {INPUT_TOL:.1e}"
            )

    @property
    def d_in(self) -> int:
        return self.state.dims[0]

    @property
    def d_out(self) -> int:
        return self.state.dims[1]


def max_entangled_projector(d: int) -> np.ndarray:
    """Trace-one projector onto sum_i |ii> / sqrt(d)."""
    d = linalg._require_count("dimension", d, 1)
    phi = np.eye(d).reshape(-1)
    return np.outer(phi, phi) / d


def choi_from_kraus(ch: KrausChannel) -> ChoiState:
    """Apply the channel to one half of the maximally entangled state: V V^dag,
    with columns (I (x) K) sum_i |ii> / sqrt(d_in) = vec(K^T) / sqrt(d_in)."""
    v = np.transpose(ch.kraus, (0, 2, 1)).reshape(len(ch.kraus), -1).T / math.sqrt(ch.d_in)
    return ChoiState(DensityMatrix(v @ v.conj().T, (ch.d_in, ch.d_out)))


def kraus_from_choi(c: ChoiState) -> KrausChannel:
    """Recover a Kraus representation from a Choi state.

    Eigenpairs of d_in * choi with eigenvalue above 1e-10 each yield one
    Kraus operator; the round trip back to the Choi state is exact to 1e-8.
    """
    d_in, d_out = c.d_in, c.d_out
    w, u = np.linalg.eigh(d_in * c.state.matrix)
    ops = []
    for lam, vec in zip(w, u.T):
        if lam > 1e-10:
            ops.append(math.sqrt(lam) * vec.reshape(d_in, d_out).T)
    return KrausChannel(d_in, d_out, tuple(ops))


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to B of a state on A (x) B."""
    linalg._require_bipartite(rho.dims)
    d_a, d_b = rho.dims
    if d_b != ch.d_in:
        raise ValueError(f"B dimension {d_b} does not match channel input {ch.d_in}")
    out = np.zeros((d_a * ch.d_out,) * 2, dtype=complex)
    for k in ch.kraus:
        lifted = np.kron(np.eye(d_a), k)
        out += lifted @ rho.matrix @ lifted.conj().T
    return DensityMatrix(out, (d_a, ch.d_out))


def depolarizing_channel(d: int, p: float) -> KrausChannel:
    """Channel rho -> (1-p) rho + p I/d via the Heisenberg-Weyl basis."""
    d = linalg._require_count("dimension", d, 2)
    p = linalg._require_fraction("p", p)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            u = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            weight = 1.0 - p + p / d**2 if a == b == 0 else p / d**2
            if weight > 0:
                ops.append(math.sqrt(weight) * u)
    return KrausChannel(d, d, tuple(ops))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum lambda log2 lambda in bits, over eigenvalues above LOG_FLOOR."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > LOG_FLOOR]
    return float(-np.sum(w * np.log2(w)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho log2 rho] - Tr[rho log2 sigma], or +inf on support mismatch.

    With (w, U) = eigh(sigma) and p = diag(U^dag rho U), the second term is
    sum_i p_i log2 max(w_i, LOG_FLOOR). Infinity is flagged when the mass of p
    on sigma's numerical kernel (w_i below 1e-13) exceeds 1e-8.
    """
    if rho.side != sigma.side:
        raise ValueError(f"dimension mismatch: {rho.side} vs {sigma.side}")
    w, u = np.linalg.eigh(sigma.matrix)
    p = np.real(np.sum(u.conj() * (rho.matrix @ u), axis=0))
    if np.sum(p[w < KERNEL_EIG_TOL]) > SUPPORT_MASS_TOL:
        return math.inf
    return -von_neumann_entropy(rho) - float(p @ np.log2(np.maximum(w, LOG_FLOOR)))


def coherent_information(rho: DensityMatrix) -> float:
    """S(rho_B) - S(rho_AB) for a bipartite state, in bits."""
    rho_b = DensityMatrix(linalg.partial_trace(rho.matrix, rho.dims, 1), (rho.dims[1],))
    return von_neumann_entropy(rho_b) - von_neumann_entropy(rho)


def fidelity_maxent(rho: DensityMatrix) -> float:
    """Overlap with the maximally entangled state on equal local dimensions."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise linalg.InputError(f"state must live on d x d, got dims {rho.dims}")
    p = max_entangled_projector(rho.dims[0])
    return float(np.vdot(p, rho.matrix).real)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    pt = linalg.partial_transpose(rho.matrix, rho.dims)
    w = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float(np.sum(-w[w < 0]))

