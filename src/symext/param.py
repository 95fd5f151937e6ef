"""Normalized relative-entropy distance to the symmetrically extendible set.

The distance is estimated by conditional-gradient (Frank-Wolfe) descent of
sigma -> R(rho || sigma) over the extendible set. The linear subproblem has
a closed form: lift the gradient with an identity on the extending factor,
symmetrize under the swap, and take the reduction of the symmetrized
minimum-eigenvector projector. Every iterate is extendible by construction
and the duality gap bounds the distance to the true infimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .extend import FEASIBLE, ExtensionProblem, _Geometry, solve_extension
from .quantum import (
    DensityMatrix,
    coherent_information,
    embed_square,
    negativity,
    relative_entropy,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
SIGMA_FLOOR = 1e-12

__all__ = [
    "normalization_factor",
    "ParamResult",
    "distance_to_extendible",
    "hashing_lower_bound",
    "BoundReport",
    "bound_report",
    "two_copy_estimate",
]


def normalization_factor(d: int) -> float:
    """Scale making the distance equal log2(d) on maximally entangled states."""
    d = int(d)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return -math.log2(d) / math.log2((d + 1) / (2 * d))


@dataclass(eq=False)
class ParamResult:
    """Distance estimate: value = scale * R(embedded target || nearest).

    fw_gap is the certified width: the true infimum lies in
    [value - scale * fw_gap, value]. stop_reason is "gap" when Frank-Wolfe
    stopped on gap_tol and "budget" when the iteration budget ran out.
    """

    value: float
    nearest: DensityMatrix
    fw_gap: float
    iterations: int
    scale: float
    stop_reason: str


def _grad_and_value(rho: np.ndarray, sigma: np.ndarray, c_rho: float):
    """Objective R(rho||sigma) and its gradient in sigma.

    The gradient uses the first-order spectral (divided-difference) form of
    the matrix logarithm derivative evaluated in sigma's eigenbasis.
    """
    w, u = np.linalg.eigh(sigma)
    wf = np.maximum(w, SIGMA_FLOOR)
    rp = u.conj().T @ rho @ u
    value = c_rho - float(np.real(np.sum(np.diagonal(rp) * np.log2(wf))))

    lw = np.log(wf)
    diff = wf[:, None] - wf[None, :]
    num = lw[:, None] - lw[None, :]
    near = np.abs(diff) <= 1e-12 * (wf[:, None] + wf[None, :])
    denom = np.where(near, 1.0, diff)
    phi = np.where(near, 2.0 / (wf[:, None] + wf[None, :]), num / denom) / LN2
    g = -(u @ (rp * phi) @ u.conj().T)
    return value, (g + g.conj().T) / 2


def distance_to_extendible(
    rho: DensityMatrix, max_iter: int = 2000, gap_tol: float = 1e-5,
    extendible: bool | None = None,
) -> ParamResult:
    """Frank-Wolfe upper estimate of the normalized distance to extendibility.

    The state is zero-padded to d x d first. Iterates step along closed-form
    extreme points with the fixed step 2/(k+2) and stay full rank through a
    tiny mixing floor. Every iterate is extendible, and by convexity each
    step's linearization gives a lower bound on the infimum; the best one
    seen certifies the result. Stops when the value is within gap_tol of
    that bound or the iteration budget runs out.

    extendible says whether rho has a symmetric extension, if the caller
    has already decided it (zero-padding keeps that verdict); None runs an
    extension solve here, which a dual witness usually ends at once on a
    state that is not extendible. An extendible state is its own optimum
    (distance exactly zero), so the descent starts there and terminates
    immediately. Otherwise iterates start at the maximally mixed state.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"state must be bipartite, got dims {rho.dims}")
    embedded = embed_square(rho)
    d = embedded.dims[0]
    scale = normalization_factor(d)
    rho_t = np.asarray(embedded.matrix)
    c_rho = -von_neumann_entropy(embedded)

    geo = _Geometry((d, d))
    n = d * d
    sigma = np.eye(n, dtype=complex) / n
    floor = SIGMA_FLOOR * np.eye(n) / n
    if extendible is None:
        probe = solve_extension(ExtensionProblem(target=embedded))
        extendible = probe.verdict == FEASIBLE
    if extendible:
        sigma = (rho_t + floor) / (1.0 + SIGMA_FLOOR)

    value, grad = _grad_and_value(rho_t, sigma, c_rho)
    lower = -math.inf
    iterations = 0
    stop_reason = "budget"
    for k in range(1, max_iter + 1):
        iterations = k
        _, s = geo.lmo(grad)
        lower = max(lower, value - float(np.real(linalg.hs_inner(grad, sigma - s))))
        if value - lower <= gap_tol:
            stop_reason = "gap"
            break
        sigma = sigma + 2.0 / (k + 2) * (s - sigma)
        sigma = (sigma + floor) / (1.0 + SIGMA_FLOOR)
        sigma = (sigma + sigma.conj().T) / 2
        value, grad = _grad_and_value(rho_t, sigma, c_rho)

    nearest = DensityMatrix(sigma, (d, d))
    final_value = relative_entropy(embedded, nearest)
    return ParamResult(
        value=scale * final_value,
        nearest=nearest,
        fw_gap=max(final_value - lower, 0.0),
        iterations=iterations,
        scale=scale,
        stop_reason=stop_reason,
    )


def hashing_lower_bound(rho: DensityMatrix) -> float:
    """Coherent information S(rho_B) - S(rho_AB); max(0, value) bounds the
    one-way distillable entanglement from below."""
    return coherent_information(rho)


@dataclass(eq=False)
class BoundReport:
    """Hashing bound and distance parameter for one state.

    lower is the clamped hashing bound on one-way distillable entanglement.
    upper is 0 exactly when a symmetric extension was found (extendibility
    forces zero one-way distillable entanglement); otherwise it is the
    single-copy distance parameter. Only the regularized parameter bounds
    the distillable entanglement from above, so the single-copy value may
    lie below lower (isotropic(2, 0.9): 0.2519 against 0.3725).
    """

    lower: float
    upper: float
    extendible: str
    negativity: float
    hashing_raw: float
    certified_zero: bool
    parameter: ParamResult
    certificate: object


def bound_report(
    rho: DensityMatrix,
    tol: float = ExtensionProblem.tol,
    max_iter: int = ExtensionProblem.max_iter,
    fw_max_iter: int = 2000,
    gap_tol: float = 1e-5,
) -> BoundReport:
    """Extendibility verdict, hashing bound and distance parameter for one state."""
    cert = solve_extension(ExtensionProblem(target=rho, tol=tol, max_iter=max_iter))
    certified = cert.verdict == FEASIBLE
    par = distance_to_extendible(
        rho, max_iter=fw_max_iter, gap_tol=gap_tol, extendible=certified
    )
    neg = negativity(rho)
    raw = hashing_lower_bound(rho)
    lower = max(0.0, raw)
    upper = 0.0 if certified else par.value
    return BoundReport(
        lower=lower,
        upper=upper,
        extendible=cert.verdict,
        negativity=neg,
        hashing_raw=raw,
        certified_zero=certified,
        parameter=par,
        certificate=cert,
    )


def two_copy_estimate(
    rho: DensityMatrix, max_iter: int = 2000, gap_tol: float = 1e-5
) -> float:
    """Per-copy distance estimate on two copies of a qubit-qubit state.

    The doubled state is regrouped as (A1 A2)(B1 B2), treated as 4 x 4, and
    the returned value is half its normalized distance estimate. Products of
    extendible states are extendible, so the exact per-copy rate is at most
    normalization_factor(4) / normalization_factor(2) times the exact
    single-copy value; it can exceed the single-copy value itself.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"two-copy probe needs a 2 x 2 state, got dims {rho.dims}")
    doubled = np.kron(rho.matrix, rho.matrix)
    regrouped = linalg.permute_systems(doubled, (2, 2, 2, 2), (0, 2, 1, 3))
    pair = DensityMatrix(regrouped, (4, 4))
    return distance_to_extendible(pair, max_iter=max_iter, gap_tol=gap_tol).value / 2
