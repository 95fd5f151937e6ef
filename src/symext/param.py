"""Normalized relative-entropy distance to the symmetrically extendible set.

A square factor V of the extension, X(V) = swap_avg(V V^dag) / ||V||_F^2,
parametrizes the extendible set Tr_B' X(V) without constraints (Burer and
Monteiro, Math. Program. 95, 2003), and the extension solver's L-BFGS
driver ``extend._lbfgs`` minimizes R(rho || Tr_B' X(V)) over it.
Frank-Wolfe duality certifies the answer (Jaggi, ICML 2013): the linear
subproblem, the minimum over extendible sigma of <G, sigma>, is
lambda_min(lift G) (Doherty, Parrilo and Spedalieri, PRA 69, 022308, 2004),
so one eigvalsh gives a lower bound on the infimum and no minimizer is
formed. The state's dtype sets the arithmetic: a real state runs in float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .constructions import isotropic_boundary_fidelity
from .extend import FEASIBLE, ExtensionProblem, _Geometry, _lbfgs, solve_extension
from .linalg import InputError, _require_bipartite, _require_count, _require_tol
from .quantum import (
    LOG_FLOOR,
    DensityMatrix,
    coherent_information,
    negativity,
    von_neumann_entropy,
)

LN2 = math.log(2.0)

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
    f_b = isotropic_boundary_fidelity(d)  # checks d first: an integer of at least 2
    return -math.log2(d) / math.log2(f_b)


@dataclass(eq=False)
class ParamResult:
    """Distance estimate: value = scale * R(target || nearest), as the
    objective evaluated it.

    fw_gap is the gap the stop rule read at nearest, the certified width:
    the true infimum lies in [value - scale * fw_gap, value]. A distance is
    never negative, so value is clamped at 0, where rounding in the
    objective can leave it just below; the interval stays valid. stop_reason
    is "gap" when that gap closed to gap_tol (so fw_gap <= gap_tol) and
    "budget" when the evaluations ran out (max_iter, or the one probe of a
    certified target); iterations counts evaluations of the objective.
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
    wf = np.maximum(w, LOG_FLOOR)
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


def _distance_geometry(rho: DensityMatrix, max_iter, gap_tol, max_iter_name="max_iter"):
    """The distance's argument rules, all checked before any work: returns
    the state's extension geometry and the scale of the distance."""
    _require_bipartite(rho.dims)
    _require_count(max_iter_name, max_iter, 1)
    _require_tol("gap_tol", gap_tol)
    return _Geometry(rho.dims), normalization_factor(max(rho.dims))


def distance_to_extendible(
    rho: DensityMatrix, max_iter: int = 2000, gap_tol: float = 1e-5,
    extendible: bool | None = None,
) -> ParamResult:
    """Certified upper estimate of the normalized distance to extendibility.

    The distance runs on the state's own d_A x d_B geometry; the argument
    rules of ``_distance_geometry`` (bipartite, side d_A d_B**2 at most
    MAX_SIDE, max(d_A, d_B) >= 2, max_iter and gap_tol) are checked before
    any work. The scale is normalization_factor(max(d_A, d_B)). Zero-padding
    to d x d, d = max(d_A, d_B), would not lower the infimum: the channels that
    compress C^d back onto each factor keep extendibility and fix the
    padded state, so by data processing each padded extendible state is
    matched by a d_A x d_B one at no larger distance. The extension
    solver's L-BFGS driver ``_lbfgs`` minimizes f(V) = R(rho || sigma(V)),
    sigma(V) = Tr_B' X(V) under a tiny mixing floor; its gradient is
    (2/t)(L - <L, X> I) V, with t = ||V||_F^2 and L the lift of the
    gradient G in sigma. Every sigma(V) is extendible, so by convexity at
    each accepted point value - Re<G, sigma> + lambda_min(lift G) is a lower
    bound on the infimum, read from one eigvalsh of lift G; the best one
    seen certifies the result. Stops when the value is within gap_tol of
    that bound or after max_iter (an integer) evaluations, line-search
    trials included; the result carries that value and gap.

    extendible says whether rho has a symmetric extension, if the caller
    has already decided it; None runs an extension solve of rho here,
    which a dual witness usually ends at once on a state that is not
    extendible. An extendible state is its own optimum
    (distance exactly zero), so for a certified target the one probe at
    sigma = rho is the whole answer. Otherwise the descent starts at
    V = I/sqrt(side), where sigma is maximally mixed.
    """
    geo, scale = _distance_geometry(rho, max_iter, gap_tol)
    c_rho = -von_neumann_entropy(rho)
    floor = LOG_FLOOR * np.eye(geo.d_ab) / geo.d_ab
    if extendible is None:
        extendible = solve_extension(ExtensionProblem(target=rho)).verdict == FEASIBLE

    def evaluate(v):
        t = np.linalg.norm(v) ** 2
        x = geo.swap_avg(v @ v.conj().T) / t
        sig = (geo.ptrace_last(x) + floor) / (1.0 + LOG_FLOOR)
        sig = (sig + sig.conj().T) / 2
        val, g = _grad_and_value(rho.matrix, sig, c_rho)
        lifted = geo.lift(g)
        return val, (2.0 / t) * (lifted @ v - np.vdot(lifted, x).real * v), sig, g, lifted

    def gap_closed(val, sig, g, lifted):
        # run at each accepted point: its sigma and value become the result
        nonlocal lower, value, sigma
        c = float(np.linalg.eigvalsh(lifted)[0])
        lower = max(lower, val - float(np.vdot(g, sig).real) + c)
        value, sigma = val, sig
        return val - lower <= gap_tol

    lower, value, sigma, iterations, stop_reason = -math.inf, None, None, 0, "budget"
    if extendible:
        sig, iterations = (rho.matrix + floor) / (1.0 + LOG_FLOOR), 1
        val, g = _grad_and_value(rho.matrix, sig, c_rho)
        if gap_closed(val, sig, g, geo.lift(g)):
            stop_reason = "gap"
    else:
        v0 = np.eye(geo.side, dtype=rho.matrix.dtype) / math.sqrt(geo.side)
        for iterations, _, accepted, val, _, extra in _lbfgs(evaluate, v0, max_iter):
            if accepted and gap_closed(val, *extra):
                stop_reason = "gap"
                break

    return ParamResult(
        value=scale * max(value, 0.0), nearest=DensityMatrix(sigma, rho.dims),
        fw_gap=max(value - lower, 0.0), iterations=iterations, scale=scale,
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
    """Extendibility verdict, hashing bound and distance parameter for one
    state. Every argument is checked, under its own name, before the solve."""
    _distance_geometry(rho, fw_max_iter, gap_tol, "fw_max_iter")
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


def two_copy_estimate(rho: DensityMatrix) -> ParamResult:
    """Distance estimate on two copies of a qubit-qubit state.

    The doubled state is regrouped as (A1 A2)(B1 B2) and treated as 4 x 4;
    its ParamResult is returned, and the per-copy rate is its value / 2.
    Products of extendible states are extendible, so the exact per-copy
    rate is at most normalization_factor(4) / normalization_factor(2) times
    the exact single-copy value; it can exceed the single-copy value itself.
    """
    if rho.dims != (2, 2):
        raise InputError(f"two-copy probe needs a 2 x 2 state, got dims {rho.dims}")
    doubled = np.kron(rho.matrix, rho.matrix)
    regrouped = linalg.permute_systems(doubled, (2, 2, 2, 2), (0, 2, 1, 3))
    return distance_to_extendible(DensityMatrix(regrouped, (4, 4)))
