"""Acceptance battery: one check per verifiable claim, with PASS/FAIL rows.

Each check pins its target value and tolerance; ``run_checks`` returns the
rows so both the CLI verb and the test suite can assert on them. Checks are
registered lazily so a name filter skips the work of everything else.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .constructions import (
    boundary_isotropic_extension,
    example_extension,
    example_state,
    filtered_state,
    isotropic,
    isotropic_boundary_fidelity,
    twirl_isotropic,
)
from .extend import (
    FEASIBLE,
    INFEASIBLE_NUMERICAL,
    ExtensionProblem,
    solve_extension,
    verify_certificate,
    verify_witness,
)
from .linalg import InputError, _require_count
from .param import (
    _grad_and_value,
    bound_report,
    distance_to_extendible,
    normalization_factor,
    two_copy_estimate,
)
from .quantum import (
    ChoiState,
    DensityMatrix,
    apply_channel,
    choi_from_kraus,
    depolarizing_channel,
    fidelity_maxent,
    kraus_from_choi,
    max_entangled_projector,
    negativity,
    relative_entropy,
    von_neumann_entropy,
)
from .sampling import (
    random_cptp,
    random_density,
    random_entangled_pure,
    random_separable,
)

__all__ = ["CheckResult", "run_checks"]


@dataclass
class CheckResult:
    name: str
    target: str
    measured: str
    tolerance: str
    passed: bool
    seconds: float


def _extension_reduction(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for f in (0.1, 0.3, 0.5):
        splits = [None] + [rng.uniform(0.0, (1.0 - 2.0 * f) / 3.0) for _ in range(5)]
        for lam2 in splits:
            ext = example_extension(f, lam2)
            res = verify_certificate(ext, example_state(f))
            worst = max(worst, res.combined)
    return f"{worst:.2e}", worst <= 1e-12


def _extension_family_boundary():
    """Both sides of the example family's F = 1/2: the closed-form extension
    at 1/2, checked by verify_certificate, and at 0.51 a solve that ends on a
    witness that verify_witness certifies, which proves no extension exists."""
    res = verify_certificate(example_extension(0.5), example_state(0.5))
    above = example_state(0.51)
    cert = solve_extension(ExtensionProblem(above))
    ok = res.combined <= 1e-12 and cert.verdict == INFEASIBLE_NUMERICAL and _witnessed(cert, above)
    return (f"psd={res.psd:.1e} swap={res.swap:.1e} pt={res.pt:.1e} at 0.5, "
            f"margin={cert.witness_margin:.2e} {_solves(cert)} at 0.51", ok)


def _boundary(d, lo, hi):
    """Both sides of the isotropic boundary F_b = (d+1)/(2d) (Johnson and
    Viola, PRA 88, 032323, 2013), for d x d states lo below it and hi above.
    The closed-form extension of isotropic(d, F_b) proves F_b extendible.
    The witness -P+ has margin F_b - F at fidelity F (Doherty, Parrilo and
    Spedalieri, PRA 69, 022308, 2004): 0 within its error bound at F_b, so
    Tr(P+ sigma) <= F_b over extendible sigma is tight, and certified on hi.
    The solver must be Feasible and certified on lo, and end on a certified
    witness on hi. This proves isotropic(d, F_b) the extendible state nearest
    to the singlet, at distance N(d) R(P+ || .) = log2 d: the extension gives
    the upper bound, and the margin the lower one, since by concavity of log2
    R(P+ || sigma) >= -log2 Tr(P+ sigma) >= -log2 F_b."""
    f_b = isotropic_boundary_fidelity(d)
    edge = isotropic(d, f_b)
    ext = verify_certificate(boundary_isotropic_extension(d), edge)
    singlet = DensityMatrix(max_entangled_projector(d), (d, d))
    tight, above = (verify_witness(-singlet.matrix, s) for s in (edge, hi))
    dist = abs(normalization_factor(d) * relative_entropy(singlet, edge) - math.log2(d))
    below, over = (solve_extension(ExtensionProblem(s)) for s in (lo, hi))
    res = verify_certificate(below.candidate, lo).combined
    margin = math.nan if over.witness_margin is None else over.witness_margin
    ok = (ext.psd <= 1e-10 and ext.swap <= 1e-12 and ext.pt <= 1e-12 / d
          and abs(tight.margin) <= tight.error_bound and above.certified and dist <= 1e-12
          and below.verdict == FEASIBLE and res <= ExtensionProblem.tol and _witnessed(over, hi))
    return (f"psd={ext.psd:.1e} swap={ext.swap:.1e} pt={ext.pt:.1e} "
            f"-P+={tight.margin:.1e}/{above.margin:.2e} dist-log2d={dist:.1e} res={res:.1e} "
            f"margin={margin:.2e} {_solves(below, over)}", ok)


def _headline_zero_capacity():
    report = bound_report(example_state(0.45))
    ok = (
        report.certified_zero
        and report.negativity > 0.05
        and report.hashing_raw <= 0.0
        and report.upper == 0.0
    )
    return (
        f"verdict={report.extendible} negativity={report.negativity:.3f} "
        f"hashing={report.hashing_raw:.3f}",
        ok,
    )


def _headline_zero_capacity_channel():
    """The paper's channel with entanglement transmission and zero one-way
    capacity: N has the Choi state filtered_state(0.45), is rebuilt from
    its Kraus operators, and is tested as ``symext test`` tests a channel
    file. Its fidelity cannot pass F_b, since twirling keeps extendibility."""
    channel = kraus_from_choi(ChoiState(filtered_state(0.45)))
    choi = choi_from_kraus(channel).state
    cert = solve_extension(ExtensionProblem(choi))
    res = verify_certificate(cert.candidate, choi).combined
    neg, fid, f_b = negativity(choi), fidelity_maxent(choi), isotropic_boundary_fidelity(3)
    twirl = solve_extension(ExtensionProblem(twirl_isotropic(choi)))
    ok = (cert.verdict == FEASIBLE and res <= ExtensionProblem.tol and neg > 0.05
          and fid <= f_b and twirl.verdict == FEASIBLE)
    return (f"kraus={len(channel.kraus)} verdict={cert.verdict} res={res:.1e} "
            f"negativity={neg:.3f} Fe={fid:.4f} F_b={f_b:.4f} "
            f"twirl={twirl.verdict} {_solves(cert, twirl)}", ok)


def _normalization_anchor(d, tol):
    state = DensityMatrix(max_entangled_projector(d), (d, d))
    result = distance_to_extendible(state)
    err = abs(result.value - math.log2(d))
    ok = err <= tol and result.fw_gap <= 1e-3 and result.stop_reason == "gap"
    return f"value={result.value:.6f} gap={result.fw_gap:.2e} stop={result.stop_reason}", ok


def _solves(*certs) -> str:
    """The evaluations and stop rules of a row's solves, as
    evals=7/1 stop=face/witness."""
    evals = "/".join(str(c.iterations) for c in certs)
    return f"evals={evals} stop={'/'.join(c.stop_reason for c in certs)}"


def _witnessed(cert, target) -> bool:
    """An infeasible verdict backed by a witness that verify_witness confirms."""
    return cert.witness is not None and verify_witness(cert.witness, target).certified


def _battery_separable(seed):
    rng = np.random.default_rng(seed)
    n_ok = 0
    for i in range(100):
        target = random_separable(rng, (2, 2) if i % 2 == 0 else (3, 3))
        cert = solve_extension(ExtensionProblem(target=target))
        res = verify_certificate(cert.candidate, target).combined
        n_ok += cert.verdict == FEASIBLE and res <= ExtensionProblem.tol
    return f"{n_ok}/100 Feasible and certified", n_ok == 100


def _battery_entangled(seed):
    rng = np.random.default_rng(seed + 1)
    n_feas = n_infeas = n_witnessed = 0
    for i in range(100):
        dims = (2, 2) if i % 2 == 0 else (3, 3)
        target = random_entangled_pure(rng, dims)
        cert = solve_extension(ExtensionProblem(target=target))
        n_feas += cert.verdict == FEASIBLE
        if cert.verdict == INFEASIBLE_NUMERICAL:
            n_infeas += 1
            n_witnessed += _witnessed(cert, target)
    ok = n_feas == 0 and n_witnessed == n_infeas
    return f"{n_feas}/100 Feasible, {n_witnessed}/{n_infeas} infeasible witnessed", ok


def _battery_closure(seed):
    """N on B and B' maps an extension X of rho to one of (id (x) N) rho: the
    swap commutes with N (x) N, and Tr_B' absorbs the copy on B'. The image
    of a candidate stays PSD and swap-invariant up to rounding. A marginal
    within tol in Frobenius norm is within sqrt(d_A d_B) tol in trace norm,
    which the channel contracts, so the image is within sqrt(d_A d_B) tol."""
    rng = np.random.default_rng(seed + 2)
    kept, tol = 0, ExtensionProblem.tol
    for i in range(20):
        dims = (2, 2) if i % 2 == 0 else (3, 3)
        state = random_separable(rng, dims)
        ch = random_cptp(rng, dims[1], dims[1], int(rng.integers(1, dims[1] + 2)))
        cert = solve_extension(ExtensionProblem(state))
        # sum_{k,l} (I (x) K_k (x) K_l) X (...)^dag on the raw candidate X, whose
        # trace can miss 1 by more than a DensityMatrix admits
        ops = [np.kron(np.eye(dims[0]), np.kron(k, l)) for k in ch.kraus for l in ch.kraus]
        mapped = sum(op @ cert.candidate @ op.conj().T for op in ops)
        res = verify_certificate(mapped, apply_channel(ch, state)).combined
        kept += cert.verdict == FEASIBLE and res <= math.sqrt(math.prod(dims)) * tol
    return f"{kept}/20 preserved", kept == 20


def _battery_gradient(seed):
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(10):
        state = random_density(rng, (3, 3))
        rho = state.matrix
        sigma = 0.5 * random_density(rng, (3, 3)).matrix + 0.5 * np.eye(9) / 9
        direction = random_density(rng, (3, 3)).matrix - np.eye(9) / 9
        direction /= np.linalg.norm(direction)
        c_rho = -von_neumann_entropy(state)
        _, grad = _grad_and_value(rho, sigma, c_rho)
        analytic = float(np.vdot(grad, direction).real)
        eps = 1e-5
        f_plus, _ = _grad_and_value(rho, sigma + eps * direction, c_rho)
        f_minus, _ = _grad_and_value(rho, sigma - eps * direction, c_rho)
        numeric = (f_plus - f_minus) / (2 * eps)
        worst = max(worst, abs(analytic - numeric) / max(1e-12, abs(numeric)))
    return f"worst rel err {worst:.2e}", worst <= 1e-6


def _two_copy(kind):
    """Per-copy two-copy rate against the single-copy value.

    Two copies of the qubit maximally entangled state are the d=4 one, so
    there the rate stays at the single-copy value 1. For a general state
    only subadditivity holds: products of extendible states are extendible,
    so the rate is at most N(4)/N(2) times the single-copy value.
    """
    if kind == "maxent":
        state = DensityMatrix(max_entangled_projector(2), (2, 2))
    else:
        state = isotropic(2, 0.9)
    pair, single = two_copy_estimate(state), distance_to_extendible(state)
    two, one = pair.value / 2, single.value
    stops = f"stop={pair.stop_reason}/{single.stop_reason}"
    gaps = pair.stop_reason == single.stop_reason == "gap"
    if kind == "maxent":
        ok = gaps and two <= one + 2e-3 and abs(two - 1.0) <= 2e-3
        return f"two={two:.6f} single={one:.6f} {stops}", ok
    bound = normalization_factor(4) / normalization_factor(2) * one
    ok = gaps and two <= bound + 2e-3
    return f"two={two:.6f} single={one:.6f} bound={bound:.6f} {stops}", ok


def _registry(seed):
    return [
        *((f"isotropic-boundary-d{d}",
           "extension at F_b, -P+ tight at F_b, F_b-0.01 Feasible, F_b+0.01 witnessed",
           f"1e-10/1e-12/{1e-12 / d:.1e}, {ExtensionProblem.tol:.0e}",
           lambda d=d, f_b=isotropic_boundary_fidelity(d): _boundary(
               d, isotropic(d, f_b - 0.01), isotropic(d, f_b + 0.01)))
          for d in (2, 3, 4, 6, 8)),
        ("extension-family-reduction", "<=1e-12", "1e-12",
         lambda: _extension_reduction(seed)),
        ("extension-family-boundary", "extension at 0.5, witnessed at 0.51", "1e-12",
         _extension_family_boundary),
        ("headline-zero-capacity", "Feasible, neg>0.05, hashing<=0", "exact",
         _headline_zero_capacity),
        ("headline-zero-capacity-channel",
         "Feasible+certified, neg>0.05, Fe<=F_b(3), twirl Feasible",
         f"{ExtensionProblem.tol:.0e}", _headline_zero_capacity_channel),
        ("normalization-anchor-d2", "1.000000, gap<=1e-3, stop=gap", "1e-3",
         lambda: _normalization_anchor(2, 1e-3)),
        ("normalization-anchor-d3", f"{math.log2(3):.6f}, gap<=1e-3, stop=gap", "2e-3",
         lambda: _normalization_anchor(3, 2e-3)),
        ("depolarizing-flip", "Feasible@0.35 / witnessed InfeasibleNumerical@0.31",
         f"1e-10/1e-12/{1e-12 / 2:.1e}, {ExtensionProblem.tol:.0e}",
         lambda: _boundary(2, *(choi_from_kraus(depolarizing_channel(2, p)).state
                                for p in (0.35, 0.31)))),
        ("battery-separable", "100/100 Feasible and certified", "exact",
         lambda: _battery_separable(seed)),
        ("battery-entangled-pure", "0/100 Feasible, every infeasible witnessed", "exact",
         lambda: _battery_entangled(seed)),
        ("battery-one-way-closure", "20/20 preserved",
         f"sqrt(d_A d_B) {ExtensionProblem.tol:.0e}",
         lambda: _battery_closure(seed)),
        ("battery-gradient", "rel err <= 1e-6", "1e-6",
         lambda: _battery_gradient(seed)),
        ("two-copy-maxent", "two <= single + 2e-3, two ~ 1.0", "2e-3",
         lambda: _two_copy("maxent")),
        ("two-copy-isotropic", "two <= N(4)/N(2) * single + 2e-3", "2e-3",
         lambda: _two_copy("iso")),
    ]


def run_checks(only=None, seed: int = 7):
    """Run the acceptance battery, optionally filtered by name substring; a
    seed that is not a non-negative integer, or a filter that matches no
    check, is an InputError."""
    _require_count("seed", seed, 0)
    rows = []
    for name, target, tolerance, fun in _registry(seed):
        if only and only not in name:
            continue
        start = time.perf_counter()
        try:
            measured, passed = fun()
        except Exception as exc:  # honest failure, not a crash of the battery
            measured, passed = f"raised {type(exc).__name__}: {exc}", False
        rows.append(
            CheckResult(
                name=name,
                target=target,
                measured=str(measured),
                tolerance=tolerance,
                passed=passed,
                seconds=time.perf_counter() - start,
            )
        )
    if not rows:
        raise InputError(f"no checks match filter {only!r}")
    return rows
