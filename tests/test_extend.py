from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from symext import extend, linalg
from symext.constructions import (
    boundary_isotropic_extension,
    example_extension,
    example_state,
    filtered_state,
    isotropic,
    isotropic_boundary_fidelity,
)
from symext.extend import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE_NUMERICAL,
    CertificateResiduals,
    ExtensionProblem,
    SweepResult,
    SweepRow,
    WitnessCheck,
    _Geometry,
    _lbfgs,
    run_isotropic_sweep,
    solve_extension,
    verify_certificate,
    verify_witness,
)
from symext.param import distance_to_extendible, two_copy_estimate
from symext.quantum import (
    ChoiState,
    DensityMatrix,
    KrausChannel,
    choi_from_kraus,
    coherent_information,
    depolarizing_channel,
    fidelity_maxent,
    max_entangled_projector,
    negativity,
)
from symext.sampling import (
    random_density,
    random_entangled_pure,
    random_separable,
    random_unitary,
)


def solve(dm, **kw):
    return solve_extension(ExtensionProblem(target=dm, **kw))


def test_problem_validation():
    rng = np.random.default_rng(0)
    tripartite = random_density(rng, (2, 2, 2))
    with pytest.raises(ValueError, match="bipartite"):
        ExtensionProblem(target=tripartite)
    target = random_density(rng, (2, 2))
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            ExtensionProblem(target=target, tol=bad)
    for bad in (0.0, float("nan"), 100.5):
        with pytest.raises(ValueError, match="max_iter"):
            ExtensionProblem(target=target, max_iter=bad)
    assert ExtensionProblem(target=target, max_iter=np.int64(5)).max_iter == 5
    big = random_density(rng, (9, 12))
    with pytest.raises(ValueError, match="side"):
        solve(big)


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_dual_geometry(dims):
    rng = np.random.default_rng(11)
    # rank 2 puts the dual on a proper face (the support basis is not None)
    target = random_density(rng, dims, rank=2)
    geo = _Geometry(dims, target.matrix, 1e-7)
    assert geo.basis is not None
    n = geo.d_ab
    # the lift is the adjoint of Tr_B' on swap-invariant matrices
    y = _random_hermitian(rng, n)
    x = geo.swap_avg(_random_hermitian(rng, geo.side))
    lhs = np.vdot(geo.lift(y), x)
    rhs = np.vdot(y, geo.ptrace_last(x))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(y) * np.linalg.norm(x)
    # central differences of theta match the gradient Tr_B' X(y) - rho
    _, grad, _, _ = geo.dual(y)
    eps = 1e-6
    for _ in range(3):
        h = _random_hermitian(rng, n)
        numeric = (geo.dual(y + eps * h)[0] - geo.dual(y - eps * h)[0]) / (2 * eps)
        analytic = float(np.vdot(grad, h).real)
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)


def _dense_dual(rho, dims, y):
    """theta, gradient, free margin and X(y) from a dense eigh of P lift(y) P.
    Range P is range(pi1) intersected with range(swap pi1 swap), for
    pi1 = supp(rho) (x) I, taken as the null space of the stacked complements."""
    d_a, d_b = dims
    n, side = d_a * d_b, d_a * d_b * d_b
    w, u = np.linalg.eigh(rho)
    supp = u[:, w > 1e-10]
    v = np.eye(side)[linalg.swap_permutation(d_a, d_b)]
    pi1 = np.kron(supp @ supp.conj().T, np.eye(d_b))
    _, sv, vh = np.linalg.svd(np.vstack([np.eye(side) - pi1, np.eye(side) - v @ pi1 @ v]))
    basis = vh[sv < 1e-9].conj().T
    p = basis @ basis.conj().T
    lifted = np.kron(y, np.eye(d_b))
    wl, ul = np.linalg.eigh(p @ ((lifted + v @ lifted @ v) / 2) @ p)
    w_pos = np.clip(wl, 0.0, None)
    x = (ul * w_pos) @ ul.conj().T
    t = x.reshape(n, d_b, n, d_b)
    grad = sum(t[:, k, :, k] for k in range(d_b)) - rho
    rho_y = float(np.real(np.trace(rho @ y)))
    return 0.5 * float(w_pos @ w_pos) - rho_y, grad, float(wl.max()) - rho_y, x, basis.shape[1]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_dual_on_support_matches_dense_reference(dims, rank):
    rng = np.random.default_rng(100 + 10 * rank + dims[0] * dims[1])
    target = random_density(rng, dims, rank=rank)
    geo = _Geometry(dims, target.matrix, 1e-7)
    for _ in range(3):
        y = _random_hermitian(rng, geo.d_ab)
        value, grad, f, margin = geo.dual(y)
        ref_value, ref_grad, ref_margin, ref_x, dim_p = _dense_dual(target.matrix, dims, y)
        # the dual works in coordinates of range P, of dimension below side
        assert geo.basis.shape == (geo.side, dim_p) and dim_p < geo.side
        assert f.shape[0] == geo.side and f.shape[1] <= dim_p
        scale = max(1.0, np.linalg.norm(y))
        assert abs(value - ref_value) <= 1e-12 * scale**2
        assert abs(margin - ref_margin) <= 1e-12 * scale
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * scale
        assert np.linalg.norm(f @ f.conj().T - ref_x) <= 1e-12 * scale


def _compression_target(kind, rng, dims):
    d_a, d_b = dims
    if kind == "measure-prepare":
        return choi_from_kraus(_measure_prepare(rng, d_a, d_b, d_a)).state
    if kind == "product":
        a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        g = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        sigma = g @ g.conj().T
        pure_a = np.outer(a, a.conj()) / (a.conj() @ a)
        return DensityMatrix(np.kron(pure_a, sigma / np.trace(sigma)), dims)
    return random_entangled_pure(rng, dims)


@pytest.mark.parametrize("kind", ["measure-prepare", "product", "pure-entangled"])
@pytest.mark.parametrize(
    "dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"]
)
def test_compression_without_lift_matches_dense(kind, dims):
    # rank-deficient targets: B^dag lift(y) B from y and [B, V B] alone
    # equals the product with the side x side lift
    rng = np.random.default_rng(60 + 7 * dims[0] + dims[1])
    target = _compression_target(kind, rng, dims)
    geo = _Geometry(dims, target.matrix, 1e-7)
    b = geo.basis
    assert b is not None and (b.shape[1] == 0) == (kind == "pure-entangled")
    for _ in range(3):
        y = _random_hermitian(rng, geo.d_ab)
        dense = b.conj().T @ geo.lift(y) @ b
        got = geo.compress(y)
        assert got.shape == dense.shape == (b.shape[1], b.shape[1])
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize(
    "target",
    [
        DensityMatrix(max_entangled_projector(2), (2, 2)),
        random_entangled_pure(np.random.default_rng(23), (2, 3)),
    ],
    ids=["maxent2", "pure-2x3"],
)
def test_empty_support_ends_with_witness(target):
    # a pure entangled target has no room for an extension: range P is
    # empty and every dual evaluation runs an eigh of size 0
    geo = _Geometry(target.dims, target.matrix, 1e-7)
    assert geo.basis.shape == (geo.side, 0)
    cert = solve(target)
    assert cert.verdict == INFEASIBLE_NUMERICAL and cert.stop_reason == "witness"
    assert verify_witness(cert.witness, target).certified
    assert cert.candidate.shape == (geo.side, geo.side) and not cert.candidate.any()


def _two_qubit_targets(rng):
    for i in range(200):
        kind = i % 4
        if kind == 0:
            yield random_density(rng, (2, 2))
        elif kind == 1:
            yield random_density(rng, (2, 2), rank=3)
        elif kind == 2:
            v = random_entangled_pure(rng, (2, 2)).matrix
            p = rng.uniform(0.0, 1.0)
            yield DensityMatrix(p * v + (1 - p) * np.eye(4) / 4, (2, 2))
        else:
            yield random_separable(rng, (2, 2))


def test_two_qubit_closed_form_oracle():
    # Chen, Ji, Kribs, Lutkenhaus and Zeng, PRA 90, 032318 (2014): a two-qubit
    # rho has a symmetric extension on B iff
    # Tr rho_B^2 - Tr rho^2 + 4 sqrt(det rho) >= 0
    rng = np.random.default_rng(314)
    decided = 0
    for target in _two_qubit_targets(rng):
        rho = target.matrix
        rho_b = linalg.partial_trace(rho, (2, 2), 1)
        det = max(float(np.linalg.det(rho).real), 0.0)
        crit = float(np.trace(rho_b @ rho_b).real - np.trace(rho @ rho).real) + 4 * det**0.5
        cert = solve(target)
        if abs(crit) > 1e-6:
            decided += 1
            assert (cert.verdict == FEASIBLE) == (crit >= 0), (crit, cert.verdict)
        if cert.verdict == FEASIBLE:
            assert verify_certificate(cert.candidate, target).combined <= ExtensionProblem.tol
        else:
            assert cert.verdict == INFEASIBLE_NUMERICAL
            assert verify_witness(cert.witness, target).certified
    assert decided >= 180


def test_product_state_feasible():
    rng = np.random.default_rng(1)
    a, b = random_density(rng, (2,)), random_density(rng, (2,))
    cert = solve(DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2)))
    assert cert.verdict == FEASIBLE

    # for rho_A (x) I/d_B the lift of the start point y0 is
    # rho_A (x) I (x) I/d_B^2, which is PSD: evaluation 1 is Feasible
    target = DensityMatrix(np.kron(a.matrix, np.eye(3) / 3), (2, 3))
    cert = solve(target)
    assert cert.verdict == FEASIBLE
    assert cert.iterations == 1 and cert.stop_reason == "tol"
    assert verify_certificate(cert.candidate, target).combined <= 1e-7


def test_example_family_feasible_at_04():
    cert = solve(example_state(0.4))
    assert cert.verdict == FEASIBLE
    assert cert.residuals.combined <= 1e-7


def test_isotropic_above_boundary_infeasible():
    cert = solve(isotropic(2, 0.80))
    assert cert.verdict == INFEASIBLE_NUMERICAL
    assert cert.residuals.combined >= 10 * 1e-7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_witness_certifies_isotropic_above_boundary(d):
    target = isotropic(d, isotropic_boundary_fidelity(d) + 0.01)
    cert = solve(target)
    assert cert.verdict == INFEASIBLE_NUMERICAL
    assert cert.stop_reason == "witness"
    # evaluation 1 is the start point y0, whose lift has marginal target
    assert cert.iterations == 1
    check = verify_witness(cert.witness, target)
    assert check.certified
    assert cert.witness_margin == check.margin
    # an early witness exit reports finite residuals
    assert np.isfinite(cert.residuals.combined)
    assert cert.residuals.combined >= 10 * 1e-7


@pytest.mark.parametrize("offset", [-0.01, 0.01], ids=["inside", "outside"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_target_matches_rotated_complex_target(d, offset):
    # The dual is covariant under local unitaries, so the real isotropic
    # target and its complex rotation by U_A (x) U_B take the same path: one
    # solve runs in float64, the other in complex128.
    target = isotropic(d, isotropic_boundary_fidelity(d) + offset)
    rng = np.random.default_rng(60 + d)
    u = np.kron(random_unitary(rng, d), random_unitary(rng, d))
    rotated = DensityMatrix(u @ target.matrix @ u.conj().T, (d, d))
    real, cplx = solve(target), solve(rotated)
    assert real.candidate.dtype == np.float64 and cplx.candidate.dtype == np.complex128
    assert real.verdict == cplx.verdict and real.iterations == cplx.iterations
    for cert, state in ((real, target), (cplx, rotated)):
        if offset < 0:
            assert cert.verdict == FEASIBLE
            assert verify_certificate(cert.candidate, state).combined <= ExtensionProblem.tol
        else:
            assert cert.verdict == INFEASIBLE_NUMERICAL
            assert verify_witness(cert.witness, state).certified


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_verifiers_swap_by_index_permutation(dims):
    # indexing by the permutation is bit-identical to conjugating by the
    # dense swap matrix, so both verifiers return the reference's numbers
    d_a, d_b = dims
    rng = np.random.default_rng(29)
    side = d_a * d_b * d_b
    v = np.eye(side)[linalg.swap_permutation(d_a, d_b)]
    e = np.eye(d_b)
    flip = sum(np.kron(np.outer(e[j], e[k]), np.outer(e[k], e[j]))
               for j in range(d_b) for k in range(d_b))
    assert np.array_equal(v, np.kron(np.eye(d_a), flip))
    p = linalg.swap_permutation(d_a, d_b)
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    assert np.array_equal(m[np.ix_(p, p)], v @ m @ v)

    target = random_density(rng, dims)
    x = m @ m.conj().T
    assert verify_certificate(x, target).swap == float(np.linalg.norm(x - v @ x @ v))
    w = _random_hermitian(rng, d_a * d_b)
    lifted = np.kron(w, np.eye(d_b))
    c = float(np.linalg.eigvalsh((lifted + v @ lifted @ v) / 2)[0])
    value = float(np.real(np.sum(w * target.matrix.T)))
    assert verify_witness(w, target).margin == value - c


@pytest.mark.parametrize(
    "make, seed",
    [
        (lambda rng: random_entangled_pure(rng, (2, 3)), 9),
        (lambda rng: random_entangled_pure(rng, (3, 2)), 9),
        # rank-deficient mixed targets: W = -y is certified only after the
        # shift c K onto ker(target)
        (lambda rng: random_density(rng, (3, 3), rank=3), 11),
    ],
    ids=["2x3", "3x2", "3x3-rank3"],
)
def test_witness_certifies_entangled_pure_non_square(make, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        target = make(rng)
        cert = solve(target)
        assert cert.stop_reason == "witness"
        assert verify_witness(cert.witness, target).certified


def test_verify_witness_negative_controls():
    target = isotropic(2, 0.8)
    w_op = solve(target).witness
    assert verify_witness(w_op, target).certified
    # the flipped sign is no witness
    assert not verify_witness(-w_op, target).certified
    # the target moved onto or inside the extendible set: no W may certify it
    for f in (0.75, 0.7):
        check = verify_witness(w_op, isotropic(2, f))
        assert not check.certified
        assert check.margin >= -check.error_bound
    with pytest.raises(ValueError, match="shape"):
        verify_witness(np.eye(8), target)


def test_verify_witness_error_bound_scales_with_the_witness():
    target = isotropic(3, 0.8)
    w_op = solve(target).witness
    small, big = verify_witness(w_op, target), verify_witness(1e6 * w_op, target)
    assert 0 < small.error_bound < 1e-12
    assert big.error_bound == pytest.approx(1e6 * small.error_bound, rel=1e-6)
    assert big.margin == pytest.approx(1e6 * small.margin, rel=1e-9)


def test_feasible_certificates_verify_independently():
    for dm in (example_state(0.4), isotropic(2, 0.7), filtered_state(0.4)):
        cert = solve(dm)
        assert cert.verdict == FEASIBLE
        res = verify_certificate(cert.candidate, dm)
        assert res.combined <= 1e-7


@pytest.fixture
def face_tries(monkeypatch):
    """(rank, candidate or None) of each face try, in order."""
    tries = []
    face = _Geometry.face

    def spy(self, q, tol):
        tries.append((q.shape[1], face(self, q, tol)))
        return tries[-1][1]

    monkeypatch.setattr(_Geometry, "face", spy)
    return tries


def slow_separable():
    # a full-rank 3x3 separable state whose solve ends by tol after 167
    # evaluations: no face try succeeds on its way
    return random_separable(np.random.default_rng(0), (3, 3))


def test_every_exit_candidate_is_exactly_symmetric():
    # the exit average makes the candidate bitwise Hermitian and bitwise
    # swap-invariant, real or complex, at each of the four exits
    rng = np.random.default_rng(4)
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    rotated = DensityMatrix(u @ isotropic(2, 0.7).matrix @ u.conj().T, (2, 2))
    cases = [
        (isotropic(2, 0.7), {}, "face"),
        (rotated, {}, "face"),
        (example_state(0.4), {}, "face"),
        (isotropic(2, 0.5), {}, "tol"),
        (slow_separable(), {}, "tol"),
        (isotropic(2, 0.9), {}, "witness"),
        (random_entangled_pure(rng, (2, 3)), {}, "witness"),
        (slow_separable(), {"max_iter": 5}, "budget"),
    ]
    dtypes = set()
    for target, kw, stop in cases:
        cert = solve(target, **kw)
        assert cert.stop_reason == stop
        x = cert.candidate
        dtypes.add(x.dtype)
        p = linalg.swap_permutation(*target.dims)
        assert np.array_equal(x, x.conj().T)
        assert np.array_equal(x, x[np.ix_(p, p)])
        assert cert.residuals.swap == 0.0
    assert dtypes == {np.dtype(float), np.dtype(complex)}


def test_verify_certificate_on_analytic_extensions():
    ext = example_extension(0.3)
    res = verify_certificate(ext, example_state(0.3))
    assert res.combined <= 1e-12

    omega = boundary_isotropic_extension(2)
    res = verify_certificate(omega, isotropic(2, 0.75))
    assert res.combined <= 1e-10


def test_verify_certificate_reports_honest_swap_residual():
    target = example_state(0.4)
    x0 = np.kron(target.matrix, np.eye(3) / 3)
    res = verify_certificate(x0, target)
    assert res.swap > 1e-3
    assert res.psd <= 1e-12 and res.pt <= 1e-12
    with pytest.raises(ValueError, match="shape"):
        verify_certificate(np.eye(8), target)


def test_stop_reasons_budget_and_one_sidedness(monkeypatch):
    # a budget too short for the solver to reach tol, on an extendible target
    cert = solve(slow_separable(), max_iter=5)
    assert cert.verdict == "Inconclusive" and cert.stop_reason == "budget"
    assert cert.iterations == 5 and cert.witness is None

    # with every witness rejected, a non-extendible target is never Feasible
    monkeypatch.setattr(
        extend, "verify_witness", lambda w, target: WitnessCheck(0.0, 1.0)
    )
    cert = solve(isotropic(2, 0.8), max_iter=500)
    assert cert.verdict == "Inconclusive" and cert.stop_reason == "budget"
    assert cert.witness is None


def test_feasible_exit_needs_verify_certificate(monkeypatch, face_tries):
    # verify_certificate decides both Feasible exits: with every candidate
    # re-measured above tol, an extendible target is never Feasible, not
    # even rho_A (x) I/d_B, whose first evaluation is an exact extension,
    # nor isotropic(2, 0.7), whose first face candidate is one
    above = CertificateResiduals(0.0, 0.0, 1.0)
    monkeypatch.setattr(extend, "verify_certificate", lambda x, target: above)
    rho_a = random_density(np.random.default_rng(1), (2,)).matrix
    for target in (isotropic(2, 0.7), DensityMatrix(np.kron(rho_a, np.eye(3) / 3), (2, 3))):
        cert = solve(target, max_iter=200)
        assert cert.verdict == INCONCLUSIVE and cert.stop_reason == "budget"
        assert cert.residuals is above
    assert any(x is not None for _, x in face_tries)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_face_exit_near_the_isotropic_boundary(d):
    # the positive eigenspace of lift(y0) is already the extension's range:
    # one least-squares solve on it gives, at evaluation 1, an extension
    # whose marginal is exact to rounding
    target = isotropic(d, isotropic_boundary_fidelity(d) - 0.01)
    cert = solve(target)
    assert cert.verdict == FEASIBLE and cert.stop_reason == "face"
    assert cert.iterations == 1
    assert cert.residuals.pt <= 1e-12 and cert.residuals.psd <= 1e-12
    assert verify_certificate(cert.candidate, target) == cert.residuals


@pytest.mark.parametrize("d", [2, 3, 4])
def test_face_exit_keeps_the_isotropic_verdicts(d):
    # at and below F_b the face exit answers Feasible, and above it, however
    # close, a witness still ends the solve
    f_b = isotropic_boundary_fidelity(d)
    for delta in (-1e-4, -1e-6, -1e-8, 0.0):
        cert = solve(isotropic(d, f_b + delta))
        assert (cert.verdict, cert.stop_reason) == (FEASIBLE, "face"), delta
        assert cert.residuals.combined <= 1e-12
    for delta in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        cert = solve(isotropic(d, f_b + delta))
        assert (cert.verdict, cert.stop_reason) == (INFEASIBLE_NUMERICAL, "witness"), delta


def test_failed_face_tries_skip_verify_certificate(monkeypatch, face_tries):
    # on example_state(0.45) the first face tries fail their residual or
    # lambda_min check, which runs before verify_certificate; a later try
    # ends the solve, and verify_certificate runs once, at that exit
    target = example_state(0.45)
    checks = []
    verify = extend.verify_certificate

    def spy_verify(x, state):
        checks.append(verify(x, state))
        return checks[-1]

    monkeypatch.setattr(extend, "verify_certificate", spy_verify)
    cert = solve(target)
    assert cert.verdict == FEASIBLE and cert.stop_reason == "face"
    assert cert.iterations > 1 and face_tries[0][1] is None and face_tries[-1][1] is not None
    assert len(checks) == 1 and checks[0] is cert.residuals
    assert verify(cert.candidate, target).combined <= 1e-12


def test_face_tries_follow_rank_changes(face_tries):
    # a try is made only where the rank of the factor changes, and never on
    # the whole space of a full-rank target
    cert = solve(slow_separable())
    ranks = [r for r, _ in face_tries]
    assert cert.stop_reason == "tol" and len(ranks) > 1
    assert all(a != b for a, b in zip(ranks, ranks[1:])) and max(ranks) < 27


def test_face_try_is_bounded_by_max_side(monkeypatch):
    # a try whose least-squares solve would cost more than an eigh at side
    # MAX_SIDE is not made, and the solve goes on to the tol exit
    monkeypatch.setattr(extend, "MAX_SIDE", 8)
    cert = solve(isotropic(2, 0.7))
    assert cert.verdict == FEASIBLE and cert.stop_reason == "tol"
    assert cert.iterations > 1


def test_verifiers_keep_real_input_real(monkeypatch):
    # a real candidate or witness is verified in float64 and its complex
    # cast in complex128; both give the same numbers to rounding
    dtypes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(m):
        dtypes.append(m.dtype)
        return eigvalsh(m)

    inside, outside = isotropic(3, 0.6), isotropic(3, 0.8)
    x, w_op = solve(inside).candidate, solve(outside).witness
    assert x.dtype == w_op.dtype == np.float64
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    real, cplx = verify_certificate(x, inside), verify_certificate(x.astype(complex), inside)
    assert dtypes == [np.float64, np.complex128]
    for a, b in ((real.psd, cplx.psd), (real.swap, cplx.swap), (real.pt, cplx.pt)):
        assert abs(a - b) <= 1e-15
    dtypes.clear()
    real, cplx = verify_witness(w_op, outside), verify_witness(w_op.astype(complex), outside)
    assert dtypes == [np.float64, np.complex128]
    assert real.certified and cplx.certified
    assert abs(real.margin - cplx.margin) <= real.error_bound
    assert real.error_bound == pytest.approx(cplx.error_bound, rel=1e-12)


def _quadratic(rng, n):
    # f(X) = 1/2 <X - M, D o (X - M)> over Hermitian X, with D real symmetric
    # and positive entrywise: strictly convex, minimized at the Hermitian M
    m = _random_hermitian(rng, n)
    d = rng.uniform(0.5, 5.0, (n, n))
    d = (d + d.T) / 2

    def evaluate(x):
        g = d * (x - m)
        return 0.5 * np.vdot(x - m, g).real, g

    return m, evaluate


def test_lbfgs_driver_reaches_known_minimizer():
    m, evaluate = _quadratic(np.random.default_rng(11), 4)
    steps = []
    for k, x, accepted, value, grad, extra in _lbfgs(evaluate, np.zeros_like(m), 200):
        assert extra == []
        steps.append((k, x, accepted, value))
        if accepted and np.linalg.norm(grad) <= 1e-10:
            break
    assert [k for k, *_ in steps] == list(range(1, len(steps) + 1))
    assert len(steps) < 200
    values = [value for _, _, accepted, value in steps if accepted]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert np.linalg.norm(steps[-1][1] - m) <= 1e-9


def test_lbfgs_driver_at_minimizer_restarts_in_place():
    # grad = 0 and slope 0: the direction is not a descent one, so the
    # driver restarts along -grad = 0 and stays put for the whole budget
    m, evaluate = _quadratic(np.random.default_rng(12), 3)
    steps = list(_lbfgs(evaluate, m.copy(), 7))
    assert [k for k, *_ in steps] == list(range(1, 8))
    for _, x, accepted, value, grad, _ in steps:
        assert accepted and value == 0.0 and np.array_equal(x, m)
        assert not np.isnan(grad).any() and not grad.any()


def _two_loop_direction(grad, memory):
    """Reference for the compact memory: the two-loop recursion over the
    (s, g_diff, 1 / Re<s, g_diff>) pairs, oldest first. Returns minus the
    L-BFGS inverse-Hessian estimate times grad."""
    q = grad.copy()
    alphas = []
    for s, g_diff, r in reversed(memory):
        alphas.append(r * np.vdot(s, q).real)
        q -= alphas[-1] * g_diff
    if memory:
        s, g_diff, _ = memory[-1]
        q *= np.vdot(s, g_diff).real / np.vdot(g_diff, g_diff).real
    for (s, g_diff, r), a in zip(memory, reversed(alphas)):
        q += (a - r * np.vdot(g_diff, q).real) * s
    return -q


def _two_loop_lbfgs(evaluate, x0, max_iter):
    """Reference for ``_lbfgs``: the same driver on the two-loop recursion."""
    x = trial = x0
    value, t, slope = np.inf, 1.0, 0.0
    memory = deque(maxlen=extend.LBFGS_MEMORY)
    for k in range(1, max_iter + 1):
        trial_value, trial_grad = evaluate(trial)
        accepted = not trial_value > value + 1e-4 * t * slope
        yield k, trial, accepted
        if not accepted:
            t /= 2
        else:
            if k > 1:
                s, g_diff = trial - x, trial_grad - grad
                curvature = np.vdot(s, g_diff).real
                if curvature > 0:
                    memory.append((s, g_diff, 1.0 / curvature))
            x, value, grad = trial, trial_value, trial_grad
            direction = _two_loop_direction(grad, memory)
            t, slope = 1.0, np.vdot(grad, direction).real
            if slope >= 0:
                memory.clear()
                direction, slope = -grad, -np.linalg.norm(grad) ** 2
        trial = x + t * direction


@pytest.mark.parametrize("dtype", [float, complex])
def test_compact_memory_matches_two_loop(dtype):
    # more pairs than LBFGS_MEMORY, so the ring buffer wraps around, then a
    # restart and a few pairs more
    rng = np.random.default_rng(41 if dtype is float else 42)
    shape, m = (5, 4), extend.LBFGS_MEMORY

    def draw():
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if dtype is complex else a

    def flat(a):
        return a.reshape(-1).view(np.float64)

    hessian = rng.uniform(0.5, 5.0, shape)
    memory, reference = extend._PairMemory(), deque(maxlen=m)
    for i in range(m + 12):
        if i == m + 7:  # a restart starts both memories afresh
            memory, reference = extend._PairMemory(), deque(maxlen=m)
        else:
            s = draw()
            g_diff = hessian * s + 0.1 * draw()
            curvature = np.vdot(s, g_diff).real
            assert curvature > 0
            memory.store(flat(s), flat(g_diff), flat(s) @ flat(g_diff))
            reference.append((s, g_diff, 1.0 / curvature))
        grad = draw()
        expected = _two_loop_direction(grad, reference)
        got = memory.direction(flat(grad)).view(dtype).reshape(shape)
        assert got.dtype == expected.dtype
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_lbfgs_driver_matches_two_loop_reference():
    # a complex quadratic with a dense real Hessian of condition 100, slow
    # enough that the memory wraps around long before convergence. One
    # gradient is zeroed on an accepted step: its direction and slope are
    # zero, and the driver restarts in place along -grad.
    rng = np.random.default_rng(13)
    n, zeroed = 5, 40
    q, _ = np.linalg.qr(rng.standard_normal((2 * n * n, 2 * n * n)))
    hessian = (q * np.geomspace(0.01, 1.0, 2 * n * n)) @ q.T
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def counted():
        calls = []

        def evaluate(x):
            calls.append(x)
            r = (x - m).reshape(-1).view(np.float64)
            g = (hessian @ r).view(complex).reshape(x.shape)
            return 0.5 * float(r @ hessian @ r), 0.0 * g if len(calls) == zeroed else g

        return evaluate

    got = [(k, x, accepted) for k, x, accepted, *_ in _lbfgs(counted(), np.zeros_like(m), 80)]
    expected = list(_two_loop_lbfgs(counted(), np.zeros_like(m), 80))
    assert [(k, a) for k, _, a in got] == [(k, a) for k, _, a in expected]
    assert sum(a for *_, a in got[:zeroed]) > extend.LBFGS_MEMORY + 1
    assert got[zeroed - 1][2] and np.array_equal(got[zeroed][1], got[zeroed - 1][1])
    for (_, x, _), (_, x_ref, _) in zip(got, expected):
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_channel_verdicts():
    # a channel is tested through its Choi state; only Feasible certifies
    # zero one-way capacity
    cert = solve(choi_from_kraus(depolarizing_channel(2, 0.5)).state)
    assert cert.verdict == FEASIBLE

    ident = KrausChannel(2, 2, (np.eye(2, dtype=complex),))
    cert = solve(choi_from_kraus(ident).state)
    assert cert.verdict == INFEASIBLE_NUMERICAL

    cert = solve(choi_from_kraus(depolarizing_channel(2, 0.1)).state)
    assert cert.verdict == INFEASIBLE_NUMERICAL


def _measure_prepare(rng, d_in, d_out, n_out):
    """Rank-one POVM from the rows of an isometry, then a pure state per outcome."""
    a = rng.standard_normal((n_out, d_in)) + 1j * rng.standard_normal((n_out, d_in))
    q, _ = np.linalg.qr(a)
    ops = []
    for row in q:
        t = rng.standard_normal(d_out) + 1j * rng.standard_normal(d_out)
        ops.append(np.outer(t / np.linalg.norm(t), row.conj()))
    return KrausChannel(d_in, d_out, tuple(ops))


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel(2, 2, (k0, k1))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _measure_prepare(rng, 2, 2, 3),
        lambda rng: _measure_prepare(rng, 3, 3, 4),
        lambda rng: _measure_prepare(rng, 2, 3, 3),
        lambda rng: _amplitude_damping(0.5),
        lambda rng: _amplitude_damping(rng.uniform(0.5, 1.0)),
    ],
    ids=["mp-2to2", "mp-3to3", "mp-2to3", "ampdamp-0.5", "ampdamp"],
)
def test_rank_deficient_channels_certify_on_the_support(make):
    # fewer Kraus operators than d_in d_out: the Choi state is rank-deficient,
    # so the dual runs on a forced-support range P smaller than the side
    rng = np.random.default_rng(31)
    for _ in range(3):
        ch = make(rng)
        assert len(ch.kraus) < ch.d_in * ch.d_out
        choi = choi_from_kraus(ch).state
        cert = solve(choi)
        geo = _Geometry(choi.dims, choi.matrix, ExtensionProblem.tol)
        assert geo.basis is not None and geo.basis.shape[1] < geo.side
        assert cert.verdict == FEASIBLE
        res = verify_certificate(cert.candidate, choi)
        assert res.combined <= ExtensionProblem.tol


def test_max_extendible_fidelity_range_check():
    # the isotropic sweep that locates the boundary rejects a dimension or
    # tolerance out of range before it solves anything
    with pytest.raises(linalg.InputError, match="side"):
        run_isotropic_sweep(11, 0.5, 0.6, 2)  # side 11**3 = 1331 exceeds MAX_SIDE
    with pytest.raises(linalg.InputError, match="at least 2"):
        run_isotropic_sweep(1, 0.5, 0.6, 2)
    # a float dimension is rejected, not truncated to d = 2
    with pytest.raises(linalg.InputError, match="dimension must be an integer"):
        run_isotropic_sweep(2.5, 0.7, 0.8, 2)
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(linalg.InputError, match="tol"):
            run_isotropic_sweep(2, 0.7, 0.8, 1, tol=bad)


def test_argument_rules_raise_input_error():
    # every argument rule raises the one ValueError subclass the CLI reports
    # as an input error; a fault inside a solve is never one
    assert issubclass(linalg.InputError, ValueError)
    assert not issubclass(np.linalg.LinAlgError, linalg.InputError)
    rng = np.random.default_rng(0)
    target = random_density(rng, (2, 2))
    tripartite = random_density(rng, (2, 2, 2))
    for call in (
        lambda: ExtensionProblem(target=tripartite),
        lambda: ExtensionProblem(target=target, tol=float("inf")),
        lambda: ExtensionProblem(target=target, max_iter=0),
        lambda: solve_extension(ExtensionProblem(target=random_density(rng, (9, 12)))),
        lambda: run_isotropic_sweep(2, 0.8, 0.7, 3),
        lambda: run_isotropic_sweep(2, 0.7, 0.8, 0),
        # the type rules: a tolerance, a sweep end and lam2 must be real numbers,
        # and a bool is not one
        lambda: ExtensionProblem(target=target, tol="1e-7"),
        lambda: ExtensionProblem(target=target, tol=1e-7 + 0j),
        lambda: ExtensionProblem(target=target, tol=True),
        lambda: distance_to_extendible(target, gap_tol=True),
        lambda: run_isotropic_sweep(2, 0.7, 0.8, 2, tol="0.1"),
        lambda: run_isotropic_sweep(2, 0.5, "0.8", 3),
        lambda: run_isotropic_sweep(2, False, 0.8, 1),
        lambda: example_extension(0.3, "0.1"),
        # the [0, 1] parameter rule: out of range, NaN, bool, string, complex
        lambda: isotropic(2, 1.5),
        lambda: isotropic(2, float("nan")),
        lambda: isotropic(2, True),
        lambda: isotropic(2, "0.5"),
        lambda: isotropic(2, 0.5 + 0j),
        lambda: example_state(1.2),
        lambda: filtered_state(0.0),
        lambda: depolarizing_channel(2, 1.2),
        lambda: example_extension(0.3, 0.5),
        lambda: example_extension(0.6),
        # the bipartite rule and the shape rules of the functionals
        lambda: negativity(tripartite),
        lambda: coherent_information(tripartite),
        lambda: ChoiState(tripartite),
        lambda: fidelity_maxent(random_density(rng, (2, 3))),
        lambda: two_copy_estimate(random_density(rng, (3, 3))),
    ):
        with pytest.raises(linalg.InputError):
            call()


def test_filtered_state_stays_extendible():
    cert = solve(filtered_state(0.4))
    assert cert.verdict == FEASIBLE


def test_residual_history_monotone():
    # Armijo steps along an L-BFGS descent direction strictly decrease theta
    cert = solve(slow_separable())
    assert cert.verdict == FEASIBLE and len(cert.history) > 50
    evals = [h[0] for h in cert.history]
    thetas = [h[1] for h in cert.history]
    assert evals == sorted(set(evals)) and evals[-1] <= cert.iterations
    assert all(b < a for a, b in zip(thetas, thetas[1:]))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
def test_small_batteries(dims):
    rng = np.random.default_rng(2)
    for _ in range(10):
        cert = solve(random_separable(rng, dims), max_iter=40000)
        assert cert.verdict == FEASIBLE
        assert cert.stop_reason in ("tol", "face")
        assert cert.witness is None and cert.witness_margin is None
    for _ in range(10):
        cert = solve(random_entangled_pure(rng, dims))
        assert cert.verdict != FEASIBLE


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_consistency(d):
    f_max = isotropic_boundary_fidelity(d)
    assert solve(isotropic(d, f_max - 0.02)).verdict == FEASIBLE
    assert solve(isotropic(d, f_max + 0.02)).verdict == INFEASIBLE_NUMERICAL


def test_determinism():
    a = solve(isotropic(2, 0.7))
    b = solve(isotropic(2, 0.7))
    assert a.verdict == b.verdict
    assert a.iterations == b.iterations
    assert a.candidate.tobytes() == b.candidate.tobytes()
    assert a.residuals == b.residuals
    assert a.history == b.history


def test_sweep_integer_arguments():
    with pytest.raises(ValueError, match="steps must be an integer"):
        run_isotropic_sweep(2, 0.7, 0.8, 2.5)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        run_isotropic_sweep(2.0, 0.7, 0.8, 3)
    with pytest.raises(ValueError, match="at least 2"):
        run_isotropic_sweep(1, 0.7, 0.8, 3)
    result = run_isotropic_sweep(np.int64(2), 0.7, 0.7, np.int64(1))
    assert result.d == 2 and len(result.rows) == 1


def test_sweep_single_point_and_boundary():
    result = run_isotropic_sweep(2, 0.7, 0.7, 1)
    assert len(result.rows) == 1
    assert result.bracket is None and result.boundary is None

    result = run_isotropic_sweep(2, 0.7, 0.8, 11)
    assert abs(result.boundary - 0.75) <= 0.01
    fs = [r.fidelity for r in result.rows]
    assert fs == sorted(fs)
    # the bracket ends are neighbours on the grid and carry their own solves
    lo, hi = result.bracket
    assert result.rows[result.rows.index(lo) + 1] is hi
    assert result.boundary == (lo.fidelity + hi.fidelity) / 2
    assert (lo.certificate.verdict, hi.certificate.verdict) == (FEASIBLE, INFEASIBLE_NUMERICAL)
    res = verify_certificate(lo.certificate.candidate, isotropic(2, lo.fidelity))
    assert res.combined <= ExtensionProblem.tol
    assert verify_witness(hi.certificate.witness, isotropic(2, hi.fidelity)).certified


def test_sweep_bracket_rule():
    # only Feasible and InfeasibleNumerical rows can end the bracket
    def rows(*verdicts):
        return [SweepRow(0.1 * i, SimpleNamespace(verdict=v)) for i, v in enumerate(verdicts)]

    bracket = SweepResult(2, rows(FEASIBLE, INCONCLUSIVE, INFEASIBLE_NUMERICAL)).bracket
    assert [r.fidelity for r in bracket] == [0.0, 0.2]
    bracket = SweepResult(2, rows(INFEASIBLE_NUMERICAL, FEASIBLE, FEASIBLE,
                                  INFEASIBLE_NUMERICAL, INFEASIBLE_NUMERICAL)).bracket
    assert [r.fidelity for r in bracket] == [0.2, 0.30000000000000004]
    for verdicts in [(FEASIBLE, FEASIBLE), (INFEASIBLE_NUMERICAL, FEASIBLE),
                     (FEASIBLE, INCONCLUSIVE), (INFEASIBLE_NUMERICAL,), ()]:
        result = SweepResult(2, rows(*verdicts))
        assert result.bracket is None and result.boundary is None
