import math

import numpy as np
import pytest

from symext import extend, linalg, param
from symext.constructions import example_state, isotropic, isotropic_boundary_fidelity
from symext.extend import FEASIBLE, solve_extension
from symext.param import (
    bound_report,
    distance_to_extendible,
    hashing_lower_bound,
    normalization_factor,
    two_copy_estimate,
)
from symext.quantum import (
    DensityMatrix,
    max_entangled_projector,
    relative_entropy,
)
from symext.sampling import (
    random_density,
    random_entangled_pure,
    random_separable,
    random_unitary,
)


def maxent(d):
    return DensityMatrix(max_entangled_projector(d), (d, d))


def assert_gap_stopped(result, gap_tol=1e-5):
    # the result carries the gap its stop rule read, as a Python float
    assert result.stop_reason == "gap"
    assert type(result.fw_gap) is float and 0.0 <= result.fw_gap <= gap_tol


def test_normalization_factor_values():
    assert normalization_factor(2) == pytest.approx(2.40942, abs=1e-5)
    assert normalization_factor(3) == pytest.approx(2.70951, abs=1e-5)
    for d in range(2, 7):
        ident = normalization_factor(d) * (-math.log2(isotropic_boundary_fidelity(d)))
        assert ident == pytest.approx(math.log2(d), abs=1e-12)
    with pytest.raises(ValueError):
        normalization_factor(1)
    # a float dimension is an input error, not truncated to d = 2
    with pytest.raises(linalg.InputError, match="dimension must be an integer"):
        normalization_factor(2.9)


def test_maxent_distance_matches_closed_form():
    result = distance_to_extendible(maxent(2), max_iter=4000)
    assert result.value == pytest.approx(1.0, abs=1e-3)
    assert_gap_stopped(result)
    # gap validity against the known optimum
    f_star = -math.log2(isotropic_boundary_fidelity(2))
    f_final = result.value / result.scale
    assert f_final - f_star <= result.fw_gap + 1e-9
    assert f_final >= f_star - 1e-9


def test_maxent_distance_d3():
    result = distance_to_extendible(maxent(3), max_iter=4000)
    assert result.value == pytest.approx(math.log2(3), abs=2e-3)
    assert_gap_stopped(result)


def test_result_invariant_value_ties_to_nearest():
    result = distance_to_extendible(isotropic(2, 0.85), max_iter=1000)
    recomputed = result.scale * relative_entropy(isotropic(2, 0.85), result.nearest)
    assert result.value == pytest.approx(recomputed, abs=1e-9)
    assert result.fw_gap >= 0.0


@pytest.mark.parametrize("d, f", [(2, 0.8), (2, 0.9), (3, 0.8), (6, 0.7), (8, 0.7)])
def test_isotropic_distance_matches_twirl_argument(d, f):
    # the nearest extendible state to an isotropic state is the boundary
    # isotropic state, so the value is the binary divergence of the spectra;
    # at d = 6 and 8 the bound reads lambda_min of a side 216 and 512 lift
    g = isotropic_boundary_fidelity(d)
    exact = normalization_factor(d) * (
        f * math.log2(f / g) + (1 - f) * math.log2((1 - f) / (1 - g))
    )
    result = distance_to_extendible(isotropic(d, f), max_iter=2000)
    assert_gap_stopped(result)
    assert result.value == pytest.approx(exact, abs=1e-3)
    # the certified interval contains the optimum
    assert result.value - result.scale * result.fw_gap - 1e-9 <= exact
    assert exact <= result.value + 1e-9


def test_separable_states_have_zero_distance():
    rng = np.random.default_rng(50)
    for dims in ((2, 2), (3, 3)):
        for _ in range(25):
            state = random_separable(rng, dims)
            result = distance_to_extendible(state, max_iter=5000)
            assert result.value <= 1e-4


def test_local_unitary_invariance():
    rng = np.random.default_rng(51)
    for _ in range(20):
        rho = random_density(rng, (2, 2))
        u, w = random_unitary(rng, 2), random_unitary(rng, 2)
        op = np.kron(u, w)
        rotated = DensityMatrix(op @ rho.matrix @ op.conj().T, (2, 2))
        a = distance_to_extendible(rho, max_iter=4000).value
        b = distance_to_extendible(rotated, max_iter=4000).value
        assert abs(a - b) <= 2e-3


def test_non_bipartite_rejected():
    rng = np.random.default_rng(52)
    with pytest.raises(ValueError, match="bipartite"):
        distance_to_extendible(random_density(rng, (2, 2, 2)))


def _no_eigh(*args, **kwargs):
    raise AssertionError("eigh ran before the size check")


@pytest.mark.parametrize("extendible", [None, True, False])
def test_embedded_side_above_max_side_rejected(extendible, monkeypatch):
    # 2 x 23 needs an extension of side d_A d_B^2 = 1058 > MAX_SIDE; the
    # solver's geometry rejects it before any eigh, whatever the caller's verdict
    rho = random_density(np.random.default_rng(59), (2, 23))
    monkeypatch.setattr(extend.np.linalg, "eigh", _no_eigh)
    with pytest.raises(ValueError, match="side 1058"):
        distance_to_extendible(rho, extendible=extendible)


def test_bound_report_rejects_embedded_side_before_solving(monkeypatch):
    rho = random_density(np.random.default_rng(59), (2, 23))
    monkeypatch.setattr(extend.np.linalg, "eigh", _no_eigh)
    with pytest.raises(ValueError, match="side 1058"):
        bound_report(rho)


@pytest.mark.parametrize(
    "dims, kwargs",
    [((1, 1), {}), ((2, 2), {"gap_tol": 0.0}), ((2, 2), {"gap_tol": float("inf")}),
     ((2, 2), {"fw_max_iter": 0})],
)
def test_bound_report_checks_the_distance_arguments_before_solving(dims, kwargs, monkeypatch):
    # a 1 x 1 state has no scale; each case used to run a full solve first
    rho = random_density(np.random.default_rng(60), dims)
    calls = []
    monkeypatch.setattr(param, "solve_extension", calls.append)
    monkeypatch.setattr(extend.np.linalg, "eigh", _no_eigh)
    with pytest.raises(linalg.InputError):
        bound_report(rho, **kwargs)
    assert calls == []


def test_bound_report_names_each_budget(monkeypatch):
    # fw_max_iter and the solve's max_iter are reported under their own names
    monkeypatch.setattr(extend.np.linalg, "eigh", _no_eigh)
    with pytest.raises(linalg.InputError, match="^fw_max_iter must be"):
        bound_report(isotropic(2, 0.8), fw_max_iter=0)
    with pytest.raises(linalg.InputError, match="^max_iter must be"):
        bound_report(isotropic(2, 0.8), max_iter=0)


@pytest.mark.parametrize("bad", [0.0, float("nan"), 3.5])
def test_budget_and_gap_tol_validated(bad):
    # max_iter must be a positive integer, gap_tol only positive
    with pytest.raises(ValueError, match="max_iter"):
        distance_to_extendible(isotropic(2, 0.8), max_iter=bad)
    if not bad > 0:
        with pytest.raises(ValueError, match="gap_tol"):
            distance_to_extendible(isotropic(2, 0.8), gap_tol=bad)
    assert distance_to_extendible(isotropic(2, 0.8), max_iter=np.int64(2)).iterations == 2


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_non_square_distance_local_unitary_invariance(dims):
    # the certified interval must not depend on the local basis, nor on
    # zero-padding to d x d: compressing C^d back onto each factor keeps
    # extendibility and fixes the padded state, so by data processing the
    # padded infimum equals the native one
    rng = np.random.default_rng(55)
    d_a, d_b = dims
    d = max(dims)
    for _ in range(3):
        rho = random_entangled_pure(rng, dims)
        op = np.kron(random_unitary(rng, d_a), random_unitary(rng, d_b))
        rotated = DensityMatrix(op @ rho.matrix @ op.conj().T, dims)
        padded = np.zeros((d, d, d, d), dtype=complex)
        padded[:d_a, :d_b, :d_a, :d_b] = rho.matrix.reshape(d_a, d_b, d_a, d_b)
        results = [
            distance_to_extendible(rho),
            distance_to_extendible(rotated),
            distance_to_extendible(DensityMatrix(padded.reshape(d * d, d * d), (d, d))),
        ]
        assert [r.stop_reason for r in results] == ["gap"] * 3
        assert len({r.scale for r in results}) == 1
        a = results[0]
        assert a.nearest.dims == dims
        for b in results[1:]:
            width_a, width_b = a.scale * a.fw_gap, b.scale * b.fw_gap
            assert abs(a.value - b.value) <= width_a + width_b + 1e-9


def test_hashing_lower_bound_cases():
    assert hashing_lower_bound(maxent(2)) == pytest.approx(1.0, abs=1e-10)
    # scalar entropy arithmetic for the isotropic spectrum {F, (1-F)/3 x3}
    f = 0.95
    s_ab = -(f * math.log2(f) + (1 - f) * math.log2((1 - f) / 3))
    expected = 1.0 - s_ab
    assert hashing_lower_bound(isotropic(2, f)) == pytest.approx(expected, abs=1e-10)
    assert expected > 0
    # extendible family: the bound must be vacuous
    for f in (0.1, 0.25, 0.4, 0.5):
        assert hashing_lower_bound(example_state(f)) <= 0.0
    rng = np.random.default_rng(53)
    for _ in range(5):
        assert hashing_lower_bound(random_separable(rng, (2, 2))) <= 1e-12


def test_bound_report_headline_case():
    report = bound_report(example_state(0.45))
    assert report.extendible == FEASIBLE
    assert report.certified_zero
    assert report.upper == 0.0
    assert report.lower == 0.0
    assert report.hashing_raw <= 0.0
    assert report.negativity > 0.05


def test_bound_report_maxent():
    report = bound_report(maxent(2), fw_max_iter=4000)
    assert not report.certified_zero
    assert report.lower == pytest.approx(1.0, abs=1e-10)
    assert report.upper == pytest.approx(1.0, abs=2e-3)
    assert report.lower <= report.upper + 1e-6


def test_bound_report_separable_is_all_zero():
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    report = bound_report(mixed)
    assert report.certified_zero
    assert report.lower == 0.0 and report.upper == 0.0
    assert report.negativity == pytest.approx(0.0, abs=1e-12)


def test_bound_report_hashing_above_single_copy_parameter():
    # the single-copy parameter is not an upper bound on D->, so a hashing
    # bound above it is a valid report, not an inconsistency
    report = bound_report(isotropic(2, 0.9), fw_max_iter=200)
    assert report.lower == pytest.approx(0.3725, abs=1e-4)
    assert report.certified_zero is False
    assert report.upper < report.lower


def test_bound_report_solves_the_extension_once(monkeypatch):
    # the distance reuses bound_report's verdict instead of probing again
    calls = []

    def counting_solve(problem):
        calls.append(problem)
        return solve_extension(problem)

    monkeypatch.setattr(param, "solve_extension", counting_solve)
    for state in (example_state(0.45), isotropic(2, 0.8)):
        calls.clear()
        bound_report(state, fw_max_iter=10)
        assert len(calls) == 1


def test_standalone_probe_exits_by_witness(monkeypatch):
    # without a verdict from the caller, the distance probes extendibility
    # itself; on a non-extendible state a dual witness ends that probe
    certs = []

    def recording_solve(problem):
        cert = solve_extension(problem)
        certs.append(cert)
        return cert

    monkeypatch.setattr(param, "solve_extension", recording_solve)
    distance_to_extendible(isotropic(2, 0.9), max_iter=10)
    assert len(certs) == 1
    assert certs[0].stop_reason == "witness"
    assert certs[0].iterations <= 2


@pytest.mark.parametrize("state", [example_state(0.45), isotropic(3, 0.6)],
                         ids=["example-0.45", "isotropic-3-0.6"])
def test_certified_target_is_answered_by_the_probe_alone(state, monkeypatch):
    # an extendible state is its own optimum: even a gap_tol the probe cannot
    # close sends no descent after it
    def no_descent(*args):
        raise AssertionError("descent ran on a certified target")

    monkeypatch.setattr(param, "_lbfgs", no_descent)
    result = distance_to_extendible(state, max_iter=200, gap_tol=1e-15, extendible=True)
    assert result.iterations == 1
    assert result.stop_reason == "budget"
    assert abs(result.value) < 1e-9


def test_distance_is_never_negative():
    # the probe's value on isotropic(3, 0.6) cancels to about -1e-15 in
    # rounding; the reported distance is clamped at 0 and its interval
    # [value - scale * fw_gap, value] still holds the true distance 0
    result = distance_to_extendible(isotropic(3, 0.6))
    assert result.value == 0.0
    assert result.value - result.scale * result.fw_gap <= 0.0


def test_fw_stop_reason():
    assert distance_to_extendible(example_state(0.45)).stop_reason == "gap"
    result = distance_to_extendible(isotropic(2, 0.8), max_iter=2)
    assert result.stop_reason == "budget"
    assert result.fw_gap > 1e-5


def test_default_budget_stops_on_gap():
    # the single-copy anchors, isotropic(2, 0.9) and the two-copy 4x4 pair
    # all close their gap_tol = 1e-5 gap inside the default budget
    for state in (maxent(2), maxent(3), isotropic(2, 0.9)):
        assert_gap_stopped(distance_to_extendible(state))
    for state in (maxent(2), isotropic(2, 0.9)):
        pair = two_copy_estimate(state)
        assert_gap_stopped(pair)
        assert pair.nearest.dims == (4, 4)


def test_two_copy_maxent_additive():
    value = two_copy_estimate(maxent(2)).value / 2
    assert value == pytest.approx(1.0, abs=2e-3)


def test_two_copy_product_pure():
    vec = np.zeros(4)
    vec[0] = 1.0
    state = DensityMatrix(np.outer(vec, vec), (2, 2))
    assert two_copy_estimate(state).value / 2 <= 1e-4


def test_two_copy_rejects_other_dims():
    rng = np.random.default_rng(54)
    with pytest.raises(ValueError, match="2 x 2"):
        two_copy_estimate(random_density(rng, (3, 3)))
