import numpy as np
import pytest

from symext import linalg
from symext.constructions import (
    boundary_isotropic_extension,
    example_extension,
    example_state,
    filtered_state,
    isotropic,
    isotropic_boundary_fidelity,
    twirl_isotropic,
)
from symext.extend import verify_certificate
from symext.quantum import DensityMatrix, fidelity_maxent, max_entangled_projector


def test_example_state_limits():
    flat = example_state(0.0).matrix
    expected = np.zeros((9, 9))
    for a, b in ((0, 1), (2, 0), (2, 1)):
        expected[a * 3 + b, a * 3 + b] = 1 / 3
    assert np.allclose(flat, expected)
    assert np.allclose(example_state(1.0).matrix, max_entangled_projector(3))
    with pytest.raises(ValueError):
        example_state(1.2)


def test_example_state_half_entries_and_spectrum():
    m = example_state(0.5).matrix
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            assert m[i, j] == pytest.approx(1 / 6)
    for i in (1, 6, 7):
        assert m[i, i] == pytest.approx(1 / 6)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(w[:5], 0.0, atol=1e-14)
    assert np.allclose(w[5:], [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)


def test_filtered_state_trace_and_entries():
    for f in (0.1, 0.4, 0.7, 1.0):
        fs = filtered_state(f)
        assert fs.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    fs = filtered_state(1.0)
    assert fs.matrix[4, 4].real == pytest.approx(1 / 3)
    f = 0.4
    fs = filtered_state(f)
    assert fs.matrix[0, 0].real == pytest.approx(f / 3)
    assert fs.matrix[0, 4].real == pytest.approx(np.sqrt(f) / 3)
    assert fs.matrix[0, 8].real == pytest.approx(f / (3 * np.sqrt(2 - f)))
    assert fs.matrix[6, 6].real == pytest.approx((1 - f) / (3 * (2 - f)))


def test_filtered_state_first_marginal_maximally_mixed():
    marg = linalg.partial_trace(filtered_state(0.4).matrix, (3, 3), 0)
    assert np.linalg.norm(marg - np.eye(3) / 3) <= 1e-12
    with pytest.raises(ValueError):
        filtered_state(0.0)


def test_family_params_validation():
    with pytest.raises(linalg.InputError, match="lam2"):
        example_extension(0.3, 0.5)


def test_extension_reduces_and_is_swap_invariant():
    rng = np.random.default_rng(42)
    for f in np.linspace(0.0, 0.5, 20):
        splits = [None] + [rng.uniform(0.0, (1 - 2 * f) / 3) for _ in range(5)]
        for lam2 in splits:
            ext = example_extension(f, lam2)
            red = linalg.partial_trace(ext, (9, 3), 0)
            assert np.abs(red - example_state(f).matrix).max() <= 1e-12
            swapped = linalg.permute_systems(ext, (3, 3, 3), (0, 2, 1))
            assert np.linalg.norm(ext - swapped) <= 1e-12
            assert abs(ext.trace().real - 1.0) <= 1e-12


def test_extension_psd_range():
    ext = example_extension(0.5)
    assert np.linalg.eigvalsh(ext).min() >= -1e-14
    with pytest.raises(linalg.InputError, match="PSD"):
        example_extension(0.6)


def test_isotropic_family():
    for d in (2, 3):
        assert np.allclose(isotropic(d, 1 / d**2).matrix, np.eye(d * d) / d**2)
        assert np.allclose(isotropic(d, 1.0).matrix, max_entangled_projector(d))
    w = np.sort(np.linalg.eigvalsh(isotropic(2, 0.75).matrix))
    assert np.allclose(w, [1 / 12, 1 / 12, 1 / 12, 0.75], atol=1e-12)
    with pytest.raises(ValueError):
        isotropic(2, 1.5)
    with pytest.raises(ValueError):
        isotropic(1, 0.5)
    # a float dimension is an input error, not truncated to d = 2
    with pytest.raises(linalg.InputError, match="dimension must be an integer"):
        isotropic(2.5, 0.8)


def test_boundary_fidelity_values():
    assert isotropic_boundary_fidelity(2) == pytest.approx(0.75)
    assert isotropic_boundary_fidelity(3) == pytest.approx(2 / 3)
    assert isotropic_boundary_fidelity(4) == pytest.approx(0.625)
    assert isotropic_boundary_fidelity(10) == pytest.approx(0.55)
    vals = [isotropic_boundary_fidelity(d) for d in range(2, 30)]
    assert all(a > b > 0.5 for a, b in zip(vals, vals[1:]))


def werner_reference(d):
    """Dense X = |phi><phi| (x) I (phi = sum_i |ii>) and V = swap(B, B')."""
    phi = np.eye(d).reshape(-1)
    v = np.eye(d**3)[linalg.swap_permutation(d, d)]
    return np.kron(np.outer(phi, phi), np.eye(d)), v


@pytest.mark.parametrize("d", [2, 3, 4])
def test_werner_operator_traces(d):
    # the dense reference that the formula identity below compares against
    x, v = werner_reference(d)
    assert x.trace().real == pytest.approx(d**2)
    assert (x @ v).trace().real == pytest.approx(d)
    assert np.linalg.norm(v @ v - np.eye(d**3)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_boundary_isotropic_extension_oracle(d):
    ext = boundary_isotropic_extension(d)
    assert abs(ext.trace().real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(ext).min() >= -1e-10
    swapped = linalg.permute_systems(ext, (d, d, d), (0, 2, 1))
    assert np.linalg.norm(ext - swapped) <= 1e-12
    red = DensityMatrix(linalg.partial_trace(ext, (d * d, d), 0), (d, d))
    assert fidelity_maxent(red) == pytest.approx(
        isotropic_boundary_fidelity(d), abs=1e-10
    )
    # formula identity: equals (X + VXV + XV + VX) / (2d(d+1)), bit for bit
    # and in float64, so its check runs a real eigvalsh
    x, v = werner_reference(d)
    direct = (x + v @ x @ v + x @ v + v @ x) / (2 * d * (d + 1))
    assert ext.dtype == np.float64 and np.array_equal(ext, direct)


@pytest.mark.parametrize("d", [5, 7, 10])
def test_boundary_extension_verifies_in_any_dimension(d):
    # no dimension cap: up to d = 10, the largest side MAX_SIDE admits
    ext = boundary_isotropic_extension(d)
    res = verify_certificate(ext, isotropic(d, isotropic_boundary_fidelity(d)))
    assert res.psd <= 1e-10 and res.swap <= 1e-12 and res.pt <= 1e-12
    with pytest.raises(ValueError, match="at least 2"):
        boundary_isotropic_extension(1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_boundary_extension_certifies_twirled_reduction(d):
    ext = boundary_isotropic_extension(d)
    red = DensityMatrix(linalg.partial_trace(ext, (d * d, d), 0), (d, d))
    res = verify_certificate(ext, twirl_isotropic(red))
    assert res.combined <= 1e-10
