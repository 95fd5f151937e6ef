import math
import warnings

import numpy as np
import pytest

from symext import linalg
from symext.constructions import example_state, isotropic, twirl_isotropic
from symext.quantum import (
    ChoiState,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    choi_from_kraus,
    coherent_information,
    depolarizing_channel,
    fidelity_maxent,
    kraus_from_choi,
    max_entangled_projector,
    negativity,
    relative_entropy,
    von_neumann_entropy,
)
from symext.sampling import (
    random_cptp,
    random_density,
    random_entangled_pure,
    random_separable,
    random_unitary,
)


def identity_channel(d=2):
    return KrausChannel(d, d, (np.eye(d, dtype=complex),))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2), (2,))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), (2,))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(ValueError, match="dims"):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    with pytest.raises(ValueError, match="NaN"):
        DensityMatrix(np.diag([0.5, np.nan]), (2,))
    # dims are integers: no rounding, no negative pairs, no bools
    for m, dims in ((np.eye(4) / 4, (2.0, 2)), (np.eye(4) / 4, (2.9, 2.0)),
                    (np.eye(2) / 2, (-1, -2)), (np.eye(2) / 2, (True, 2))):
        with pytest.raises(linalg.InputError, match="dimension must be an integer"):
            DensityMatrix(m, dims)


def test_density_matrix_is_readonly():
    dm = DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 5.0


def test_density_matrix_is_real_exactly_when_its_imaginary_part_is_zero():
    # an all-zero imaginary part, -0.0 included, is stored as float64, bit
    # for bit the real input's matrix; a nonzero one keeps complex128
    m = np.array([[0.5, 0.25], [0.25, 0.5]])
    negative_zero = m.astype(complex)
    negative_zero.imag = -0.0
    real = DensityMatrix(m, (2,)).matrix
    for given in (m, m + 0j, negative_zero):
        stored = DensityMatrix(given, (2,)).matrix
        assert stored.dtype == np.float64 and stored.tobytes() == real.tobytes()
        assert not stored.flags.writeable
    stored = DensityMatrix(m + np.array([[0, 0.25j], [-0.25j, 0]]), (2,)).matrix
    assert stored.dtype == np.complex128 and not stored.flags.writeable


def test_kraus_channel_completeness_enforced():
    with pytest.raises(ValueError, match="trace-preserving"):
        KrausChannel(2, 2, (0.5 * np.eye(2),))
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        KrausChannel(2, 2, ())
    with pytest.raises(ValueError, match=r"shape \(3, 3\) is not \(2, 2\)"):
        KrausChannel(2, 2, (np.eye(3),))
    for d_in, d_out in ((2.5, 2), (2, 2.0)):  # not truncated to 2
        with pytest.raises(linalg.InputError, match="d_(in|out) must be an integer"):
            KrausChannel(d_in, d_out, (np.eye(2),))
    # NaN compares false with any tolerance: rejected before any arithmetic
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                KrausChannel(2, 2, (np.diag([1.0, bad]),))


def test_sampling_counts_are_integers():
    # no count is truncated: (2.5, 2) used to draw a 2 x 2 state
    rng = np.random.default_rng(0)
    for make, match in [
        (lambda: random_density(rng, (2.5, 2)), "subsystem dimension must be an integer"),
        (lambda: random_density(rng, (2, 2), rank=2.5), "rank must be an integer"),
        (lambda: random_separable(rng, (2, 2.0)), "subsystem dimension must be an integer"),
        (lambda: random_entangled_pure(rng, (2.5, 2)), "subsystem dimension must be an integer"),
        (lambda: random_entangled_pure(rng, (1, 2)), "at least 2"),
        (lambda: random_unitary(rng, 2.0), "dimension must be an integer"),
        (lambda: random_cptp(rng, 2.0, 2, 1), "d_in must be an integer"),
        (lambda: random_cptp(rng, 2, 2, 1.5), "n_kraus must be an integer"),
        # a Stinespring isometry of C^3 needs d_out * n_kraus >= 3
        (lambda: random_cptp(rng, 3, 2, 1), r"d_out \* n_kraus = 2 is below d_in = 3"),
    ]:
        with pytest.raises(linalg.InputError, match=match):
            make()
    assert random_density(rng, (np.int64(2), 3), rank=np.int64(2)).dims == (2, 3)
    assert random_cptp(rng, 3, 2, 2).d_in == 3


def test_choi_identity_channel():
    choi = choi_from_kraus(identity_channel())
    assert np.allclose(choi.state.matrix, max_entangled_projector(2))
    assert choi.state.matrix[0, 0] == pytest.approx(0.5)
    assert choi.state.matrix[0, 3] == pytest.approx(0.5)


def test_choi_fully_depolarizing():
    choi = choi_from_kraus(depolarizing_channel(2, 1.0))
    assert np.allclose(choi.state.matrix, np.eye(4) / 4, atol=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.7])
def test_choi_depolarizing_matches_isotropic(p):
    # oracle: the map's action on the maximally entangled state expanded
    # entrywise, (1-p) P+ + p I/4, which is the isotropic state at 1 - 3p/4
    choi = choi_from_kraus(depolarizing_channel(2, p))
    oracle = (1 - p) * max_entangled_projector(2) + p * np.eye(4) / 4
    assert np.allclose(choi.state.matrix, oracle, atol=1e-12)
    assert np.allclose(choi.state.matrix, isotropic(2, 1 - 3 * p / 4).matrix, atol=1e-12)


def test_choi_marginal_invariant_random_channels():
    rng = np.random.default_rng(20)
    for _ in range(5):
        ch = random_cptp(rng, 3, 3, int(rng.integers(1, 5)))
        choi = choi_from_kraus(ch)
        marg = linalg.partial_trace(choi.state.matrix, (3, 3), 0)
        assert np.linalg.norm(marg - np.eye(3) / 3) <= 1e-9
    # a state whose input marginal is not I/d is no Choi state
    with pytest.raises(ValueError, match="input marginal differs from I/2"):
        ChoiState(DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2)))


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
def test_choi_non_square_matches_definition(d_in, d_out):
    # oracle: sum_k (I (x) K) P+ (I (x) K)^dag with P+ the projector on
    # sum_i |ii> / sqrt(d_in), built with np.kron
    ch = random_cptp(np.random.default_rng(24), d_in, d_out, 2)
    phi = np.eye(d_in).reshape(-1) / np.sqrt(d_in)
    oracle = sum(
        np.kron(np.eye(d_in), k) @ np.outer(phi, phi) @ np.kron(np.eye(d_in), k).conj().T
        for k in ch.kraus
    )
    choi = choi_from_kraus(ch)
    assert choi.state.dims == (d_in, d_out)
    assert np.linalg.norm(choi.state.matrix - oracle) <= 1e-14


def test_kraus_from_choi_identity():
    ch = kraus_from_choi(choi_from_kraus(identity_channel()))
    assert len(ch.kraus) == 1
    k = ch.kraus[0]
    # single Kraus operator proportional to the identity, up to global phase
    assert np.allclose(k @ k.conj().T, np.eye(2))
    assert abs(abs(k[0, 0]) - 1.0) <= 1e-10
    assert abs(k[0, 1]) <= 1e-10


def test_kraus_from_choi_maximally_mixed():
    choi = ChoiState(DensityMatrix(np.eye(4) / 4, (2, 2)))
    ch = kraus_from_choi(choi)
    assert len(ch.kraus) == 4
    for k in ch.kraus:
        assert abs(np.trace(k.conj().T @ k).real - 0.5) <= 1e-10
    back = choi_from_kraus(ch)
    assert np.linalg.norm(back.state.matrix - choi.state.matrix) <= 1e-8


def test_choi_kraus_round_trip_random():
    rng = np.random.default_rng(21)
    for _ in range(5):
        ch = random_cptp(rng, 2, 2, int(rng.integers(1, 5)))
        choi = choi_from_kraus(ch)
        again = choi_from_kraus(kraus_from_choi(choi))
        assert np.linalg.norm(again.state.matrix - choi.state.matrix) <= 1e-8


def test_apply_channel_basics():
    rng = np.random.default_rng(22)
    # a state of B alone is a state on 1 (x) 2
    rho = random_density(rng, (1, 2))
    assert np.allclose(apply_channel(identity_channel(), rho).matrix, rho.matrix)
    out = apply_channel(depolarizing_channel(2, 1.0), rho)
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
    ket0 = DensityMatrix(np.diag([1.0, 0.0]), (1, 2))
    out = apply_channel(depolarizing_channel(2, 0.5), ket0)
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_channel_on_subsystem():
    rng = np.random.default_rng(23)
    rho = random_density(rng, (2, 3))
    ch = random_cptp(rng, 3, 3, 2)
    out = apply_channel(ch, rho)
    assert out.dims == (2, 3)
    oracle = np.zeros((6, 6), dtype=complex)
    for k in ch.kraus:
        lifted = np.kron(np.eye(2), k)
        oracle += lifted @ rho.matrix @ lifted.conj().T
    assert np.linalg.norm(out.matrix - oracle) <= 1e-12
    assert abs(out.matrix.trace().real - 1.0) <= 1e-10
    with pytest.raises(ValueError, match="does not match channel input"):
        apply_channel(ch, random_density(rng, (3, 2)))
    with pytest.raises(linalg.InputError, match="two subsystems"):
        apply_channel(ch, random_density(rng, (2, 3, 3)))


def test_depolarizing_parameter_validation():
    with pytest.raises(ValueError):
        depolarizing_channel(2, 1.5)
    with pytest.raises(ValueError):
        depolarizing_channel(1, 0.5)
    # a float dimension is an input error, not truncated to d = 3
    with pytest.raises(linalg.InputError, match="dimension must be an integer"):
        depolarizing_channel(3.7, 0.1)
    choi = choi_from_kraus(depolarizing_channel(2, 0.0))
    assert np.allclose(choi.state.matrix, max_entangled_projector(2))


def test_von_neumann_entropy_cases():
    pure = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-10)
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert von_neumann_entropy(mixed) == pytest.approx(2.0, abs=1e-12)
    # spectrum {1/2, 1/6, 1/6, 1/6} gives 1/2 + (1/2) log2 6
    state = example_state(0.5)
    expected = 0.5 + 0.5 * math.log2(6)
    assert von_neumann_entropy(state) == pytest.approx(expected, abs=1e-10)


def test_relative_entropy_cases():
    rng = np.random.default_rng(24)
    rho = random_density(rng, (2, 2))
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)
    pplus = DensityMatrix(max_entangled_projector(2), (2, 2))
    val = relative_entropy(pplus, isotropic(2, 0.75))
    assert val == pytest.approx(-math.log2(0.75), abs=1e-10)
    ket0 = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    ket1 = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    assert relative_entropy(ket0, ket1) == math.inf
    with pytest.raises(ValueError):
        relative_entropy(ket0, rho)


def test_relative_entropy_rank_deficient_sigma():
    # rho inside the support of a rank-2 sigma on C^3: finite, and equal to
    # the two-level value; the floored kernel eigenvalue adds nothing
    u = random_unitary(np.random.default_rng(28), 3)
    sigma = DensityMatrix((u * [0.5, 0.5, 0.0]) @ u.conj().T, (3,))
    rho = DensityMatrix((u * [0.25, 0.75, 0.0]) @ u.conj().T, (3,))
    expected = 0.25 * math.log2(0.5) + 0.75 * math.log2(1.5)
    assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)
    # kernel mass below the support tolerance is charged at the log floor
    t = 1e-10
    rho = DensityMatrix(np.diag([1.0 - t, t]), (2,))
    sigma = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    expected = (1 - t) * math.log2(1 - t) + t * math.log2(t) - t * math.log2(1e-12)
    assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-15)


def test_relative_entropy_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(25)
    for _ in range(5):
        rho, sigma = random_density(rng, (2, 2)), random_density(rng, (2, 2))
        val = relative_entropy(rho, sigma)
        assert val >= -1e-10
        if np.linalg.norm(rho.matrix - sigma.matrix) > 1e-4:
            assert val > 1e-8


def test_relative_entropy_additive_on_products():
    rng = np.random.default_rng(26)
    r1, r2 = random_density(rng, (2,)), random_density(rng, (3,))
    s1, s2 = random_density(rng, (2,)), random_density(rng, (3,))
    joint_r = DensityMatrix(np.kron(r1.matrix, r2.matrix), (2, 3))
    joint_s = DensityMatrix(np.kron(s1.matrix, s2.matrix), (2, 3))
    lhs = relative_entropy(joint_r, joint_s)
    rhs = relative_entropy(r1, s1) + relative_entropy(r2, s2)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_coherent_information_cases():
    pplus = DensityMatrix(max_entangled_projector(2), (2, 2))
    assert coherent_information(pplus) == pytest.approx(1.0, abs=1e-10)
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert coherent_information(mixed) == pytest.approx(-1.0, abs=1e-12)
    # marginal spectrum (1/3, (2-F)/3, F/3) at F = 1/2 gives -1/3
    assert coherent_information(example_state(0.5)) == pytest.approx(-1 / 3, abs=1e-9)


def test_fidelity_maxent_cases():
    pplus = DensityMatrix(max_entangled_projector(3), (3, 3))
    assert fidelity_maxent(pplus) == pytest.approx(1.0, abs=1e-12)
    for d, f in ((2, 0.3), (3, 0.8)):
        assert fidelity_maxent(isotropic(d, f)) == pytest.approx(f, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_maxent(random_density(np.random.default_rng(0), (2, 3)))


def test_negativity_cases():
    rng = np.random.default_rng(27)
    a, b = random_density(rng, (2,)), random_density(rng, (2,))
    product = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2))
    assert negativity(product) == pytest.approx(0.0, abs=1e-12)
    pplus = DensityMatrix(max_entangled_projector(2), (2, 2))
    assert negativity(pplus) == pytest.approx(0.5, abs=1e-12)
    assert negativity(example_state(0.5)) > 0.0
    # a PPT state has no negative eigenvalue; the empty sum is +0.0, not -0.0
    for ppt in (DensityMatrix(np.eye(4) / 4, (2, 2)), isotropic(2, 0.5)):
        assert math.copysign(1.0, negativity(ppt)) == 1.0


def test_twirl_isotropic():
    for d, f in ((2, 0.4), (3, 0.7)):
        iso = isotropic(d, f)
        assert np.allclose(twirl_isotropic(iso).matrix, iso.matrix, atol=1e-12)
    pplus = DensityMatrix(max_entangled_projector(2), (2, 2))
    assert np.allclose(twirl_isotropic(pplus).matrix, pplus.matrix, atol=1e-12)
    out = twirl_isotropic(example_state(0.5))
    assert np.allclose(out.matrix, isotropic(3, 0.5).matrix, atol=1e-12)


def test_twirl_clamps_rounded_fidelity():
    # U (x) U* fixes |phi> and maps |01> into its complement, so the overlap
    # is exactly 1 or 0 and rounding puts many draws a few ulps outside
    # [0, 1]; the twirl clamps it and matches the direct formula to 1e-15
    rng = np.random.default_rng(31)
    outside = 0
    for d in (2, 3, 4):
        e = np.eye(d)
        p = max_entangled_projector(d)
        for v in (np.kron(e[0], e[1]), e.reshape(-1) / np.sqrt(d)):
            for _ in range(50):
                u = random_unitary(rng, d)
                w = np.kron(u, u.conj()) @ v
                rho = DensityMatrix(np.outer(w, w.conj()), (d, d))
                f = fidelity_maxent(rho)
                outside += not 0.0 <= f <= 1.0
                direct = f * p + (1.0 - f) * (np.eye(d * d) - p) / (d * d - 1)
                assert np.abs(twirl_isotropic(rho).matrix - direct).max() <= 1e-15
    assert outside > 0


def test_twirl_preserves_fidelity_and_local_invariance():
    rng = np.random.default_rng(29)
    rho = random_density(rng, (3, 3))
    f = fidelity_maxent(rho)
    assert fidelity_maxent(twirl_isotropic(rho)) == pytest.approx(f, abs=1e-12)
    u = random_unitary(rng, 3)
    op = np.kron(u, u.conj())
    rotated = DensityMatrix(op @ rho.matrix @ op.conj().T, (3, 3))
    assert np.linalg.norm(
        twirl_isotropic(rotated).matrix - twirl_isotropic(rho).matrix
    ) <= 1e-10
