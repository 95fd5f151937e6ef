"""Seeded property tests: the relative entropy against a dense reference, the
identities of the extension geometry shared by the solver and the
distance, certificate round trips with negative controls, the
closure of the extendible set under channels on Bob's side, and the CLI's
matrix writer against json.dumps."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symext.cli import _matrix_json, encode_matrix
from symext.extend import (
    FEASIBLE,
    INFEASIBLE_NUMERICAL,
    ExtensionProblem,
    _Geometry,
    solve_extension,
    verify_certificate,
    verify_witness,
)
from symext.linalg import permute_systems
from symext.quantum import DensityMatrix, apply_channel, relative_entropy
from symext.sampling import random_cptp, random_density, random_entangled_pure, random_unitary

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)
sides = st.integers(2, 6)
shapes = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)])


def dense_reference(rho, sigma):
    """Tr rho log2 rho - Tr rho U log2 max(w, 1e-12) U^dag, (w, U) = eigh(sigma)."""
    wr = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
    w, u = np.linalg.eigh(sigma)
    log_sigma = (u * np.log2(np.maximum(w, 1e-12))) @ u.conj().T
    return float(np.sum(wr * np.log2(wr))) - float(np.trace(rho @ log_sigma).real)


def on_support(rng, u, r):
    """A random state supported on the span of the first r columns of u."""
    block = random_density(rng, (r,)).matrix
    m = u[:, :r] @ block @ u[:, :r].conj().T
    return DensityMatrix(m, (u.shape[0],))


def rank_deficient(rng, n, r):
    """A rank-r state with a random eigenbasis, and that basis."""
    u = random_unitary(rng, n)
    probs = rng.dirichlet(np.ones(r))
    w = np.concatenate([probs, np.zeros(n - r)])
    return DensityMatrix((u * w) @ u.conj().T, (n,)), u


@PROPERTY
@given(seeds, sides)
def test_relative_entropy_full_rank_sigma(seed, n):
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, (n,)), random_density(rng, (n,))
    val = relative_entropy(rho, sigma)
    assert abs(val - dense_reference(rho.matrix, sigma.matrix)) <= 1e-12
    assert val >= -1e-12
    assert abs(relative_entropy(rho, rho)) <= 1e-12


@PROPERTY
@given(seeds, sides, st.data())
def test_relative_entropy_rank_deficient_sigma(seed, n, data):
    r = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    sigma, u = rank_deficient(rng, n, r)
    rho = on_support(rng, u, r)
    val = relative_entropy(rho, sigma)
    assert math.isfinite(val)
    assert abs(val - dense_reference(rho.matrix, sigma.matrix)) <= 1e-12
    assert val >= -1e-12
    assert abs(relative_entropy(sigma, sigma)) <= 1e-12


@PROPERTY
@given(seeds, sides, st.data(), st.floats(1e-6, 1.0))
def test_relative_entropy_kernel_mass_is_infinite(seed, n, data, t):
    r = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    sigma, u = rank_deficient(rng, n, r)
    inside = on_support(rng, u, r).matrix
    kernel = np.outer(u[:, r], u[:, r].conj())
    rho = DensityMatrix((1.0 - t) * inside + t * kernel, (n,))
    assert relative_entropy(rho, sigma) == math.inf


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


@PROPERTY
@given(seeds, shapes)
def test_geometry_lift_is_adjoint_of_reduction(seed, dims):
    # Re<lift(y), X> = Re<y, Tr_B' X> for swap-invariant X
    rng = np.random.default_rng(seed)
    geo = _Geometry(dims)
    y = random_hermitian(rng, geo.d_ab)
    x = geo.swap_avg(random_hermitian(rng, geo.side))
    lhs = np.vdot(geo.lift(y), x).real
    rhs = np.vdot(y, geo.ptrace_last(x)).real
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@PROPERTY
@given(seeds, shapes)
def test_geometry_swap_avg_idempotent_and_reduction_of_kron(seed, dims):
    rng = np.random.default_rng(seed)
    geo = _Geometry(dims)
    m = random_hermitian(rng, geo.side)
    once = geo.swap_avg(m)
    assert np.allclose(geo.swap_avg(once), once, rtol=0.0, atol=1e-14)
    # V m V^dag, not V m: the average of a Hermitian matrix stays Hermitian
    assert np.allclose(once, once.conj().T, rtol=0.0, atol=1e-14)
    y = random_hermitian(rng, geo.d_ab)
    assert np.allclose(geo.ptrace_last(geo.kron_eye(y)), geo.d_b * y, rtol=0.0, atol=1e-12)


def extendible_pair(rng, dims):
    """A full-rank swap-invariant state X on A B B' and its reduction rho."""
    geo = _Geometry(dims)
    g = rng.standard_normal((geo.side, geo.side)) + 1j * rng.standard_normal((geo.side, geo.side))
    x = geo.swap_avg(g @ g.conj().T)
    x /= np.trace(x).real
    return geo, x, DensityMatrix(geo.ptrace_last(x), dims)


@PROPERTY
@given(seeds, shapes)
def test_certificate_round_trip_with_negative_controls(seed, dims):
    rng = np.random.default_rng(seed)
    geo, x, rho = extendible_pair(rng, dims)
    assert verify_certificate(x, rho).combined <= 1e-12
    # flipped sign: -X is negative definite and reduces to -rho
    flipped = verify_certificate(-x, rho)
    assert flipped.psd >= np.linalg.eigvalsh(x)[-1] * (1 - 1e-12)
    assert flipped.pt >= 1.0 / geo.d_ab
    # perturbed rho: the marginal residual is exactly the perturbation
    sigma = random_density(rng, dims).matrix
    t = 1e-3
    moved = DensityMatrix((1 - t) * rho.matrix + t * sigma, dims)
    expected = t * np.linalg.norm(rho.matrix - sigma)
    assert abs(verify_certificate(x, moved).pt - expected) <= 1e-12
    # a swap-odd part a (V a V = -a) shows as swap residual 2 t ||a||
    h = random_hermitian(rng, geo.side)
    odd = h - geo.swap_avg(h)
    res = verify_certificate(x + t * odd, rho).swap
    assert abs(res - 2 * t * np.linalg.norm(odd)) <= 1e-12


@settings(PROPERTY, max_examples=15)
@given(seeds, shapes)
def test_solver_certificates_round_trip(seed, dims):
    # Feasible: the candidate re-verifies, and fails once the target moves
    rng = np.random.default_rng(seed)
    _, _, rho = extendible_pair(rng, dims)
    cert = solve_extension(ExtensionProblem(target=rho))
    assert cert.verdict == FEASIBLE
    assert verify_certificate(cert.candidate, rho).combined <= ExtensionProblem.tol
    moved = DensityMatrix(0.99 * rho.matrix + 0.01 * random_density(rng, dims).matrix, dims)
    assert verify_certificate(cert.candidate, moved).pt > ExtensionProblem.tol
    # InfeasibleNumerical: the witness certifies, its negation does not, and
    # it never certifies against an extendible state
    pure = random_entangled_pure(rng, dims)
    cert = solve_extension(ExtensionProblem(target=pure))
    assert cert.verdict == INFEASIBLE_NUMERICAL
    assert verify_witness(cert.witness, pure).certified
    assert not verify_witness(-cert.witness, pure).certified
    assert not verify_witness(cert.witness, rho).certified


@PROPERTY
@given(seeds, st.sampled_from([((2, 2), 2), ((2, 2), 3), ((3, 2), 2)]))
def test_bob_side_channel_keeps_extension_exactly(seed, case):
    # Lambda on B and on B' maps an extension X of rho to an extension of
    # (id (x) Lambda) rho: the swap commutes with Lambda (x) Lambda and the
    # trace over B' absorbs the trace-preserving copy on B'
    (d_a, d_b), d_out = case
    rng = np.random.default_rng(seed)
    _, x, rho = extendible_pair(rng, (d_a, d_b))
    ch = random_cptp(rng, d_b, d_out, int(rng.integers(1, 4)))
    # Lambda on B' of (A B) (x) B', then on B with B' moved out of the way
    on_b2 = apply_channel(ch, DensityMatrix(x, (d_a * d_b, d_b))).matrix
    on_b = permute_systems(on_b2, (d_a, d_b, d_out), (0, 2, 1))
    mapped = apply_channel(ch, DensityMatrix(on_b, (d_a * d_out, d_b))).matrix
    target = apply_channel(ch, rho)
    assert verify_certificate(mapped, target).combined <= 1e-12
    # negative control: Lambda on B alone (X is swap-invariant, so on_b is
    # X with Lambda on B) breaks the swap symmetry
    if d_out == d_b:
        assert verify_certificate(on_b, target).swap >= 1e-2


# json's edge cases (signed zeros, subnormals, the largest magnitudes, NaN
# and both infinities), integer-valued floats, and a small pool that makes
# values repeat, beside any float at all
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
                               -math.nan, math.inf, -math.inf, 0.1, -0.1])
entries = edge_floats | st.integers(-9, 9).map(float) | st.floats()


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_matrix_writer_equals_json_dumps(rows, cols, is_complex, data):
    parts = [np.array(data.draw(st.lists(entries, min_size=rows * cols,
                                         max_size=rows * cols))).reshape(rows, cols)
             for _ in range(1 + is_complex)]
    m = parts[0]
    if is_complex:
        m = np.empty((rows, cols), dtype=complex)
        m.real, m.imag = parts
    assert _matrix_json(m) == json.dumps(encode_matrix(m))
