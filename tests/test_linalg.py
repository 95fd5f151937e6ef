import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import symext
from symext import linalg
from symext.quantum import max_entangled_projector


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_partial_trace_maxent_marginal():
    out = linalg.partial_trace(max_entangled_projector(2), (2, 2), 0)
    assert np.allclose(out, np.eye(2) / 2)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        out = linalg.partial_trace(np.kron(a, b), (2, 3), 0)
        assert np.linalg.norm(out - a * np.trace(b)) <= 1e-12 * np.linalg.norm(a)
        out = linalg.partial_trace(np.kron(a, b), (2, 3), 1)
        assert np.linalg.norm(out - b * np.trace(a)) <= 1e-12 * np.linalg.norm(b)


def test_tensor_helpers_keep_real_dtype():
    # a real input stays float64 and gives the real part of the complex
    # result; hermitianize keeps its input's dtype too
    m = random_hermitian(np.random.default_rng(2), 6).real
    for out, ref in [
        (linalg.hermitianize(m), linalg.hermitianize(m + 0j)),
        (linalg.partial_trace(m, (2, 3), 0), linalg.partial_trace(m + 0j, (2, 3), 0)),
        (linalg.partial_trace(m, (2, 3), 1), linalg.partial_trace(m + 0j, (2, 3), 1)),
        (linalg.partial_transpose(m, (2, 3)), linalg.partial_transpose(m + 0j, (2, 3))),
    ]:
        assert out.dtype == np.float64 and ref.dtype == np.complex128
        assert np.array_equal(out, ref.real)


def test_partial_trace_errors():
    for keep in (-1, 2, {0}):
        with pytest.raises(ValueError, match="keep must be 0"):
            linalg.partial_trace(np.eye(4), (2, 2), keep)
    with pytest.raises(ValueError, match="expected a square matrix"):
        linalg.partial_trace(np.ones((2, 4)), (2, 2), 0)
    # the helpers take the shape of A (x) B only
    with pytest.raises(linalg.InputError, match="two subsystems"):
        linalg.partial_trace(np.eye(8), (2, 2, 2), 0)
    with pytest.raises(linalg.InputError, match="two subsystems"):
        linalg.partial_transpose(np.eye(8), (2, 2, 2))


def test_partial_transpose_identity_fixed():
    assert np.allclose(linalg.partial_transpose(np.eye(4) / 4, (2, 2)), np.eye(4) / 4)


def test_partial_transpose_maxent_gives_swap():
    pt = linalg.partial_transpose(max_entangled_projector(2), (2, 2))
    # the swap of B and B' on 1 (x) 2 (x) 2 is the swap of a qubit pair
    v = np.eye(4)[linalg.swap_permutation(1, 2)]
    assert np.allclose(pt, v / 2)
    # overlap of the maximally entangled projector with the swap operator
    assert abs(np.vdot(max_entangled_projector(2), v) - 1.0) <= 1e-12
    w = np.linalg.eigvalsh(pt)
    assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5])


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 6)
    once = linalg.partial_transpose(m, (2, 3))
    assert not np.allclose(once, m)
    assert np.array_equal(linalg.partial_transpose(once, (2, 3)), m)


def test_swap_permutation_on_kets():
    # V |01> = |10>, and (V psi)[r] = psi[p[r]]
    p = linalg.swap_permutation(1, 2)
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    ket10 = np.zeros(4)
    ket10[2] = 1.0
    assert np.array_equal(ket01[p], ket10)


def test_swap_permutation_entrywise_d2():
    # V = sum |ijk><ikj| over the last two of three qubits
    p = linalg.swap_permutation(2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert p[i * 4 + j * 2 + k] == i * 4 + k * 2 + j


def test_swap_permutation_involutive():
    # a permutation of all indices that is its own inverse, so the matrix
    # np.eye(n)[p] is a unitary involution
    p = linalg.swap_permutation(3, 2)
    assert sorted(p) == list(range(12))
    assert np.array_equal(p[p], np.arange(12))
    v = np.eye(12)[p]
    assert np.array_equal(v @ v, np.eye(12)) and np.array_equal(v @ v.T, np.eye(12))


def test_swap_conjugate_matches_matrix_conjugation():
    rng = np.random.default_rng(4)
    m = random_hermitian(rng, 12)
    v = np.eye(12)[linalg.swap_permutation(3, 2)]
    assert np.allclose(linalg.permute_systems(m, (3, 2, 2), (0, 2, 1)), v @ m @ v)


def test_swap_conjugation_is_hs_isometry():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = random_hermitian(rng, 8), random_hermitian(rng, 8)
        va = linalg.permute_systems(a, (2, 2, 2), (0, 2, 1))
        vb = linalg.permute_systems(b, (2, 2, 2), (0, 2, 1))
        assert abs(np.vdot(va, vb) - np.vdot(a, b)) <= 1e-10


def test_permute_systems_identity_and_inverse():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 12)
    assert np.allclose(linalg.permute_systems(m, (2, 3, 2), (0, 1, 2)), m)
    fwd = linalg.permute_systems(m, (2, 3, 2), (1, 2, 0))
    back = linalg.permute_systems(fwd, (3, 2, 2), (2, 0, 1))
    assert np.allclose(back, m)


def test_permute_systems_preserves_spectrum():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 8)
    out = linalg.permute_systems(m, (2, 2, 2), (2, 0, 1))
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(m))


def test_permute_systems_rejects_bad_perm():
    with pytest.raises(ValueError):
        linalg.permute_systems(np.eye(8), (2, 2, 2), (0, 0, 1))


def test_hermitianize_rejects_skew():
    with pytest.raises(ValueError):
        linalg.hermitianize(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # the skew tolerance scales with the norm; below it the Hermitian part returns
    m = np.array([[1e6, 2.0 + 1e-5j], [2.0, 3.0]])
    assert np.array_equal(linalg.hermitianize(m), (m + m.conj().T) / 2)
    with pytest.raises(ValueError):
        linalg.hermitianize(np.array([[1.0, 2.0 + 1e-5j], [2.0, 3.0]]))


def test_psd_project_cases():
    assert np.allclose(
        linalg.psd_project(np.diag([1.0, -0.5])), np.diag([1.0, 0.0])
    )
    assert np.allclose(linalg.psd_project(np.diag([-1.0, -2.0])), np.zeros((2, 2)))


def test_psd_project_fixed_point_and_idempotent():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    psd = g @ g.conj().T
    assert np.linalg.norm(linalg.psd_project(psd) - psd) <= 1e-10 * np.linalg.norm(psd)
    m = random_hermitian(rng, 6)
    once = linalg.psd_project(m)
    twice = linalg.psd_project(once)
    assert np.linalg.norm(once - twice) <= 1e-10
    assert np.linalg.eigvalsh(once).min() >= -1e-12


def test_public_names_resolve():
    # every name a module exports must exist in it
    for info in pkgutil.iter_modules(symext.__path__):
        module = importlib.import_module(f"symext.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


# Exported names that only perfbench/ or CI read, so no code in src/ calls
# them: perfbench calibrates with psd_project and builds its channel files
# with random_unitary, and CI writes its state files with state_to_payload
# (the CLI writes its matrices with cli._matrix_json, not through lists).
ONLY_BENCH_OR_CI = {"psd_project", "random_unitary", "state_to_payload"}


def test_every_public_name_has_a_caller():
    # A use is a load of the name, bare or as an attribute, in src/ outside
    # __init__.py; its def, class or assignment is not one. The verify-paper
    # rows live in src/ (acceptance.py), so a name a row uses has a use.
    used = set()
    for path in Path(symext.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    exported = set()
    for info in pkgutil.iter_modules(symext.__path__):
        exported.update(importlib.import_module(f"symext.{info.name}").__all__)
    assert sorted(exported - used - ONLY_BENCH_OR_CI) == []
    # the allowlist names only what src/ does not call
    assert sorted(ONLY_BENCH_OR_CI & used) == []
