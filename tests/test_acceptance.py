"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS/FAIL table as it happens. The checks come from
symext.acceptance, which the verify-paper CLI verb shares.
"""

import pytest

from symext.acceptance import _boundary, run_checks
from symext.constructions import (
    boundary_isotropic_extension,
    isotropic,
    isotropic_boundary_fidelity,
)
from symext.extend import ExtensionProblem, verify_certificate
from symext.linalg import InputError

SEED = 7


def report(rows):
    lines = []
    for c in rows:
        status = "PASS" if c.passed else "FAIL"
        line = (
            f"{status}  {c.name}: target={c.target} measured={c.measured} "
            f"tol={c.tolerance} ({c.seconds:.1f}s)"
        )
        print(line)
        lines.append((c, line))
    return lines


def assert_all(rows):
    rows = report(rows)
    failed = [line for c, line in rows if not c.passed]
    assert not failed, "criterion failed:\n" + "\n".join(failed)


@pytest.fixture(scope="module")
def boundary_rows():
    return run_checks(only="isotropic-boundary", seed=SEED)


def test_criterion_1_isotropic_boundary_sweeps(boundary_rows):
    # both sides of F_b = (d+1)/(2d) in closed form (the extension and the
    # tight -P+ witness, which also prove the nearest-to-singlet distance)
    # and by the solver at F_b -/+ 0.01
    assert [c.name for c in boundary_rows] == [
        f"isotropic-boundary-d{d}" for d in (2, 3, 4, 6, 8)
    ]
    assert_all(boundary_rows)


def test_boundary_rows_print_each_solve_and_its_stop(boundary_rows):
    # each row names the evaluations and stop rule of its two solves: the
    # face exit below F_b and the witness above it, both at evaluation 1
    for c in boundary_rows:
        assert "evals=1/1 stop=face/witness" in c.measured, c.measured


def test_criterion_3_boundary_extension_oracle():
    # the closed-form extension of isotropic(d, F_b), at the rows' bounds
    for d in (2, 3, 4, 6, 8):
        edge = isotropic(d, isotropic_boundary_fidelity(d))
        res = verify_certificate(boundary_isotropic_extension(d), edge)
        assert res.psd <= 1e-10 and res.swap <= 1e-12 and res.pt <= 1e-12 / d, (d, res)


def test_criterion_9_isotropic_brackets(boundary_rows):
    # d = 6 and 8: lo = F_b - 0.01 Feasible with a certificate, hi = F_b + 0.01
    # witnessed, both verified independently
    rows = {c.name: c for c in boundary_rows}
    for d in (6, 8):
        row = rows[f"isotropic-boundary-d{d}"]
        assert row.passed, row.measured
        fields = dict(f.split("=") for f in row.measured.split())
        assert float(fields["res"]) <= ExtensionProblem.tol, row.measured
        assert float(fields["margin"]) < 0.0, row.measured


def test_boundary_rule_can_fail():
    # lo above F_b = 0.75 cannot be Feasible, and hi below it has no witness
    for lo, hi in ((0.76, 0.77), (0.73, 0.74)):
        measured, ok = _boundary(2, isotropic(2, lo), isotropic(2, hi))
        assert not ok, measured


def test_filter_that_matches_no_check_is_input_error():
    with pytest.raises(InputError, match="no checks match"):
        run_checks(only="no-such-row", seed=SEED)


def test_criterion_2_extension_family_oracle():
    # the closed-form extension's reductions, and both sides of F = 1/2
    rows = run_checks(only="extension-family", seed=SEED)
    assert [c.name for c in rows] == ["extension-family-reduction", "extension-family-boundary"]
    assert_all(rows)


def test_criterion_4_headline_zero_capacity():
    # the example state as a state, and its filtered form run as a channel
    rows = run_checks(only="headline", seed=SEED)
    assert [c.name for c in rows] == ["headline-zero-capacity", "headline-zero-capacity-channel"]
    assert_all(rows)


def test_criterion_5_normalization_anchor():
    assert_all(run_checks(only="normalization-anchor", seed=SEED))


def test_criterion_6_depolarizing_flip():
    # the boundary rule on the depolarizing channel's Choi states
    rows = run_checks(only="depolarizing", seed=SEED)
    assert [c.name for c in rows] == ["depolarizing-flip"]
    assert_all(rows)


def test_criterion_7_property_batteries():
    assert_all(run_checks(only="battery", seed=SEED))


def test_criterion_8a_two_copy_maxent():
    assert_all(run_checks(only="two-copy-maxent", seed=SEED))


def test_criterion_8b_two_copy_isotropic():
    # Two copies of isotropic(2, 0.9) need not do better per copy than one:
    # a twirl bound puts the exact per-copy rate near 0.267, above the
    # single-copy value 0.2519, and its hashing bound 0.3725 exceeds that
    # value too. What holds is subadditivity: products of extendible states
    # are extendible, so two <= N(4)/N(2) * single. See README.
    assert_all(run_checks(only="two-copy-isotropic", seed=SEED))
