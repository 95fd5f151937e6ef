"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS/FAIL table as it happens. The checks come from
symext.acceptance, which the verify-paper CLI verb shares.
"""

import pytest

from symext.acceptance import run_checks

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


def test_criterion_1_isotropic_boundary_sweeps():
    assert_all(run_checks(only="boundary-sweep", seed=SEED))


def test_criterion_2_extension_family_oracle():
    # the closed-form extension's reductions, and both sides of F = 1/2
    rows = run_checks(only="extension-family", seed=SEED)
    assert [c.name for c in rows] == ["extension-family-reduction", "extension-family-boundary"]
    assert_all(rows)


def test_criterion_3_boundary_extension_oracle():
    assert_all(run_checks(only="boundary-extension", seed=SEED))


def test_criterion_4_headline_zero_capacity():
    # the example state as a state, and its filtered form run as a channel
    rows = run_checks(only="headline", seed=SEED)
    assert [c.name for c in rows] == ["headline-zero-capacity", "headline-zero-capacity-channel"]
    assert_all(rows)


def test_criterion_5_normalization_anchor():
    assert_all(run_checks(only="normalization-anchor", seed=SEED))


def test_criterion_6_depolarizing_flip():
    assert_all(run_checks(only="depolarizing", seed=SEED))


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


def test_criterion_9_isotropic_brackets():
    # d = 6 and 8: lo = F_b - 0.01 Feasible with a certificate, hi = F_b + 0.01
    # witnessed, both verified independently
    assert_all(run_checks(only="isotropic-bracket", seed=SEED))
