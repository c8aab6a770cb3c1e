"""Acceptance criteria for the certification engine, one test per criterion.

Each test is independent and exact (integer equalities, no tolerances).
The terminal summary prints one PASS/FAIL line per criterion; see
conftest.py.  Criterion 10 is randomized and honours --rng-seed.
"""

import json

from knotcert import (
    BraidWord,
    braid_closure,
    braids_equal,
    det_from_alexander,
    det_from_homfly,
    determinant,
    exclude_torus_knot,
    homfly,
    mfw_bound,
    mirror,
    normal_form,
    positive_genus,
    pretzel_quotient_braid,
    quotient_knot_genus,
    signature_and_determinant,
    torus_alexander,
    torus_braid,
    torus_det_4x,
    torus_genus,
    torus_knot_genus_conflict,
    writhe,
)
from knotcert.cli import main

from test_braid import delta_form_even, delta_form_odd, legal_rewrite

ODD_GRID = [(p, q, r)
            for p in (3, 5, 7) for q in (3, 5, 7)
            for r in range(-7, 8, 2)]


def raw_odd_word(p: int, q: int, r: int, block_power: int) -> BraidWord:
    """Plain spelling of the quotient-knot braid with the given number of
    leading 4-letter blocks; block_power q is the knot, q - 2 its
    tangle-move partner (same tail either way)."""
    tail = 2 * p + 2 * q + r
    assert tail >= 0
    return BraidWord(4, (2, 3, 1, 2) * block_power + (2, 3, 3, 2) * p + (1,) * tail)


def test_criterion_01():
    """det T(4, x) = x for odd x up to 15, by closed form, Alexander
    evaluation, and Goeritz reduction of the closure diagram."""
    for x in range(1, 16, 2):
        assert torus_det_4x(x) == x
        assert det_from_alexander(torus_alexander(4, x)) == x
        assert determinant(braid_closure(torus_braid(4, x))) == x


def test_criterion_02():
    """Sign conventions anchored on the right-handed trefoil."""
    d = braid_closure(BraidWord(2, (1, 1, 1)))
    assert 2 * positive_genus(d) == 2
    assert signature_and_determinant(d)[0] == -2


def test_criterion_03():
    """Genus 13 and 9 for the two benchmark positive closures."""
    family = braid_closure(pretzel_quotient_braid(3, 3, -7))
    assert positive_genus(family) == 13
    torus = braid_closure(torus_braid(4, 7))
    assert positive_genus(torus) == 9
    assert torus_genus(4, 7) == 9


def test_criterion_04():
    """Family words equal their full-twist normal spellings in B4."""
    for p in (3, 5):
        for q in (3, 5):
            for r in range(-7, 8, 2):
                assert braids_equal(pretzel_quotient_braid(p, q, r),
                                    delta_form_odd(p, q, r))
    for n in (1, 2):
        for q in (3, 5):
            for r in (4 * q - 1, 4 * q + 1):
                assert braids_equal(pretzel_quotient_braid(2 * n, q, r),
                                    delta_form_even(n, q, r))


def test_criterion_05():
    """s + sigma stays at or above 4 across the odd grid, and the
    tangle-move partner sits exactly 8 below in s."""
    for p, q, r in ODD_GRID:
        knot = braid_closure(pretzel_quotient_braid(p, q, r))
        partner = braid_closure(raw_odd_word(p, q, r, q - 2))
        s = 2 * positive_genus(knot)
        assert s + signature_and_determinant(knot)[0] >= 4
        assert s - 2 * positive_genus(partner) == 8


def test_criterion_06():
    """Closure determinant equals |r| across the odd grid, by Goeritz
    reduction and HOMFLY specialization."""
    for p, q, r in ODD_GRID:
        w = pretzel_quotient_braid(p, q, r)
        assert determinant(braid_closure(w)) == abs(r)
        assert det_from_homfly(homfly(w)) == abs(r)


def test_criterion_07():
    """The braid-index lower bound is sharp at 4 on both families."""
    for r in range(-7, 8, 2):
        assert mfw_bound(homfly(pretzel_quotient_braid(3, 3, r))) == 4
    for r in (11, 13):
        assert mfw_bound(homfly(pretzel_quotient_braid(2, 3, r))) == 4


def test_criterion_08():
    """Even-family genus arithmetic: the closed form matches the diagram
    count, 6n - 3q misses both units, and the torus rule fires."""
    for n in range(1, 6):
        for q in (3, 5, 7):
            for r in (4 * q - 1, 4 * q + 1):
                d = braid_closure(pretzel_quotient_braid(2 * n, q, r))
                assert quotient_knot_genus(2 * n, q, r) == positive_genus(d)
                assert 6 * n - 3 * q not in (1, -1)
                verdict = exclude_torus_knot(2 * n, q, r)
                assert verdict.conclusion == "excluded"


def test_criterion_09(capsys):
    """Full pipeline: four parameter pairs certify with every slope
    excluded and exit code 0; the genus cross-check does not fire on a
    genuine torus knot."""
    for first, q in ((3, 3), (5, 3), (2, 3), (4, 5)):
        assert main(["certify", str(first), str(q), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slopes"], "empty slope list"
        assert all(slope["excluded"] for slope in report["slopes"])
    d = braid_closure(torus_braid(4, 7))
    conflict, _ = torus_knot_genus_conflict(determinant(d), positive_genus(d))
    assert conflict is False


def test_criterion_10(rng, random_knot_word):
    """Property sweep: relation rewrites preserve normal form and HOMFLY;
    mirroring negates signature and writhe; s + sigma vanishes for
    (2, q) torus knots of either handedness."""
    start = pretzel_quotient_braid(3, 3, -7)
    nf0 = normal_form(start)
    poly0 = homfly(start)
    letters = list(start.letters)
    for _ in range(500):
        letters = legal_rewrite(rng, letters, 4, max_length=40)
        w = BraidWord(4, tuple(letters))
        assert normal_form(w) == nf0
        assert homfly(w) == poly0

    for _ in range(100):
        d = braid_closure(random_knot_word())
        m = mirror(d)
        assert signature_and_determinant(m)[0] == -signature_and_determinant(d)[0]
        assert writhe(m) == -writhe(d)

    for q in (3, 5, 7, 9, 11):
        right = braid_closure(BraidWord(2, (1,) * q))
        assert 2 * positive_genus(right) + signature_and_determinant(right)[0] == 0
        left = mirror(right)
        s_left = -2 * positive_genus(mirror(left))
        assert s_left + signature_and_determinant(left)[0] == 0
