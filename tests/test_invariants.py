"""Invariant layer tests: torus formulas, genus."""

import pytest

from knotcert import (
    braid_closure,
    det_from_alexander,
    determinant,
    mirror,
    positive_genus,
    pretzel_quotient_braid,
    quotient_knot_genus,
    signature_and_determinant,
    torus_alexander,
    torus_braid,
    torus_det_4x,
    torus_genus,
)


class TestTorusFormulas:
    def test_alexander_needs_coprime_positive(self):
        with pytest.raises(ValueError):
            torus_alexander(4, 6)
        with pytest.raises(ValueError):
            torus_alexander(0, 3)

    def test_alexander_coefficients(self):
        assert torus_alexander(2, 3) == (1, -1, 1)
        assert torus_alexander(2, 5) == (1, -1, 1, -1, 1)
        assert torus_alexander(3, 4) == (1, -1, 0, 1, 0, -1, 1)

    def test_determinant_anchors(self):
        assert det_from_alexander(torus_alexander(2, 3)) == 3
        assert det_from_alexander(torus_alexander(2, 7)) == 7
        assert det_from_alexander(torus_alexander(3, 4)) == 3
        assert det_from_alexander(torus_alexander(3, 5)) == 1

    def test_det_4x_equals_x(self):
        for x in (1, 3, 5, 7, 9, 11, 13, 15):
            assert torus_det_4x(x) == x

    def test_det_4x_rejects_even(self):
        with pytest.raises(ValueError):
            torus_det_4x(6)

    def test_three_determinant_paths_agree(self):
        for x in (1, 3, 5, 7, 9):
            closed = determinant(braid_closure(torus_braid(4, x)))
            assert torus_det_4x(x) == det_from_alexander(torus_alexander(4, x)) == closed

    def test_genus_formula(self):
        assert torus_genus(2, 3) == 1
        assert torus_genus(4, 7) == 9
        assert torus_genus(3, 5) == 4
        with pytest.raises(ValueError):
            torus_genus(4, 6)


class TestPositiveGenus:
    def test_torus_grid(self):
        import math
        for a in (2, 3, 4):
            for b in range(2, 9):
                if math.gcd(a, b) != 1:
                    continue
                d = braid_closure(torus_braid(a, b))
                assert positive_genus(d) == torus_genus(a, b)

    def test_trefoil_values(self):
        d = braid_closure(torus_braid(2, 3))
        assert positive_genus(d) == 1
        assert 2 * positive_genus(d) == 2

    def test_rejects_negative_diagrams(self):
        with pytest.raises(ValueError):
            positive_genus(mirror(braid_closure(torus_braid(2, 3))))

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            positive_genus(braid_closure(torus_braid(2, 4)))

    def test_positive_s_plus_sigma_nonnegative(self, random_word):
        # positive knot closures have sigma >= -s, often strictly inside
        for _ in range(10):
            w = random_word(strands=4, length=12, positive=True)
            d = braid_closure(w)
            from knotcert import component_count
            if component_count(d) != 1:
                continue
            assert 2 * positive_genus(d) + signature_and_determinant(d)[0] >= 0


class TestFamilyGenus:
    def test_odd_formula_matches_diagram(self):
        for (p, q) in [(3, 3), (3, 5), (5, 3)]:
            for r in (-7, -1, 3, 7):
                w = pretzel_quotient_braid(p, q, r)
                expected = quotient_knot_genus(p, q, r)
                assert positive_genus(braid_closure(w)) == expected

    def test_odd_known_value(self):
        assert quotient_knot_genus(3, 3, -7) == 13

    def test_odd_rejects_even_r(self):
        with pytest.raises(ValueError):
            quotient_knot_genus(3, 3, 2)

    def test_odd_rejects_a_negative_tail(self):
        """Below r = -2(p+q) the quotient word would need a negative tail;
        the error names the slope, and the last slope with a word, tail 1,
        gets the genus of that word's closure."""
        for r in (-39, -13):
            with pytest.raises(ValueError, match=f"slope {r} gives the quotient word a negative tail"):
                quotient_knot_genus(3, 3, r)
        for (p, q) in [(3, 3), (3, 5), (5, 3)]:
            r = -2 * (p + q) + 1
            assert quotient_knot_genus(p, q, r) == 2 * (p + q) - 1
            assert positive_genus(braid_closure(pretzel_quotient_braid(p, q, r))) == 2 * (p + q) - 1

    def test_even_formula_matches_diagram(self):
        for (n, q) in [(1, 3), (2, 3), (1, 5)]:
            for r in (4 * q - 1, 4 * q + 1):
                w = pretzel_quotient_braid(2 * n, q, r)
                expected = quotient_knot_genus(2 * n, q, r)
                assert positive_genus(braid_closure(w)) == expected

    def test_even_rejects_other_slopes(self):
        with pytest.raises(ValueError):
            quotient_knot_genus(2, 3, 7)
