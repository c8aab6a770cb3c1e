"""Skein polynomial tests: algebra laws, Markov moves, specializations.

The polynomial convention is pinned by two anchors: the unknot maps to 1
and the right trefoil to 2a^2 + a^2 z^2 - a^4, so the skein relation reads
a^{-1} P(L+) - a P(L-) = z P(L0).
"""

import os
import pathlib
import subprocess
import sys
from itertools import permutations
from math import factorial

import oracles
import pytest

import knotcert

from knotcert import (
    BraidWord,
    LaurentPoly2,
    braid_closure,
    det_from_alexander,
    det_from_homfly,
    determinant,
    homfly,
    mfw_bound,
    pretzel_quotient_braid,
    torus_alexander,
    torus_braid,
)
from knotcert.braid import _TABLE_STRANDS, PermutationBraid, _slot_table
from knotcert.homfly import (
    MAX_TRACE_WORK,
    _packed_image,
    _tables,
    _times,
    _trace_terms,
    _unpack,
)

A_INV = oracles.Poly.term(1, -1, 0)
A = oracles.Poly.term(1, 1, 0)
Z = oracles.Poly.term(1, 0, 1)


def mirror_poly(p: LaurentPoly2) -> LaurentPoly2:
    """a -> 1/a, z -> -z; the polynomial of the mirror image."""
    return LaurentPoly2({(-i, j): -c if j % 2 else c for (i, j), c in p.coeffs.items()})


class TestAnchors:
    def test_unknot(self):
        assert homfly(BraidWord(2, (1,))) == 1
        assert homfly(BraidWord(1, ())) == 1

    def test_right_trefoil(self):
        expected = LaurentPoly2({(2, 0): 2, (2, 2): 1, (4, 0): -1})
        assert homfly(torus_braid(2, 3)) == expected

    def test_left_trefoil_is_mirror(self):
        right = homfly(torus_braid(2, 3))
        left = homfly(BraidWord(2, (-1, -1, -1)))
        assert left == mirror_poly(right)

    def test_three_strand_values(self):
        # Both closures leave a level whose last strand is a trivial loop.
        figure_eight = LaurentPoly2({(-2, 0): 1, (0, 0): -1, (0, 2): -1, (2, 0): 1})
        assert homfly(BraidWord(3, (1, -2, 1, -2))) == figure_eight
        t34 = LaurentPoly2({(6, 0): 5, (6, 2): 10, (6, 4): 6, (6, 6): 1,
                            (8, 0): -5, (8, 2): -5, (8, 4): -1, (10, 0): 1})
        assert homfly(torus_braid(3, 4)) == t34

    def test_equality_with_other_values_returns(self):
        """== and != answer for any value that is not a polynomial or an
        int; a bool is not taken as the constant 0 or 1."""
        trefoil, unknot = homfly(torus_braid(2, 3)), homfly(BraidWord(2, (1,)))
        for p in (trefoil, unknot):
            for other in (True, False, "x", None, 1.5):
                assert not p == other, (p, other)
                assert p != other, (p, other)
        assert unknot == 1 and trefoil != 1

    def test_figure_eight_is_amphichiral(self):
        w = BraidWord(3, (1, -2, 1, -2))
        p = homfly(w)
        assert p == mirror_poly(p)


def hecke_image(w: BraidWord) -> dict:
    """{one-line permutation: z-polynomial} of the nonzero terms of w's packed
    Hecke image.  Slot s of the package's dense image holds the term keyed
    by the s-th tuple of permutations(range(n)), the inverse of the one-line
    tuple; this inverts the keys back."""
    image, bits = _packed_image(w)
    return {tuple(sorted(range(len(u)), key=u.__getitem__)):
            oracles.Poly({(0, j): c for j, c in _unpack(packed, bits).items()})
            for u, packed in zip(permutations(range(w.strands)), image) if packed}


def hecke_product(u: BraidWord, v: BraidWord) -> dict:
    """Oracle for the coefficients of hecke_image(u) * hecke_image(v).

    Each basis element g_w of the right factor is the image of the positive
    word spelling w, so the product is the sum over its terms (w, c) of
    c * hecke_image(u * positive word of w).
    """
    total: dict = {}
    for w, c in hecke_image(v).items():
        word = BraidWord(u.strands, tuple(i + 1 for i in PermutationBraid(w).reduced_word()))
        for x, d in hecke_image(u * word).items():
            total[x] = total[x] + c * d if x in total else c * d
    return {x: c for x, c in total.items() if c}


class TestHeckeAlgebra:
    def test_image_is_multiplicative(self, random_word):
        for _ in range(10):
            u = random_word(strands=4, length=8)
            v = random_word(strands=4, length=8)
            assert hecke_image(u * v) == hecke_product(u, v)

    def test_generator_inverse_cancels(self):
        for i in (1, 2, 3):
            w = BraidWord(4, (i, -i))
            assert hecke_image(w) == hecke_image(BraidWord(4, ()))

    def test_braid_relation_in_algebra(self):
        assert hecke_image(BraidWord(3, (1, 2, 1))) == hecke_image(BraidWord(3, (2, 1, 2)))

    def test_strand_guard(self):
        with pytest.raises(ValueError, match="strands"):
            _packed_image(BraidWord(8, (1,)))
        with pytest.raises(ValueError, match="strands"):
            homfly(BraidWord(8, (1,)))
        # The work bound: every letter touches all 720 slots, but sigma1^k keeps
        # two nonzero terms, so the longest accepted power is still cheap.
        k = max(k for k in range(2001) if 720 * k * k * (k + 38) <= MAX_TRACE_WORK)
        _packed_image(BraidWord(6, (1,) * k))
        with pytest.raises(ValueError, match="letters"):
            _packed_image(BraidWord(6, (1,) * (k + 1)))
        with pytest.raises(ValueError, match="letters"):
            homfly(BraidWord(6, (1, 2, 3, 4, 5) * 400))


class TestSlotTables:
    """The permutation-slot tables of every strand count the trace accepts."""

    def test_generator_swaps_pair_an_ascent_with_a_descent(self):
        for n in range(1, 7):
            end, perms = factorial(n), list(permutations(range(n)))
            slots = range(end + 1)  # slot end is the zero sentinel
            gens = _tables(n)[0]
            assert len(gens) == n - 1
            for i, (swap, descents, ascents) in enumerate(gens):
                swap, descents, ascents = swap(slots), descents(slots), ascents(slots)
                assert swap[end] == descents[end] == ascents[end] == end
                for s, u in enumerate(perms):
                    t = swap[s]
                    assert t != s and swap[t] == s
                    assert perms[t] == u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                    descent = u[i] > u[i + 1]
                    assert descents[s] == (s if descent else end)
                    assert ascents[s] == (end if descent else s)
                    assert (descents[t] == t) != descent

    def test_peels_cover_each_slot_once(self):
        for m in range(1, 7):
            end, perms = factorial(m), list(permutations(range(m)))
            peels = _tables(m)[1]
            assert len(peels) == m
            read = []
            for j, peel in enumerate(peels):
                slots = peel(range(end + 1))
                assert slots[-1] == end
                for v, s in zip(permutations(range(m - 1)), slots):
                    assert perms[s] == v[:j] + (m - 1,) + v[j:]
                read += slots[:-1]
            assert sorted(read) == list(range(end))

    def test_import_builds_no_table(self):
        src = str(pathlib.Path(knotcert.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import knotcert; from knotcert.homfly import _tables; "
                "from knotcert.braid import _slot_table; "
                "assert _tables.cache_info().currsize == _slot_table.cache_info().currsize == 0")
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestBraidSlotTables:
    """The slot tables of the normal form's table path, against the mappings
    the list path swaps; the import test above covers them too."""

    def test_products_with_generators(self):
        for n in range(1, _TABLE_STRANDS + 1):
            perms = list(permutations(range(n)))
            rights, lefts, *_, braids = _slot_table(n)
            assert [b.mapping for b in braids] == perms
            assert len(rights) == len(lefts) == n - 1
            for i, (right, left) in enumerate(zip(rights, lefts)):
                for s, u in enumerate(perms):
                    assert right[s] != s and right[right[s]] == s
                    assert left[s] != s and left[left[s]] == s
                    # u s_i swaps the values i and i+1, s_i u the positions i and i+1
                    assert perms[right[s]] == tuple({i: i + 1, i + 1: i}.get(v, v) for v in u)
                    assert perms[left[s]] == u[:i] + (u[i + 1], u[i]) + u[i + 2:]

    def test_descent_masks(self):
        for n in range(1, _TABLE_STRANDS + 1):
            _, _, ends, starts, _, _, lowest, _ = _slot_table(n)
            for s, u in enumerate(permutations(range(n))):
                inv = [u.index(v) for v in range(n)]
                assert ends[s] == sum(1 << i for i in range(n - 1) if inv[i] > inv[i + 1])
                assert starts[s] == sum(1 << i for i in range(n - 1) if u[i] > u[i + 1])
            assert all(lowest[m] == min(i for i in range(n) if m >> i & 1)
                       for m in range(1, 1 << (n - 1)))

    def test_conjugation_by_the_half_twist(self):
        for n in range(1, _TABLE_STRANDS + 1):
            perms = list(permutations(range(n)))
            *_, tau, negated, _, _ = _slot_table(n)
            assert tau[0] == 0 and tau[-1] == len(perms) - 1
            for s, u in enumerate(perms):
                assert tau[tau[s]] == s
                assert perms[tau[s]] == tuple(n - 1 - v for v in reversed(u))
                assert perms[negated[s]] == u[::-1]


def traced_coefficients(w: BraidWord, bits: int) -> list[int]:
    """Every coefficient of the image and of the trace terms, packed at a given width."""
    gens = _tables(w.strands)[0]
    image = [1] + [0] * factorial(w.strands)
    for e in w.letters:
        image = _times(image, gens[abs(e) - 1], bits, inverse=e < 0)
    packed = image + list(_trace_terms(image, w.strands, bits).values())
    return [c for p in packed for c in _unpack(p, bits).values()]


class TestPackedCoefficientsAgainstOracle:
    """The packed trace against the Poly oracle of tests/oracles.py."""

    def check(self, w: BraidWord):
        assert homfly(w) == oracles.homfly(w.strands, w.letters), w
        assert hecke_image(w) == oracles.hecke_coeffs(w.strands, w.letters), w

    def test_random_words(self, rng):
        for _ in range(150):
            n = rng.randint(1, 6)
            length = 0 if n == 1 else rng.randint(0, 24)
            positive = rng.random() < 0.3
            letters = [rng.randint(1, n - 1) * (1 if positive else rng.choice((1, -1)))
                       for _ in range(length)]
            self.check(BraidWord(n, tuple(letters)))

    def test_long_generator_powers(self):
        for n in range(2, 7):
            for k in (1, 2, 3, 30, 59, 60, 119, 120):
                self.check(BraidWord(n, (1,) * k))
                self.check(BraidWord(n, (-1,) * k))

    def test_width_holds_every_coefficient(self, rng):
        # Decoded at four times the width, so exactly, every coefficient must
        # fit the package's width; those of sigma1^120 reach 80 bits.
        words = [BraidWord(n, (1,) * 120) for n in range(2, 7)]
        for sign in ((1,), (1, -1)):
            words += [BraidWord(6, tuple(rng.choice(sign) * rng.randint(1, 5)
                                         for _ in range(40))) for _ in range(3)]
        for w in words:
            bits = _packed_image(w)[1]
            largest = max(abs(c) for c in traced_coefficients(w, 4 * bits))
            assert largest < 1 << (bits - 1), (w.strands, largest.bit_length(), bits)


class TestLaurentPoly2Input:
    def test_rejects_non_int_terms(self):
        for coeffs in ({(0, 0): 0.5}, {(0.5, 0): 1}, {(True, 0): 1}, {(1, 2): True}):
            with pytest.raises(ValueError, match="must be int"):
                LaurentPoly2(coeffs)


class TestSkeinRelation:
    def test_on_random_sites(self, random_word, rng):
        for _ in range(12):
            n = rng.choice((2, 3, 4))
            w = random_word(strands=n, length=8)
            i = rng.choice(range(1, n))
            plus = homfly(w * BraidWord(n, (i,)))
            minus = homfly(w * BraidWord(n, (-i,)))
            zero = homfly(w)
            assert A_INV * plus - A * minus == Z * zero


class TestMarkovMoves:
    def test_conjugation_invariance(self, random_word):
        for _ in range(10):
            w = random_word(strands=4, length=8)
            g = random_word(strands=4, length=5)
            assert homfly(g * w * g.inverse()) == homfly(w)

    def test_stabilization_invariance(self, random_word, rng):
        for _ in range(10):
            n = rng.choice((2, 3))
            w = random_word(strands=n, length=8)
            sign = rng.choice((1, -1))
            stabilized = BraidWord(n + 1, w.letters + (sign * n,))
            assert homfly(stabilized) == homfly(w)

    def test_transposed_torus_presentations_agree(self):
        assert homfly(torus_braid(4, 3)) == homfly(torus_braid(3, 4))
        assert homfly(torus_braid(2, 5)) == homfly(torus_braid(5, 2))


class TestMirrorSymmetry:
    def test_random_words(self, random_word):
        for _ in range(10):
            w = random_word(strands=4, length=9)
            flipped = BraidWord(4, tuple(-e for e in w.letters))
            assert homfly(flipped) == mirror_poly(homfly(w))


class TestBraidIndexBound:
    def test_never_exceeds_strand_count(self, random_word, rng):
        for _ in range(12):
            n = rng.choice((2, 3, 4))
            w = random_word(strands=n, length=9)
            assert mfw_bound(homfly(w)) <= n

    def test_two_strand_torus_is_sharp(self):
        for q in (3, 5, 7):
            assert mfw_bound(homfly(torus_braid(2, q))) == 2

    def test_family_words_are_sharp_at_four(self):
        assert mfw_bound(homfly(pretzel_quotient_braid(3, 3, -7))) == 4
        assert mfw_bound(homfly(pretzel_quotient_braid(2, 3, 13))) == 4

    def test_unknot_bound_is_one(self):
        assert mfw_bound(homfly(BraidWord(2, (1,)))) == 1

    def test_odd_breadth_is_a_value_error(self):
        # No link polynomial has odd a-breadth, but a user-built one can.
        with pytest.raises(ValueError, match="breadth"):
            mfw_bound(LaurentPoly2({(0, 0): 1, (1, 0): 1}))


class TestDeterminantSpecialization:
    def test_agrees_with_goeritz_on_random_knots(self, random_knot_word):
        for _ in range(10):
            w = random_knot_word()
            assert det_from_homfly(homfly(w)) == determinant(braid_closure(w))

    def test_agrees_with_alexander_on_torus_knots(self):
        for (a, b) in [(2, 3), (2, 7), (3, 4), (3, 5), (4, 3), (4, 5)]:
            assert det_from_homfly(homfly(torus_braid(a, b))) == \
                det_from_alexander(torus_alexander(a, b))

    def test_rejects_link_polynomials(self):
        with pytest.raises(ValueError):
            det_from_homfly(homfly(torus_braid(2, 4)))
