"""Diagram engine tests against independent oracles and known values.

goeritz_det in oracles.py re-derives the determinant from PD text with its
own face walk and checkerboard coloring; torus_sigma counts eigenvalue
crossings for torus knots.  Neither shares code with the package.
"""

import math

import pytest

from knotcert import (
    BraidWord,
    LinkDiagram,
    braid_closure,
    component_count,
    determinant,
    faces,
    from_pd_text,
    goeritz,
    mirror,
    positive_genus,
    pretzel_diagram,
    seifert_circle_count,
    signature_and_determinant,
    to_pd_text,
    torus_braid,
    writhe,
)
from knotcert._matrix import symmetric_inertia
from knotcert.braid import MAX_INPUT_LETTERS, exponent_sum, quotient_braid
from knotcert.certify import _positive_word_genus, _pretzel_family
from knotcert.diagram import (
    _frontier_tails, _piece_count, _quotient_tail_invariants, is_positive)

from conftest import cycle_count, grid_knot_slope_words, logged
from oracles import _symmetric_sig_det, braid_seifert_sigma, goeritz_det, torus_sigma

RIGHT_TREFOIL = braid_closure(torus_braid(2, 3))
FIGURE_EIGHT = braid_closure(BraidWord(3, (1, -2, 1, -2)))


class TestClosureStructure:
    def test_component_count_matches_permutation_cycles(self, random_word):
        for _ in range(20):
            w = random_word(strands=4, length=10)
            d = braid_closure(w)
            assert component_count(d) == cycle_count(w)

    def test_seifert_circles_equal_strand_count(self, random_word):
        for _ in range(15):
            w = random_word(strands=4, length=10)
            assert seifert_circle_count(braid_closure(w)) == 4

    def test_writhe_is_exponent_sum(self, random_word):
        for _ in range(15):
            w = random_word(strands=3, length=12)
            assert writhe(braid_closure(w)) == exponent_sum(w)

    def test_positive_flag(self):
        assert is_positive(RIGHT_TREFOIL)
        assert not is_positive(FIGURE_EIGHT)

    def test_empty_word_closure_is_free_loops(self):
        d = braid_closure(BraidWord(1, ()))
        assert d.free_loops == 1
        assert component_count(d) == 1
        assert determinant(d) == 1

    def test_faces_satisfy_euler_formula(self, random_knot_word):
        for _ in range(10):
            d = braid_closure(random_knot_word())
            assert len(faces(d)) == len(d.crossings) + 2

    def test_faces_order_is_pinned(self):
        # faces start at the lowest unvisited corner, in corner order
        assert faces(FIGURE_EIGHT) == [
            [(0, 0), (2, 2), (3, 0)], [(0, 1), (2, 1)], [(0, 2), (1, 0), (2, 0)],
            [(0, 3), (3, 1), (1, 3)], [(1, 1), (3, 3), (2, 3)], [(1, 2), (3, 2)]]


class TestAnchors:
    def test_right_trefoil(self):
        assert determinant(RIGHT_TREFOIL) == 3
        assert signature_and_determinant(RIGHT_TREFOIL)[0] == -2
        assert writhe(RIGHT_TREFOIL) == 3

    def test_left_trefoil(self):
        d = mirror(RIGHT_TREFOIL)
        assert determinant(d) == 3
        assert signature_and_determinant(d)[0] == 2

    def test_figure_eight(self):
        assert determinant(FIGURE_EIGHT) == 5
        assert signature_and_determinant(FIGURE_EIGHT)[0] == 0

    def test_unknot(self):
        d = braid_closure(BraidWord(2, (1,)))
        assert determinant(d) == 1
        assert signature_and_determinant(d)[0] == 0

    def test_torus_two_strand(self):
        for q in (3, 5, 7, 9):
            d = braid_closure(torus_braid(2, q))
            assert determinant(d) == q
            assert signature_and_determinant(d)[0] == -(q - 1)

    def test_granny_and_square(self):
        granny = braid_closure(BraidWord(3, (1, 1, 1, 2, 2, 2)))
        square = braid_closure(BraidWord(3, (1, 1, 1, -2, -2, -2)))
        # connected sums: det multiplies, signature adds
        assert determinant(granny) == 9
        assert signature_and_determinant(granny)[0] == -4
        assert determinant(square) == 9
        assert signature_and_determinant(square)[0] == 0

    def test_split_diagram_determinant_vanishes(self):
        # only one of the two generators appears, so the closure splits
        d = braid_closure(BraidWord(3, (1, 1)))
        assert determinant(d) == 0


class TestSignatureAgainstEigenvalueCount:
    def test_torus_knot_grid(self):
        for a in (2, 3, 4, 5):
            for b in range(2, 10):
                if math.gcd(a, b) != 1:
                    continue
                d = braid_closure(torus_braid(a, b))
                assert signature_and_determinant(d)[0] == torus_sigma(a, b), (a, b)

    def test_mirror_grid(self):
        for (a, b) in [(2, 5), (3, 4), (4, 5)]:
            d = mirror(braid_closure(torus_braid(a, b)))
            assert signature_and_determinant(d)[0] == -torus_sigma(a, b)


class TestMirror:
    def test_writhe_antisymmetric(self, random_word):
        for _ in range(15):
            d = braid_closure(random_word(strands=4, length=10))
            assert writhe(mirror(d)) == -writhe(d)

    def test_signature_antisymmetric(self, random_knot_word):
        for _ in range(15):
            d = braid_closure(random_knot_word())
            assert signature_and_determinant(mirror(d))[0] == -signature_and_determinant(d)[0]

    def test_determinant_invariant(self, random_knot_word):
        for _ in range(15):
            d = braid_closure(random_knot_word())
            assert determinant(mirror(d)) == determinant(d)

    def test_involution(self, random_knot_word):
        d = braid_closure(random_knot_word())
        m2 = mirror(mirror(d))
        assert to_pd_text(m2) == to_pd_text(d)


class TestDeterminantParity:
    def test_odd_for_knots(self, random_knot_word):
        for _ in range(15):
            d = braid_closure(random_knot_word())
            assert determinant(d) % 2 == 1

    def test_even_for_two_component_links(self):
        for w in (torus_braid(2, 4), torus_braid(2, 6), BraidWord(3, (1, 1, 2, 2))):
            d = braid_closure(w)
            if component_count(d) == 2:
                assert determinant(d) % 2 == 0


class TestPretzel:
    def test_three_odd_twist_determinants(self):
        for p in (1, 3, 5, 7):
            for q in (1, 3, 5, 7):
                for s in (1, 3, 5, 7):
                    d = pretzel_diagram((p, q, s))
                    assert determinant(d) == p * q + q * s + s * p

    def test_classic_pretzel_values(self):
        d = pretzel_diagram((-2, 3, 7))
        assert determinant(d) == 1
        assert signature_and_determinant(d)[0] == -8
        d333 = pretzel_diagram((3, 3, 3))
        assert determinant(d333) == 27
        assert writhe(d333) == -9

    def test_trefoil_as_pretzel(self):
        d = pretzel_diagram((1, 1, 1))
        assert determinant(d) == 3
        assert abs(signature_and_determinant(d)[0]) == 2

    def test_single_column_closes_to_unknot(self):
        # one twist region ring-closed is a curl chain: det is the empty product
        for t in (3, 5):
            d = pretzel_diagram((t,))
            assert determinant(d) == 1
            assert signature_and_determinant(d)[0] == 0

    def test_two_columns_close_to_two_strand_torus(self):
        for (p, q) in [(3, 4), (1, 1), (5, 2)]:
            d = pretzel_diagram((p, q))
            assert determinant(d) == p + q

    @pytest.mark.parametrize("twists, pd", [
        ((-2, 3, 7), "X 22 0 1 18 + | X 19 1 0 23 + | X 20 18 2 3 + | X 3 2 4 5 + | "
                     "X 5 4 19 21 + | X 6 7 22 20 + | X 8 9 7 6 + | X 10 11 9 8 + | "
                     "X 12 13 11 10 + | X 14 15 13 12 + | X 16 17 15 14 + | X 21 23 17 16 +"),
        ((3, 3, 3), "X 0 1 12 16 - | X 1 0 2 3 - | X 17 13 3 2 - | X 4 5 14 12 - | "
                    "X 5 4 6 7 - | X 13 15 7 6 - | X 8 9 16 14 - | X 9 8 10 11 - | "
                    "X 15 17 11 10 -"),
        ((1, -1, 1, -1), "X 7 1 0 6 - | X 0 1 3 2 + | X 3 5 4 2 - | X 4 5 7 6 +"),
        ((2,), "X 0 1 2 2 - | X 1 0 3 3 -"),
        ((5, -3), "X 0 1 12 14 - | X 1 0 2 3 - | X 4 5 3 2 - | X 5 4 6 7 - | "
                  "X 15 13 7 6 - | X 12 8 9 14 + | X 11 9 8 10 + | X 10 13 15 11 +"),
    ], ids=["-2,3,7", "3,3,3", "1,-1,1,-1", "2", "5,-3"])
    def test_pd_text_is_pinned(self, twists, pd):
        """Arc labels and crossing order: region by region, top to bottom."""
        assert to_pd_text(pretzel_diagram(twists)) == pd.replace(" | ", "\n") + "\n"

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            pretzel_diagram(())
        with pytest.raises(ValueError):
            pretzel_diagram((3, 0, 3))

    def test_rejects_bool_and_float_counts(self):
        for twists in ([True, 3, 3], [3, 3.0, 3]):
            with pytest.raises(ValueError, match="twist counts must be integers"):
                pretzel_diagram(twists)

    def test_input_limit(self):
        """At most MAX_INPUT_LETTERS crossings, counted before any is built."""
        d = pretzel_diagram([3, -(MAX_INPUT_LETTERS - 5), 2])
        assert len(d.crossings) == MAX_INPUT_LETTERS
        with pytest.raises(ValueError, match="2001 crossings, over the input limit"):
            pretzel_diagram([3, -(MAX_INPUT_LETTERS - 4), 2])


class TestGoeritzOracle:
    def test_pretzels(self):
        for twists in [(3, 5, 7), (3, 3, 3), (-2, 3, 7), (5, 5, 3), (1, 3, 5)]:
            d = pretzel_diagram(twists)
            assert determinant(d) == goeritz_det(to_pd_text(d))

    def test_random_knot_closures(self, random_knot_word):
        for _ in range(12):
            d = braid_closure(random_knot_word())
            assert determinant(d) == goeritz_det(to_pd_text(d))

    def test_torus_closures(self):
        for (a, b) in [(2, 5), (3, 4), (3, 5), (4, 7)]:
            d = braid_closure(torus_braid(a, b))
            assert determinant(d) == goeritz_det(to_pd_text(d))

    def test_sparse_rows_through_dense_oracle(self, random_knot_word):
        for _ in range(50):
            d = braid_closure(random_knot_word(max_strands=5, max_length=24))
            data = goeritz(d)
            rows = data.matrix
            n = len(rows)
            assert sorted(rows) == list(range(n))
            for i, row in rows.items():
                for j, v in row.items():
                    assert v != 0 and rows[j][i] == v, (i, j)
            dense = [[rows[i].get(j, 0) for j in range(n)] for i in range(n)]
            sig, det = _symmetric_sig_det(dense)
            assert signature_and_determinant(d) == (sig - data.correction, det)
            assert det == determinant(d)

    def test_rejects_split_diagram(self):
        two_trefoils = ("X 1 0 2 3 +\nX 3 2 4 5 +\nX 5 4 0 1 +\n"
                        "X 11 10 12 13 +\nX 13 12 14 15 +\nX 15 14 10 11 +\n")
        with pytest.raises(ValueError, match="connected"):
            goeritz(from_pd_text(two_trefoils))


def checkerboard_class_sizes(w: BraidWord) -> tuple[int, int]:
    """Face counts of the two checkerboard classes of the closure of a word
    using every generator.  The faces between strands i and i+1 are one
    per sigma_i letter, the regions beside the first and the last strand
    are one face each, and the colour alternates across every strand."""
    columns = [1] + [sum(abs(e) == i for e in w.letters) for i in range(1, w.strands)] + [1]
    return sum(columns[0::2]), sum(columns[1::2])


def sigma1_heavy_knot_word(rng, positive: bool) -> BraidWord:
    """A knot word on 3 or 4 strands using every generator, with about
    three sigma_1 letters in four."""
    while True:
        n = rng.choice((3, 4))
        letters = tuple(
            (1 if rng.random() < 0.75 else rng.randint(2, n - 1))
            * (1 if positive or rng.random() < 0.5 else -1)
            for _ in range(rng.randint(12, 24)))
        w = BraidWord(n, letters)
        if {abs(e) for e in letters} == set(range(1, n)) and cycle_count(w) == 1:
            return w


class TestGoeritzColourClass:
    """goeritz builds its matrix on the smaller checkerboard colour class."""

    def test_lopsided_word_uses_the_smaller_class(self):
        w = BraidWord(3, (1,) * 10 + (2, 2))
        small, large = sorted(checkerboard_class_sizes(w))
        assert (small, large) == (3, 11)
        assert len(goeritz(braid_closure(w)).matrix) == small - 1

    def test_tie(self):
        w = BraidWord(3, (1, 2) * 4)
        assert checkerboard_class_sizes(w) == (5, 5)
        assert len(goeritz(braid_closure(w)).matrix) == 4

    def test_random_sigma1_heavy_words(self, rng):
        for _ in range(20):
            w = sigma1_heavy_knot_word(rng, positive=False)
            d = braid_closure(w)
            assert len(goeritz(d).matrix) == min(checkerboard_class_sizes(w)) - 1
            assert determinant(d) == goeritz_det(to_pd_text(d))

    def test_signature_matches_seifert_form_on_sigma1_heavy_words(self, rng):
        for _ in range(10):
            w = sigma1_heavy_knot_word(rng, positive=True)
            sig, det = braid_seifert_sigma(w.letters)
            d = braid_closure(w)
            assert signature_and_determinant(d) == (sig, det), w.letters
            assert signature_and_determinant(mirror(d)) == (-sig, det), w.letters


def negated(w: BraidWord) -> BraidWord:
    """Every letter inverted: the closure is the mirror image."""
    return BraidWord(w.strands, tuple(-e for e in w.letters))


def closure_invariants(w: BraidWord) -> tuple[int, int]:
    """Signature and determinant of the knot closing w, by the diagram path."""
    return signature_and_determinant(braid_closure(w))


class TestClosureSignatureAndDeterminant:
    """The diagram path of a braid word (braid_closure, faces, goeritz)
    against the Seifert form oracle, which takes positive words and,
    through the mirror, negative ones; mixed-sign words against their
    mirror."""

    def assert_matches_seifert_form(self, w: BraidWord):
        sig, det = braid_seifert_sigma(w.letters)
        assert closure_invariants(w) == (sig, det), w.letters
        assert closure_invariants(negated(w)) == (-sig, det), w.letters

    def assert_mirror_pair(self, w: BraidWord):
        sig, det = closure_invariants(w)
        assert closure_invariants(negated(w)) == (-sig, det), w.letters

    def test_random_mixed_sign_knot_words(self, random_knot_word):
        for _ in range(60):
            self.assert_mirror_pair(random_knot_word(max_strands=6, max_length=30))

    def test_random_positive_knot_words(self, rng, random_word):
        count = 0
        while count < 20:
            n = rng.randint(2, 6)
            w = random_word(strands=n, length=rng.randint(n, 24), positive=True)
            if {abs(e) for e in w.letters} != set(range(1, n)) or cycle_count(w) != 1:
                continue
            count += 1
            self.assert_matches_seifert_form(w)

    def test_sigma1_heavy_words(self, rng):
        for _ in range(20):
            self.assert_mirror_pair(sigma1_heavy_knot_word(rng, positive=False))
        for _ in range(10):
            self.assert_matches_seifert_form(sigma1_heavy_knot_word(rng, positive=True))

    def test_lopsided_and_tie_words(self):
        lopsided = BraidWord(3, (1,) * 11 + (2,) * 3)
        tie = BraidWord(3, (1, 2) * 4)
        assert sorted(checkerboard_class_sizes(lopsided)) == [4, 12]
        assert checkerboard_class_sizes(tie) == (5, 5)
        for w in (lopsided, tie):
            self.assert_matches_seifert_form(w)

    def test_grid_quotient_words(self):
        """Every candidate knot slope word of certify --grid 2..9 3..9 and
        its partner, with the word genus against the diagram's."""
        for p, q, r, word, partner in grid_knot_slope_words():
            for w in (word, partner):
                assert closure_invariants(w) == braid_seifert_sigma(w.letters)
                assert _positive_word_genus(w) == positive_genus(braid_closure(w)), (p, q, r)

    def test_unknot(self):
        assert closure_invariants(BraidWord(1, ())) == (0, 1)
        assert closure_invariants(BraidWord(2, (1,))) == (0, 1)

    def test_rejects_word_missing_a_generator(self):
        """A word missing a generator closes to a split link."""
        with pytest.raises(ValueError, match="single-component"):
            closure_invariants(BraidWord(4, (1, 1, 1, 3, 3, 3)))

    def test_rejects_links(self):
        for w in (torus_braid(2, 4), BraidWord(3, (1,) * 10 + (2, 2)), BraidWord(4, (1, 2, 3, 1))):
            assert cycle_count(w) > 1
            with pytest.raises(ValueError, match="single-component"):
                closure_invariants(w)


def plain_quotient_word(block: int, middle: int, tail: int) -> BraidWord:
    """A^block B^middle s1^tail, A = s2 s3 s1 s2 and B = s2 s3^2 s2, as written."""
    return BraidWord(4, (2, 3, 1, 2) * block + (2, 3, 3, 2) * middle + (1,) * tail)


class TestClosureTailInvariants:
    """The streaming pass over the quotient word, every block power and
    tail against the diagram path on the whole word."""

    def test_box_against_the_whole_word(self):
        """A^j B^m s1^t for j in 1..15, m in 1..11, t in 2..29: every knot
        closure agrees with the diagram path, one pass per (j, m) for all
        its knot tails, and every link tail raises the knot ValueError."""
        for middle in range(1, 12):
            for block in range(1, 16):
                words = {t: plain_quotient_word(block, middle, t) for t in range(2, 30)}
                knots = [t for t, w in words.items() if cycle_count(w) == 1]
                expected = [closure_invariants(words[t]) for t in knots]
                if knots:
                    assert _quotient_tail_invariants([block], middle, knots) == [expected]
                for t in words.keys() - knots:
                    with pytest.raises(ValueError, match="knot"):
                        _quotient_tail_invariants([block], middle, [t])

    def test_certificate_tails(self):
        """Every knot slope of every cell of certify --grid 2..15 3..15, of
        the cert-large cells (21,21) and (51,51), and of the input-limit
        cells (165,165), (2,331) and (329,3), and its partner, from one
        pass per cell, against the diagram path on quotient_braid's
        spelling of each word; the even slope above the shortest is a link
        tail.  The long words reuse and add frontier slots the most."""
        box = [(p, q) for p in range(2, 16) for q in range(3, 16, 2)]
        for p, q in box + [(21, 21), (51, 51), (165, 165), (2, 331), (329, 3)]:
            family = _pretzel_family(p, q)
            block, middle, _ = family.powers(0)
            tails = [family.powers(r)[2] for r in family.slopes if r % 2]
            got = _quotient_tail_invariants([block - 2, block], middle, tails)
            for power, values in zip((block - 2, block), got):
                for t, value in zip(tails, values):
                    w = quotient_braid(power, middle, t)
                    assert value == closure_invariants(w), (p, q, t)
            with pytest.raises(ValueError, match="knot"):
                _quotient_tail_invariants([block - 2, block], middle, [tails[0] + 1])

    @staticmethod
    def _whole(block, middle, tails):
        return [closure_invariants(plain_quotient_word(block, middle, k))
                for k in tails]

    @staticmethod
    def _counted_eliminations(monkeypatch) -> list:
        import knotcert.diagram
        calls = []
        monkeypatch.setattr(knotcert.diagram, "symmetric_inertia",
                            logged(calls, knotcert.diagram.symmetric_inertia))
        return calls

    @pytest.mark.parametrize("tails", [
        [6], [0], [4, 0, 10], [2, 8], [10, 2, 6, 2, 10, 0], [4, 4, 4],
    ], ids=["single", "zero", "k0-inside", "k0-first", "unsorted-repeated", "repeated"])
    def test_tails_away_from_the_certificate(self, tails, monkeypatch):
        """Tail lists no certificate asks for, shifted to the odd parity
        that closes to a knot, at several block powers of one pass: each
        closing finishes with the pass's own Bareiss step, whatever the
        tails, and no symmetric_inertia call is made."""
        calls = self._counted_eliminations(monkeypatch)
        shifted = [k + 1 for k in tails]
        for powers, middle in (([3], 5), ([1], 1), ([1, 5, 7], 2), ([3, 9], 3)):
            expected = [self._whole(j, middle, shifted) for j in powers]
            calls.clear()
            assert _quotient_tail_invariants(powers, middle, shifted) == expected, (powers, middle)
            assert calls == [], (powers, middle)

    def test_odd_white_with_zero_tails(self, monkeypatch):
        """At tails 0 and 1 the odd columns are the smaller class, which
        goeritz takes as white on the diagram; the pass keeps the even
        class and agrees at the knot tail, however often it is asked for,
        with no symmetric_inertia call.  Tail 0 closes to a link."""
        expected = self._whole(3, 3, [1])
        calls = self._counted_eliminations(monkeypatch)
        assert _quotient_tail_invariants([3], 3, [1, 1, 1]) == [expected * 3]
        assert calls == []
        with pytest.raises(ValueError, match="knot"):
            _quotient_tail_invariants([3], 3, [0])

    def test_links_at_every_tail(self):
        """An even block power closes to a link at every tail, where
        det M' can be 0: a link ValueError, never an AssertionError."""
        for powers, middle in (([2], 2), ([4], 2), ([2], 4), ([2, 4], 1)):
            for tails in ([0], [1], [0, 2], [1, 5, 3], [2, 0, 2]):
                with pytest.raises(ValueError, match="knot"):
                    _quotient_tail_invariants(powers, middle, tails)

    @pytest.mark.parametrize("singular", [True, False], ids=["singular", "even-determinant"])
    def test_guards_of_the_elimination(self, singular):
        """The closing's two guards on hand frontiers, which no knot tail
        reaches: when det M' = 0 every tail k gets the sigma and det of
        M_0, whose M' is the singular [[1, 1], [1, 1]], and an even knot
        determinant, det M_k = 2 + 2k here, is an AssertionError.  Each
        frontier is D times M_0 for the block-diagonal [D] + M_0 with its
        first pivot eliminated, at D = -3 and D = 5, so sigma is read
        through both signs of the frontier's scale."""
        m = [[1, 1, 1], [1, 1, 0], [1, 0, 0]] if singular else [[2, 2], [2, 3]]
        tail, tails = len(m) - 1, [1, 3, 11]
        for scale in (-3, 5):
            f = [[scale * v for v in row] for row in m]
            live, sign = list(range(len(m))), 1 if scale > 0 else -1
            if not singular:
                with pytest.raises(AssertionError, match="even determinant"):
                    _frontier_tails(f, live, scale, sign, tail, tails)
                continue
            expected = []
            for k in tails:
                full = [[scale] + [0] * len(m)] + [[0] + row for row in m]
                full[-1][-1] += k
                sig, det = symmetric_inertia(
                    {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(full)})
                expected.append((sig, abs(det)))
            assert _frontier_tails(f, live, scale, sign, tail, tails) == expected
            assert expected == expected[:1] * 3, scale


def union_find_classes(pairs) -> int:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(x) for x in parent})


def relabelled_pd(rng, diagrams) -> str:
    """PD text of the diagrams side by side, every arc given a distinct
    random label from a wide range."""
    count = sum(len(d.crossings) * 2 for d in diagrams)
    labels = iter(rng.sample(range(-10**6, 10**6), count))
    lines = []
    for d in diagrams:
        relabel = dict(zip({a for c in d.crossings for a in c.arcs}, labels))
        for c in d.crossings:
            arcs = " ".join(str(relabel[a]) for a in c.arcs)
            lines.append(f"X {arcs} {'+' if c.sign == 1 else '-'}")
    return "\n".join(lines) + "\n"


class TestCycleCounts:
    """component_count and seifert_circle_count against a union-find over
    the same slot pairs, and the piece count against one over each
    crossing's arcs, on parsed PD codes."""

    def test_against_union_find(self, rng, random_knot_word, random_word):
        for _ in range(30):
            pieces = [braid_closure(random_knot_word()) for _ in range(rng.randint(1, 3))]
            twists = tuple(rng.choice((-3, -2, -1, 1, 2, 4)) for _ in range(3))
            pieces.append(pretzel_diagram(twists))
            w = random_word(strands=4, length=8)
            if {abs(e) for e in w.letters} == {1, 2, 3}:
                pieces.append(braid_closure(w))
            parsed = from_pd_text(relabelled_pd(rng, pieces))
            d = LinkDiagram(parsed.crossings, rng.randint(0, 2))
            strands = union_find_classes(
                pair for c in d.crossings
                for pair in ((c.arcs[0], c.arcs[2]), (c.arcs[1], c.arcs[3])))
            circles = union_find_classes(
                pair for c in d.crossings
                for pair in (((c.arcs[0], c.arcs[3]), (c.arcs[1], c.arcs[2])) if c.sign == 1
                             else ((c.arcs[0], c.arcs[1]), (c.arcs[2], c.arcs[3]))))
            assert component_count(d) == strands + d.free_loops
            assert seifert_circle_count(d) == circles + d.free_loops
            assert component_count(d) == sum(component_count(p) for p in pieces) + d.free_loops
            assert _piece_count(d) == len(pieces) == union_find_classes(
                (c.arcs[0], c.arcs[k]) for c in d.crossings for k in (1, 2, 3))

    def test_free_loops_only(self):
        for k in (0, 1, 3):
            d = LinkDiagram((), k)
            assert component_count(d) == seifert_circle_count(d) == k


class TestSeifertFormOracle:
    """Second independent route for positive closures: the symmetrized
    Seifert form of the fiber surface, built straight from the word."""

    def test_torus_subset(self):
        for (a, b) in [(2, 7), (3, 5), (4, 5), (5, 4)]:
            letters = tuple(range(1, a)) * b
            sig, det = braid_seifert_sigma(letters)
            d = braid_closure(BraidWord(a, letters))
            assert (sig, det) == (signature_and_determinant(d)[0], determinant(d))

    def test_connected_sums(self):
        sig, det = braid_seifert_sigma((1, 1, 1, 2, 2, 2))
        assert (sig, det) == (-4, 9)
        sig, det = braid_seifert_sigma((1, 1, 1, 2, 2, 2, 2, 2))
        assert (sig, det) == (-6, 15)

    def test_quotient_family_and_partners(self):
        # the r = -3 and r = -1 columns carry sigma jumps of 6 across the
        # tangle move; both engines must agree on them exactly
        block = (2, 3, 1, 2)
        for r in (-7, -3, -1, 1, 7):
            tail = 12 + r
            for power in (3, 1):
                letters = block * power + (2, 3, 3, 2) * 3 + (1,) * tail
                sig, det = braid_seifert_sigma(letters)
                d = braid_closure(BraidWord(4, letters))
                assert (sig, det) == (signature_and_determinant(d)[0], determinant(d)), (r, power)

    def test_random_positive_knot_words(self, rng, random_word):
        count = 0
        while count < 8:
            w = random_word(strands=4, length=rng.randint(6, 14), positive=True)
            if {abs(e) for e in w.letters} != {1, 2, 3}:
                continue
            if cycle_count(w) != 1:
                continue
            count += 1
            sig, det = braid_seifert_sigma(w.letters)
            d = braid_closure(w)
            assert (sig, det) == (signature_and_determinant(d)[0], determinant(d))

    def test_rejects_non_positive_words(self):
        with pytest.raises(AssertionError):
            braid_seifert_sigma((1, -2, 1))


class TestPDText:
    def test_round_trip_preserves_invariants(self, random_knot_word):
        for _ in range(10):
            d = braid_closure(random_knot_word())
            d2 = from_pd_text(to_pd_text(d))
            assert writhe(d2) == writhe(d)
            assert determinant(d2) == determinant(d)
            assert signature_and_determinant(d2)[0] == signature_and_determinant(d)[0]

    def test_round_trip_exact_text(self):
        text = to_pd_text(RIGHT_TREFOIL)
        assert to_pd_text(from_pd_text(text)) == text

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            from_pd_text("X 0 1 2\n")

    def test_parse_rejects_non_planar_code(self):
        with pytest.raises(ValueError, match="planar"):
            from_pd_text("X 1 2 3 4 +\nX 3 1 4 2 +\n")

    def test_parse_accepts_split_diagram(self):
        text = to_pd_text(RIGHT_TREFOIL)
        shifted = "".join(
            "X " + " ".join(str(int(a) + 100) for a in line.split()[1:5])
            + " " + line.split()[5] + "\n" for line in text.splitlines())
        d = from_pd_text(text + shifted)
        assert determinant(d) == 0

    def test_free_loops_have_no_pd(self):
        with pytest.raises(ValueError):
            to_pd_text(braid_closure(BraidWord(1, ())))

    def test_parse_rejects_inconsistent_orientation(self):
        # Planar, but arc 0 enters crossing 1 at both of its ends.
        with pytest.raises(ValueError, match="oriented"):
            from_pd_text("X 0 0 3 2 +\nX 3 1 1 2 +\n")

    def test_random_pairings_raise_only_value_error(self, rng):
        """Random arc pairings of 1-4 crossings: parsing and every invariant
        may reject a code with ValueError, and may raise nothing else."""
        checks = (determinant, signature_and_determinant, component_count,
                  seifert_circle_count, positive_genus)
        parsed = 0
        for _ in range(2000):
            n = rng.randint(1, 4)
            slots = list(range(4 * n))
            rng.shuffle(slots)
            arcs = [0] * (4 * n)
            for label in range(2 * n):
                arcs[slots[2 * label]] = arcs[slots[2 * label + 1]] = label
            text = "".join(f"X {' '.join(map(str, arcs[4 * k:4 * k + 4]))} "
                           f"{rng.choice('+-')}\n" for k in range(n))
            try:
                d = from_pd_text(text)
            except ValueError:
                continue
            parsed += 1
            for check in checks:
                try:
                    check(d)
                except ValueError:
                    pass
        assert parsed > 100


class TestSignatureDomain:
    def test_rejects_links(self):
        with pytest.raises(ValueError):
            signature_and_determinant(braid_closure(torus_braid(2, 4)))

    def test_even_determinant_is_an_internal_error(self, monkeypatch):
        """A knot's determinant is odd, so an even one from the
        elimination is an AssertionError, not a result."""
        import knotcert.diagram
        monkeypatch.setattr(knotcert.diagram, "symmetric_inertia", lambda rows: (0, 4))
        with pytest.raises(AssertionError, match="even determinant"):
            signature_and_determinant(braid_closure(torus_braid(2, 3)))
