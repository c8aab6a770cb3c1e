"""Braid engine tests: parsing, group laws, normal form, family words.

The rewriting tests apply random sequences of relation moves (free pair
insertion/deletion, adjacent-generator rotation, far commutation) and
check that the Garside normal form never changes.
"""

import enum
import random

import oracles
import pytest

from knotcert import (
    BraidWord,
    Crossing,
    LinkDiagram,
    braid_closure,
    braids_equal,
    component_count,
    contains_full_twist,
    determinant,
    exclude_montesinos_knot,
    exclude_montesinos_link_two_components,
    exclude_seifert_link_two_components,
    exclude_torus_knot,
    exponent_sum,
    full_twist,
    homfly,
    normal_form,
    parse_braid,
    permutation_of,
    pretzel_diagram,
    pretzel_quotient_braid,
    quotient_braid,
    quotient_knot_genus,
    torus_alexander,
    torus_braid,
    torus_det_4x,
    torus_genus,
    torus_knot_genus_conflict,
)
from knotcert.braid import MAX_INPUT_LETTERS, MAX_INPUT_STRANDS, PermutationBraid, _shown

from conftest import cycle_count


def legal_rewrite(rng: random.Random, letters: list[int], strands: int,
                  max_length: int = 60) -> list[int]:
    """Apply one relation-preserving move; fall back to pair insertion."""
    moves = rng.sample(("insert", "delete", "rotate", "commute"), 4)
    for move in moves:
        if move == "insert" and len(letters) + 2 <= max_length:
            e = rng.choice(range(1, strands))
            pos = rng.randint(0, len(letters))
            return letters[:pos] + [e, -e] + letters[pos:]
        if move == "delete":
            spots = [i for i in range(len(letters) - 1)
                     if letters[i] == -letters[i + 1]]
            if spots:
                i = rng.choice(spots)
                return letters[:i] + letters[i + 2:]
        if move == "rotate":
            spots = [i for i in range(len(letters) - 2)
                     if letters[i] == letters[i + 2]
                     and letters[i] * letters[i + 1] > 0
                     and abs(abs(letters[i]) - abs(letters[i + 1])) == 1]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                return letters[:i] + [b, a, b] + letters[i + 3:]
        if move == "commute":
            spots = [i for i in range(len(letters) - 1)
                     if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                return letters[:i] + [b, a] + letters[i + 2:]
    e = rng.choice(range(1, strands))
    return letters + [e, -e]


class TestParsing:
    def test_round_trip(self, random_word):
        for _ in range(20):
            w = random_word(strands=4, length=12)
            assert parse_braid(str(w), 4) == w

    def test_rejects_non_integer_token(self):
        with pytest.raises(ValueError, match="'x'"):
            parse_braid("1 x 2", 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="0"):
            parse_braid("1 0", 3)

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(ValueError, match="3"):
            parse_braid("1 3", 3)

    def test_input_limits(self):
        word = " ".join(["1"] * MAX_INPUT_LETTERS)
        assert len(parse_braid(word, MAX_INPUT_STRANDS).letters) == MAX_INPUT_LETTERS
        with pytest.raises(ValueError, match="input limit"):
            parse_braid("1", MAX_INPUT_STRANDS + 1)
        with pytest.raises(ValueError, match="input limit"):
            parse_braid(word + " 1", 2)

    def test_parse_inverts_str(self, rng):
        alphabet = (1, 2, 3, -1, -2, -3)
        words = [(), alphabet * 3 + (1, -1), (-3,) * 20]
        words += [tuple(rng.choices(alphabet, k=rng.randint(0, 20))) for _ in range(200)]
        for letters in words:
            w = BraidWord(4, letters)
            assert parse_braid(str(w), 4) == w


class TestWordLaws:
    def test_strand_count_must_be_positive(self):
        with pytest.raises(ValueError):
            BraidWord(0, ())
        with pytest.raises(ValueError):
            BraidWord(2.0, (1,))
        with pytest.raises(ValueError):
            BraidWord(True, ())
        with pytest.raises(ValueError):
            BraidWord(3, (True, 2))

    class Letter(enum.IntEnum):
        S2 = 2

    @pytest.mark.parametrize("bad, message", [
        (0, "bad braid letter 0: letters are nonzero integers"),
        (True, "bad braid letter True: letters are nonzero integers"),
        (1.5, "bad braid letter 1.5: letters are nonzero integers"),
        ("1", "bad braid letter '1': letters are nonzero integers"),
        (4, "bad braid letter 4: needs generator index <= 3 on 4 strands"),
        (-4, "bad braid letter -4: needs generator index <= 3 on 4 strands"),
        (10 ** 5000, "bad braid letter <16610-bit integer>: needs generator index <= 3 "
                     "on 4 strands"),
    ], ids=["zero", "bool", "float", "str", "n", "minus-n", "huge"])
    def test_bad_letter_message(self, bad, message):
        """The first bad letter is named, whichever check refuses it; int
        subclasses other than bool pass, and any iterable of letters does."""
        with pytest.raises(ValueError) as exc:
            BraidWord(4, (1, -3, bad, 0, 5))
        assert str(exc.value) == message
        w = BraidWord(4, [1, self.Letter.S2, -3])
        assert w.letters == (1, 2, -3) and type(w.letters[1]) is self.Letter
        assert not w.is_positive and BraidWord(4, (self.Letter.S2, 3)).is_positive
        assert BraidWord(4).is_positive

    def test_product_requires_matching_strands(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1,)) * BraidWord(4, (1,))

    def test_inverse_reverses_and_negates(self):
        w = BraidWord(4, (1, -2, 3))
        assert w.inverse().letters == (-3, 2, -1)
        assert (w * w.inverse()).strands == 4

    def test_permutation_is_homomorphism(self, random_word):
        for _ in range(30):
            u = random_word(strands=4, length=8)
            v = random_word(strands=4, length=8)
            pu, pv = permutation_of(u).mapping, permutation_of(v).mapping
            assert permutation_of(u * v).mapping == tuple(pv[x] for x in pu)

    def test_exponent_sum_additive(self, random_word):
        for _ in range(20):
            u = random_word(strands=4, length=10)
            v = random_word(strands=4, length=10)
            assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)

    def test_exponent_sum_conjugation_invariant(self, random_word):
        for _ in range(20):
            w = random_word(strands=4, length=10)
            g = random_word(strands=4, length=6)
            assert exponent_sum(g * w * g.inverse()) == exponent_sum(w)


class TestNormalForm:
    def test_identity_word(self):
        nf = normal_form(BraidWord(4, ()))
        assert nf.infimum == 0
        assert nf.canonical_length == 0

    def test_half_twist_squared_is_delta_power_two(self):
        nf = normal_form(full_twist(4))
        assert nf.infimum == 2
        assert nf.canonical_length == 0

    def test_to_word_of_a_positive_infimum(self):
        assert normal_form(full_twist(3)).to_word() == full_twist(3)

    def test_to_word_round_trips(self, random_word):
        for _ in range(15):
            w = random_word(strands=4, length=12)
            nf = normal_form(w)
            assert braids_equal(nf.to_word(), w)
            assert normal_form(nf.to_word()) == nf

    def test_free_reduction(self, random_word):
        for _ in range(10):
            w = random_word(strands=4, length=10)
            assert braids_equal(w * w.inverse(), BraidWord(4, ()))

    def test_invariant_under_random_rewriting(self, rng):
        for strands in (2, 3, 4):
            start = [rng.choice(range(1, strands)) * rng.choice((1, -1))
                     for _ in range(12)]
            reference = normal_form(BraidWord(strands, tuple(start)))
            letters = list(start)
            for _ in range(60):
                letters = legal_rewrite(rng, letters, strands)
                assert normal_form(BraidWord(strands, tuple(letters))) == reference

    def test_factors_are_left_weighted_permutation_braids(self, rng):
        def starts(m):
            return {i for i in range(len(m) - 1) if m[i] > m[i + 1]}

        def finishes(m):
            # i finishes m when the strand ending at i started right of the one ending at i+1
            return {i for i in range(len(m) - 1) if m.index(i) > m.index(i + 1)}

        for strands in range(2, 7):
            for share in (0.0, 0.25, 0.5, 0.75, 1.0):
                letters = tuple(rng.randint(1, strands - 1) * (-1 if rng.random() < share else 1)
                                for _ in range(rng.randint(0, 30)))
                nf = normal_form(BraidWord(strands, letters))
                for f in nf.factors:
                    assert f.mapping != tuple(range(strands))
                    assert f.mapping != tuple(range(strands - 1, -1, -1))
                for a, b in zip(nf.factors, nf.factors[1:]):
                    # left-weighted: the finish set of a must cover the start set of b
                    assert starts(b.mapping) <= finishes(a.mapping)

    @pytest.mark.parametrize("strands, letters, infimum, mappings", [
        (2, (-1, -1, 1), -1, []),  # D s1^-1 is the identity on two strands
        (2, (1, 1, 1, -1), 2, []),
        (3, (1, 2, 1, 2, 1, 2, -1), 1, [(2, 0, 1)]),
        (3, (-1, -2, 2, 1, -2), -1, [(1, 2, 0)]),
        (4, (1, -3, 2, -1, 3, 3, -2, 1), -1, [(1, 2, 3, 0), (2, 0, 1, 3), (1, 3, 0, 2)]),
    ])
    def test_pinned_normal_forms(self, strands, letters, infimum, mappings):
        nf = normal_form(BraidWord(strands, letters))
        assert nf.infimum == infimum
        assert [f.mapping for f in nf.factors] == mappings


class TestNormalFormAgainstOracle:
    """Run-grouped, in-place left weighting against the letter-at-a-time
    tuple oracle of tests/oracles.py."""

    def check(self, strands: int, letters: list[int]):
        nf = normal_form(BraidWord(strands, tuple(letters)))
        assert (nf.infimum, tuple(f.mapping for f in nf.factors)) == \
            oracles.normal_form(strands, letters)

    def test_mixed_words_of_benchmark_shape(self, rng):
        for strands, length in ((4, 200), (5, 170), (6, 140)) * 3:
            self.check(strands, [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                 for _ in range(length)])

    def test_many_strands_and_negative_letters(self, rng):
        for strands in (20, 31, 40):
            for share in (0.5, 0.8):
                self.check(strands, [rng.randint(1, strands - 1) * (-1 if rng.random() < share else 1)
                                     for _ in range(rng.randint(30, 60))])

    def test_single_sign_words(self, rng):
        for strands in range(2, 9):
            for sign in (1, -1):
                for _ in range(3):
                    self.check(strands, [sign * rng.randint(1, strands - 1)
                                         for _ in range(rng.randint(1, 40))])

    @pytest.mark.parametrize("strands, letters", [
        (1, []), (2, []), (4, []),
        (2, [1]), (2, [-1]), (2, [1, 1]), (2, [-1, -1]), (2, [1, -1, -1, 1]),
        (4, [2, 2]), (4, [-2, -2]), (4, [1, 3, 3, 1]), (4, [-1, -3, -3, -1]),
        (3, [1, 2, 1, 2]), (3, [-1, -2, -1, -2]), (3, [2, 1, 2, 1, 2, 1]),
        (3, [1, 2, 1]), (3, [-1, -2, -1]), (3, [-1, -2, -1, 1]), (3, [1, 2, 1, -2, -1, -2]),
    ])
    def test_short_words_and_runs_that_must_split(self, strands, letters):
        self.check(strands, letters)

    def test_long_negative_word_on_many_strands(self, rng):
        self.check(40, [rng.randint(1, 39) * (-1 if rng.random() < 0.8 else 1)
                        for _ in range(150)])


class TestFullTwist:
    def test_central(self, random_word):
        for strands in (2, 3, 4):
            delta2 = full_twist(strands)
            for _ in range(8):
                w = random_word(strands=strands, length=10)
                assert braids_equal(delta2 * w, w * delta2)

    def test_containment_anchors(self):
        assert contains_full_twist(BraidWord(2, (1, 1, 1)))
        assert not contains_full_twist(BraidWord(2, (1,)))
        assert contains_full_twist(full_twist(4))
        assert not contains_full_twist(torus_braid(4, 2))

    def test_input_limit(self):
        """n(n-1) letters: 45 strands build 1,980, 46 would need 2,070."""
        assert len(full_twist(45)) == 1980
        with pytest.raises(ValueError, match="2070 letters, over the input limit"):
            full_twist(46)
        for n in (2.5, True, "4"):
            with pytest.raises(ValueError, match="must be integers"):
                full_twist(n)

    def test_rejects_non_positive_words(self):
        with pytest.raises(ValueError):
            contains_full_twist(BraidWord(3, (1, -2)))

    def test_multiplying_by_full_twist_sets_containment(self, random_word):
        for _ in range(8):
            w = random_word(strands=4, length=10, positive=True)
            assert contains_full_twist(full_twist(4) * w)


def delta_form_odd(p: int, q: int, r: int) -> BraidWord:
    block = (2, 3, 1, 2)
    middle = (2, 3, 3, 2)
    tail = 2 * p + 2 * q + r - 4
    return full_twist(4) * BraidWord(4, block * (q - 2) + middle * p + (1,) * tail)


def delta_form_even(n: int, q: int, r: int) -> BraidWord:
    block = (2, 3, 1, 2)
    middle = (2, 3, 3, 2)
    tail = 2 * (2 * n - q) + r - 4
    return full_twist(4) * BraidWord(4, block * (q - 2) + middle * (2 * n) + (1,) * tail)


class TestFamilyWords:
    def test_odd_word_shape(self):
        w = pretzel_quotient_braid(3, 3, -7)
        assert w.strands == 4
        assert len(w) == 29
        assert w.is_positive

    def test_odd_length_formula(self):
        for (p, q, r) in [(3, 3, 1), (3, 5, -7), (5, 3, 4), (7, 7, 0)]:
            assert len(pretzel_quotient_braid(p, q, r)) == 6 * p + 6 * q + r

    def test_odd_closure_is_knot_for_odd_r(self):
        for r in (-7, -3, 1, 5):
            assert cycle_count(pretzel_quotient_braid(3, 3, r)) == 1

    def test_odd_validation(self):
        for first in (1, True):
            with pytest.raises(ValueError):
                pretzel_quotient_braid(first, 3, 0)
        with pytest.raises(ValueError):
            pretzel_quotient_braid(3, 1, 0)
        for r in (-13, -39):
            with pytest.raises(ValueError, match=f"slope {r} gives the quotient word of P"):
                pretzel_quotient_braid(3, 3, r)

    def test_odd_word_is_the_quotient_word(self):
        for (p, q, r) in [(3, 3, -7), (3, 5, 3), (5, 3, -2), (7, 7, 0)]:
            assert pretzel_quotient_braid(p, q, r) == quotient_braid(q, p, 2 * p + 2 * q + r)

    def test_quotient_word_closes_like_the_plain_word(self):
        """The spelling quotient_braid returns closes to the link of the
        plain word, for even block powers as well as odd ones."""
        block = (2, 3, 1, 2)
        for k in range(2, 10):
            for m in range(1, 4):
                for t in range(4, 10):
                    plain = BraidWord(4, block * k + (2, 3, 3, 2) * m + (1,) * t)
                    got = [(component_count(d), determinant(d), homfly(v)) for v in
                           (quotient_braid(k, m, t), plain) for d in [braid_closure(v)]]
                    assert got[0] == got[1], (k, m, t)

    def test_quotient_word_validation(self):
        for args in [(0, 3, 5), (3, 0, 5), (3, 3, -1)]:
            with pytest.raises(ValueError):
                quotient_braid(*args)
        for args in [(3, 3, 1.5), (3, 3, "1"), (True, 3, 5), (3, 3.0, 5), (3, 3, "x" * 10**6)]:
            with pytest.raises(ValueError, match="must be integers") as exc:
                quotient_braid(*args)
            assert len(str(exc.value)) < 200

    def test_quotient_word_input_limit(self):
        """Four letters per block and middle factor, one per tail letter:
        exactly MAX_INPUT_LETTERS builds, one more is refused."""
        for block, middle in ((1, 1), (3, 2), (40, 60)):
            tail = MAX_INPUT_LETTERS - 4 * (block + middle)
            assert len(quotient_braid(block, middle, tail)) == MAX_INPUT_LETTERS
            with pytest.raises(ValueError, match=f"{MAX_INPUT_LETTERS + 1} letters, over the input limit"):
                quotient_braid(block, middle, tail + 1)

    def test_even_word_shape(self):
        w = pretzel_quotient_braid(2, 3, 13)
        assert w.strands == 4
        assert len(w) == 31
        assert w.is_positive

    def test_even_closure_is_knot_for_odd_r(self):
        for (n, q) in [(1, 3), (2, 3), (1, 5)]:
            for r in (4 * q - 1, 4 * q + 1):
                assert cycle_count(pretzel_quotient_braid(2 * n, q, r)) == 1

    def test_even_validation(self):
        with pytest.raises(ValueError):
            pretzel_quotient_braid(0, 3, 13)
        with pytest.raises(ValueError):
            pretzel_quotient_braid(2, 4, 13)
        with pytest.raises(ValueError, match=r"slope 1 gives the quotient word of P\(2,5,5\)"):
            pretzel_quotient_braid(2, 5, 1)

    def test_odd_equals_full_twist_form(self):
        # sampled here; the full acceptance grid runs in test_acceptance
        for (p, q, r) in [(3, 3, -7), (3, 5, 3), (5, 3, -2), (5, 5, 7)]:
            assert braids_equal(pretzel_quotient_braid(p, q, r), delta_form_odd(p, q, r))

    def test_even_equals_full_twist_form(self):
        for (n, q, r) in [(1, 3, 11), (1, 3, 13), (2, 5, 19)]:
            assert braids_equal(pretzel_quotient_braid(2 * n, q, r), delta_form_even(n, q, r))

    def test_family_words_contain_full_twist(self):
        assert contains_full_twist(pretzel_quotient_braid(3, 3, -7))
        assert contains_full_twist(pretzel_quotient_braid(2, 3, 13))

    def test_plain_spelling_hides_the_twist(self):
        # conjugate, not equal: the raw concatenation has infimum < 2
        raw = BraidWord(4, (2, 3, 1, 2) * 3 + (2, 3, 3, 2) * 3 + (1,) * 5)
        family = pretzel_quotient_braid(3, 3, -7)
        assert not contains_full_twist(raw)
        assert not braids_equal(raw, family)
        assert len(raw) == len(family)
        assert permutation_of(raw) == permutation_of(family)


class TestTorusBraid:
    def test_letters(self):
        assert torus_braid(2, 3).letters == (1, 1, 1)
        assert torus_braid(4, 2).letters == (1, 2, 3, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_braid(1, 3)
        with pytest.raises(ValueError):
            torus_braid(3, 0)

    def test_input_limit(self):
        """(a-1)b letters: exactly MAX_INPUT_LETTERS builds, one more is refused."""
        assert len(torus_braid(2, MAX_INPUT_LETTERS)) == MAX_INPUT_LETTERS
        with pytest.raises(ValueError, match=f"{MAX_INPUT_LETTERS + 1} letters, over the input"):
            torus_braid(2, MAX_INPUT_LETTERS + 1)
        for a, b in ((2.5, 3), (3, 2.0), (True, 3)):
            with pytest.raises(ValueError, match="must be integers"):
                torus_braid(a, b)

    def test_closure_component_count_is_gcd(self):
        import math
        for a in (2, 3, 4):
            for b in (1, 2, 3, 4, 6):
                assert cycle_count(torus_braid(a, b)) == math.gcd(a, b)


class TestPermutationBraid:
    def test_reduced_word_rebuilds(self, rng):
        for _ in range(10):
            img = list(range(5))
            rng.shuffle(img)
            p = PermutationBraid(tuple(img))
            rebuilt = permutation_of(BraidWord(5, tuple(i + 1 for i in p.reduced_word())))
            assert rebuilt == p
            inversions = sum(a > b for k, a in enumerate(img) for b in img[k + 1:])
            assert len(p.reduced_word()) == inversions

    def test_reduced_word_matches_oracle(self, rng):
        mappings = []
        for strands in (1, 2, 3, 5, 8, 30):
            for _ in range(8):
                img = list(range(strands))
                rng.shuffle(img)
                mappings.append(tuple(img))
        near_delta = list(range(255, -1, -1))  # one crossing short of D on 256 strands
        near_delta[100], near_delta[101] = near_delta[101], near_delta[100]
        mappings.append(tuple(near_delta))
        for m in mappings:
            assert PermutationBraid(m).reduced_word() == oracles.reduced_word(m)


class TestEdgeRule:
    """Every message names an outside value through braid._shown: short,
    whatever the value.  The big ints here cost nothing to build."""

    class BadRepr:
        def __repr__(self):
            raise RuntimeError("no repr")

    @pytest.mark.parametrize("value, shown", [
        (3, "3"), (-2 ** 128 + 1, str(-2 ** 128 + 1)), (2 ** 128, "<129-bit integer>"),
        (-10 ** 5000, "<negative 16610-bit integer>"), ("x" * 10 ** 6, None),
        ({"p": 3}, "an object"), ([3, 3], "an array"), (object(), "nothing"),
        ((10 ** 5000, 1), None), (BadRepr(), None), (1.5, "1.5"), (True, "True"),
    ], ids=["int", "128-bit", "129-bit", "huge-negative", "long-str", "dict", "list",
            "absent", "tuple-of-huge", "bad-repr", "float", "bool"])
    def test_shown_is_short_and_never_raises(self, value, shown):
        text = _shown(value)
        assert len(text) < 60
        assert shown is None or text == shown

    @pytest.mark.parametrize("call", [
        lambda: BraidWord("x" * 10 ** 6),
        lambda: BraidWord(3, (10 ** 5000,)),
        lambda: exclude_montesinos_knot("x" * 10 ** 6, 2),
        lambda: Crossing((0, 1, 2, 3), 10 ** 4000),
        lambda: exclude_torus_knot(3, 3, 10 ** 5000 + 1),
        lambda: pretzel_diagram([True, 3, 3]),
        lambda: torus_genus(2.5, 3),
        lambda: quotient_knot_genus("3", 3, 1),
        lambda: torus_alexander(2, 2001),
        lambda: torus_det_4x(667),
        lambda: exclude_montesinos_link_two_components(1.5, "x"),
        lambda: exclude_seifert_link_two_components(3, None),
        lambda: exclude_montesinos_link_two_components(1, 10 ** 5000),
        lambda: exclude_montesinos_link_two_components(10 ** 5000, 3),
        lambda: exclude_seifert_link_two_components(1, 10 ** 5000),
        lambda: exclude_seifert_link_two_components(10 ** 5000, 3),
        lambda: parse_braid("1", "3"),
        lambda: torus_knot_genus_conflict(5, "x"),
        lambda: torus_knot_genus_conflict(5, 1.5),
        lambda: torus_knot_genus_conflict(5, True),
        lambda: torus_knot_genus_conflict(2.5, 3),
        lambda: quotient_knot_genus(10 ** 5000, 3, 1),
        lambda: LinkDiagram((), free_loops=1.5),
        lambda: LinkDiagram((), free_loops="x"),
        lambda: Crossing(5, 1),
        lambda: Crossing((0, 1, 2, 3), True),
    ], ids=["str-strands", "big-letter", "str-s", "big-sign", "big-odd-slope", "bool-twist",
            "float-torus-genus", "str-quotient-genus", "torus-alexander-size", "torus-det-size",
            "link-bridge-types", "link-taxonomy-types", "link-bridge-huge-q", "link-bridge-huge-p",
            "link-taxonomy-huge-q", "link-taxonomy-huge-p", "parse-str-strands",
            "str-conflict-genus", "float-conflict-genus", "bool-conflict-genus",
            "float-conflict-det", "huge-quotient-genus", "float-free-loops", "str-free-loops",
            "int-arcs", "bool-sign"])
    def test_outside_value_gets_a_short_value_error(self, call):
        with pytest.raises(ValueError) as exc:
            call()
        assert len(str(exc.value)) < 200 and "Exceeds the limit" not in str(exc.value)

    @pytest.mark.parametrize("r", [10 ** 4000, 10 ** 5000], ids=["4001-digits", "5001-digits"])
    def test_even_slope_reason_is_short(self, r):
        """An even slope is a two-component link at any size; the reason names it short."""
        verdict = exclude_torus_knot(3, 3, r)
        assert verdict.conclusion == "inconclusive"
        assert len(verdict.evidence["reason"]) < 200

    def test_torus_polynomials_at_the_size_limit(self):
        """The largest torus braids the bound admits still compute."""
        assert len(torus_alexander(2, MAX_INPUT_LETTERS - 1)) == MAX_INPUT_LETTERS - 1
        assert torus_det_4x(MAX_INPUT_LETTERS // 3 - 1) == MAX_INPUT_LETTERS // 3 - 1
