"""Braid words and the left-greedy (Garside) normal form on Artin braid groups.

Words are sequences of nonzero integers: the letter i (1 <= i < n) is the
Artin generator crossing strands i and i+1, and -i is its inverse.  The
normal form writes a braid as D^k A_1 ... A_l where D is the positive half
twist, each A_i is a permutation braid (a positive braid in which any two
strands cross at most once), no A_i is trivial or equal to D, and every
adjacent pair is left weighted: every generator that can start A_{i+1}
already finishes A_i.  Two words represent the same braid exactly when
their normal forms coincide, which is what drives equality testing and
full twist detection.

Permutation braids are identified with permutations in one-line notation:
``mapping[i]`` is the ending position of the strand that starts at position
i, so a word's permutation sends starting positions to ending positions.
The product convention is diagrammatic: the braid "a stacked above b" has
the mapping ``tuple(b[x] for x in a)``.
"""

from __future__ import annotations

import dataclasses
import reprlib
from collections.abc import Iterator

__all__ = [
    "MAX_INPUT_STRANDS",
    "MAX_INPUT_LETTERS",
    "PermutationBraid",
    "BraidWord",
    "GarsideNormalForm",
    "parse_braid",
    "exponent_sum",
    "permutation_of",
    "normal_form",
    "braids_equal",
    "full_twist",
    "contains_full_twist",
    "quotient_braid",
    "torus_braid",
]

# Bounds on input, checked before anything of that size is built.
MAX_INPUT_STRANDS = 256
MAX_INPUT_LETTERS = 2000


def _shown(value) -> str:
    """A value given by a caller, or computed from one, as every message shows
    it, in under 60 characters: a JSON container by its type, ``object()``
    as "nothing", an int over 128 bits by its bit length, else ``reprlib``."""
    try:
        if isinstance(value, int) and value.bit_length() > 128:
            return f"<{'negative ' * (value < 0)}{value.bit_length()}-bit integer>"
        if type(value) is int:  # at most 39 digits, which reprlib would not cut
            return int.__repr__(value)
        text = ({dict: "an object", list: "an array", object: "nothing"}.get(type(value))
                or reprlib.repr(value))
    except ValueError:  # an int past CPython's digit limit inside, say, a tuple
        text = f"a {type(value).__name__}"
    return text if len(text) < 60 else text[:55] + "..."


def _check_integers(what: str, *values) -> None:
    """ValueError unless every value is an int and none is a bool."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{what} must be integers, got {_shown(value)}")


def _check_size(what: str, count: int, unit: str = "letters") -> None:
    """ValueError when count, the letters or crossings of what (a phrase
    ending in its preposition), exceeds MAX_INPUT_LETTERS."""
    if count > MAX_INPUT_LETTERS:
        raise ValueError(
            f"{what} {_shown(count)} {unit}, over the input limit {MAX_INPUT_LETTERS}")


@dataclasses.dataclass(frozen=True)
class PermutationBraid:
    """A permutation braid, stored as the one-line tuple of its permutation.

    mapping[i] is the 0-based ending position of the strand starting at
    position i.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {_shown(self.mapping)}")

    def reduced_word(self) -> list[int]:
        """A word of 0-based generator indices realizing this permutation braid:
        swap the first descent until none is left."""
        word: list[int] = []
        m = list(self.mapping)
        i, last = 0, len(m) - 1
        while i < last:
            if m[i] > m[i + 1]:
                word.append(i)
                m[i], m[i + 1] = m[i + 1], m[i]
                i = i - 1 if i else 0  # the swap changed only the pairs at i-1, i, i+1
            else:
                i += 1
        return word


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.strands
        _check_integers("strand counts", n)
        if n < 1:
            raise ValueError(f"strand count must be >= 1, got {_shown(n)}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if letters and not (set(map(type, letters)) == {int} and 0 not in letters
                            and -n < min(letters) and max(letters) < n):
            for e in letters:  # name the first bad letter, if any: int subclasses pass
                if isinstance(e, bool) or not isinstance(e, int) or e == 0:
                    raise ValueError(f"bad braid letter {_shown(e)}: letters are nonzero integers")
                if abs(e) > n - 1:
                    raise ValueError(f"bad braid letter {_shown(e)}: needs generator index <= "
                                     f"{_shown(n - 1)} on {_shown(n)} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError(
                f"strand counts differ: {_shown(self.strands)} vs {_shown(other.strands)}")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-e for e in reversed(self.letters)))

    @property
    def is_positive(self) -> bool:
        return min(self.letters, default=1) > 0

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.letters)


@dataclasses.dataclass(frozen=True)
class GarsideNormalForm:
    """Left-greedy normal form D^infimum A_1 ... A_l."""

    strands: int
    infimum: int
    factors: tuple[PermutationBraid, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def supremum(self) -> int:
        return self.infimum + len(self.factors)

    def to_word(self) -> BraidWord:
        """Some braid word with this normal form (half twists spelled out)."""
        letters: list[int] = []
        delta = _half_twist_letters(self.strands)
        k = self.infimum
        if k >= 0:
            letters.extend(delta * k)
        else:
            inv = [-e for e in reversed(delta)]
            letters.extend(inv * (-k))
        for f in self.factors:
            letters.extend(i + 1 for i in f.reduced_word())
        return BraidWord(self.strands, tuple(letters))


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices into a braid word.

    Inputs with more than MAX_INPUT_STRANDS strands or MAX_INPUT_LETTERS
    letters are rejected.
    """
    _check_integers("strand counts", strands)
    if strands > MAX_INPUT_STRANDS:
        raise ValueError(
            f"strand count {_shown(strands)} exceeds the input limit {MAX_INPUT_STRANDS}")
    tokens = text.split()
    _check_size("braid word of", len(tokens))
    letters = []
    for tok in tokens:
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"bad braid letter {_shown(tok)}: not an integer") from None
    return BraidWord(strands, tuple(letters))


def exponent_sum(w: BraidWord) -> int:
    """Algebraic crossing count; the writhe of the closed diagram."""
    return sum(1 if e > 0 else -1 for e in w.letters)


def permutation_of(w: BraidWord) -> PermutationBraid:
    """Underlying permutation: start position of a strand to its end position."""
    img = list(range(w.strands))
    for e in w.letters:
        i = abs(e) - 1
        for x in range(w.strands):
            if img[x] == i:
                img[x] = i + 1
            elif img[x] == i + 1:
                img[x] = i
    return PermutationBraid(tuple(img))


def _half_twist_letters(n: int) -> list[int]:
    letters: list[int] = []
    for k in range(n - 1, 0, -1):
        letters.extend(range(1, k + 1))
    return letters


def _runs(w: BraidWord) -> Iterator[tuple[bool, list[int], list[int]]]:
    """Yield (positive, permutation, inverse) for each maximal same-sign run
    of w in which no two strands cross twice.  Letters are read conjugated
    by D (s_i becomes s_{n-2-i}, 0-based) while an odd number of negative
    runs have begun, counting the letter's own."""
    n = w.strands
    flip, positive, perm, inv = False, None, [], []
    for e in w.letters:
        i = n - 1 - abs(e) if flip else abs(e) - 1
        if positive != (e > 0) or inv[i] > inv[i + 1]:
            if perm:
                yield positive, perm, inv
            positive, perm, inv = e > 0, list(range(n)), list(range(n))
            if e < 0:
                flip = not flip
                i = n - 2 - i
        x, y = inv[i], inv[i + 1]
        perm[x], perm[y] = i + 1, i
        inv[i], inv[i + 1] = y, x
    if perm:
        yield positive, perm, inv


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """Left-greedy normal form of a braid word.

    Each run of ``_runs`` is one factor: a positive run A, or D A^-1 for a
    negative run A^-1 = D^-1 (D A^-1).  The m D^-1 move to the right end,
    conjugating by D each factor with an odd number of them to its left,
    then to the front, conjugating all by D^m.  Factors enter from the
    right beside their inverses, each followed by one leftward pass of
    in-place left weightings, which stops at the first pair where no
    generator moves and leaves only the incoming factor possibly trivial.
    """
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    last = n - 1
    identity = list(range(n))
    negative_runs = 0
    factors: list[tuple[list[int], list[int]]] = []
    for positive, perm, inv in _runs(w):
        if not positive:
            negative_runs += 1
            perm, inv = perm[::-1], [last - v for v in inv]
        factors.append((perm, inv))
        for k in range(len(factors) - 1, 0, -1):
            (a, a_inv), (b, b_inv) = factors[k - 1], factors[k]
            moved, i = False, 0
            while i < last:
                # s_i starts b and a s_i is still a permutation braid: move it
                if b[i] > b[i + 1] and a_inv[i] < a_inv[i + 1]:
                    x, y = a_inv[i], a_inv[i + 1]
                    a[x], a[y] = i + 1, i
                    a_inv[i], a_inv[i + 1] = y, x
                    x, y = b[i], b[i + 1]
                    b[i], b[i + 1] = y, x
                    b_inv[x], b_inv[y] = i + 1, i
                    moved = True
                    i = i - 1 if i else 0  # the swap changed only the tests at i-1, i, i+1
                else:
                    i += 1
            if not moved:
                break
        if factors[-1][0] == identity:
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead][0] == identity[::-1]:
        lead += 1
    flip = negative_runs % 2
    return GarsideNormalForm(n, lead - negative_runs, tuple(
        PermutationBraid(tuple(last - v for v in reversed(f)) if flip else tuple(f))
        for f, _ in factors[lead:]))


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words represent the same element of the braid group."""
    if u.strands != v.strands:
        raise ValueError(f"strand counts differ: {_shown(u.strands)} vs {_shown(v.strands)}")
    return normal_form(u) == normal_form(v)


def full_twist(n: int) -> BraidWord:
    """The square of the half twist; generates the center of the braid group."""
    _check_integers("strand counts", n)
    if n < 2:
        raise ValueError(f"full twist needs at least 2 strands, got {_shown(n)}")
    _check_size("full twist of", n * (n - 1))
    return BraidWord(n, tuple(_half_twist_letters(n) * 2))


def contains_full_twist(w: BraidWord) -> bool:
    """Whether a positive word is the full twist times another positive braid.

    Equivalent to the normal form having infimum at least 2, and by the
    Morton-Franks-Williams bound a positive braid on n strands with this
    property has braid index exactly n.
    """
    if not w.is_positive:
        raise ValueError("full twist containment is only decided for positive words")
    if w.strands < 2:
        raise ValueError("full twist containment needs at least 2 strands")
    return normal_form(w).infimum >= 2


# The head s3^2 (s2 s3 s1 s2) s3^2 (s2 s3 s1 s2) that quotient_braid
# starts its word with whenever the word contains a full twist.
_TWIST_HEAD = (3, 3, 2, 3, 1, 2) * 2


def _check_quotient_powers(block: int, middle: int, tail: int, what="quotient word of") -> None:
    """ValueError unless quotient_braid builds a word of these powers:
    integers, block and middle powers >= 1, tail >= 0, and four letters per
    block and middle factor plus one per tail letter within the input limit."""
    _check_integers("quotient word powers", block, middle, tail)
    if block < 1 or middle < 1 or tail < 0:
        raise ValueError(f"quotient word needs block and middle powers >= 1 and tail >= 0, "
                         f"got ({_shown(block)}, {_shown(middle)}, {_shown(tail)})")
    _check_size(what, 4 * block + 4 * middle + tail)


def quotient_braid(block_power: int, middle_power: int, tail: int) -> BraidWord:
    """The four-strand quotient word (s2 s3 s1 s2)^block_power
    (s2 s3^2 s2)^middle_power s1^tail, full twist made explicit.

    The plain spelling is only conjugate to a word with a leading full
    twist, never equal to one: conjugation by braids with trivial
    permutation preserves pairwise linking numbers, and the plain word's
    head links the wrong strand pairs.  Conjugating by s3^2 s1^4 fixes the
    closure for an odd block power and yields the spelling returned here,
    which satisfies, with k = block_power, s3^2 (2312) s3^2 (2312)^{k-1} =
    Delta^2 (2312)^{k-2} on the nose.  Same length, same closure, but the
    twist is now visible to the greedy normal form.  The spelling needs
    tail >= 4 and an odd block_power >= 3.  For an even block power it
    closes to a different link, since s1^2 (2312) = (2312) s3^2 carries the
    four tail letters through the blocks back to s1^4.  Otherwise the plain
    word is returned.  Words over MAX_INPUT_LETTERS letters are refused
    before any letter is built.
    """
    _check_quotient_powers(block_power, middle_power, tail)
    block = (2, 3, 1, 2)
    middle = (2, 3, 3, 2) * middle_power
    if tail >= 4 and block_power >= 3 and block_power % 2:
        head = _TWIST_HEAD + block * (block_power - 2)
        return BraidWord(4, head + middle + (1,) * (tail - 4))
    return BraidWord(4, block * block_power + middle + (1,) * tail)


def torus_braid(a: int, b: int) -> BraidWord:
    """The braid (s_1 ... s_{a-1})^b on a strands, closing to the (a, b) torus link."""
    _check_integers("torus braid parameters", a, b)
    if a < 2:
        raise ValueError(f"torus braid needs at least 2 strands, got a={_shown(a)}")
    if b < 1:
        raise ValueError(f"torus braid needs a positive twist count, got b={_shown(b)}")
    _check_size("torus braid of", (a - 1) * b)
    return BraidWord(a, tuple(range(1, a)) * b)
