"""Surgery obstruction certificates for pretzel knots P(p,q,q).

The pipeline mechanizes a case analysis showing that no Dehn surgery on
P(p,q,q) (first parameter >= 2, q >= 3 odd) yields a Seifert fibered
space.  The knot is strongly invertible, so r-surgery is the double cover
of the 3-sphere branched over a quotient link; were the surgered manifold
Seifert fibered over the 2-sphere, that quotient link would be either a
Montesinos link or a Seifert link.  Each candidate slope r therefore gets
one exclusion verdict per branch:

* knots (odd r): the Montesinos branch dies by the invariant inequality
  s + sigma >= 4 (Montesinos knots satisfy |s + sigma| <= 2), computed
  directly and re-derived through a tangle-move inequality chain; the
  Seifert branch reduces to torus knots T(4,x), killed by determinant
  plus genus arithmetic.
* two-component links (even r, odd family only): bridge number >= 4
  beats the bridge bound 3 of length-three Montesinos links, and the
  classification of two-component Seifert links needs parallel or
  trivial components that these links do not have.
* r = 0: the knot has genus one, so 0-surgery contains an essential
  torus and is no atoroidal Seifert fibered candidate.

Geometric inputs (hyperbolicity, strong invertibility, the slope bounds,
the identification of the quotient link with an explicit braid closure)
are recorded as assumptions in the report header; everything else in a
verdict's evidence is recomputed from the invariant engines on demand.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import json
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from .braid import (_TWIST_HEAD, BraidWord, _check_integers, _check_quotient_powers,
                    _check_size, _shown, contains_full_twist, quotient_braid)
from .diagram import _quotient_tail_invariants
from .invariants import torus_genus

__all__ = [
    "SCHEMA_VERSION",
    "EXCLUDED",
    "INCONCLUSIVE",
    "CERTIFIED",
    "ExclusionVerdict",
    "SlopeReport",
    "CertificateReport",
    "pretzel_quotient_braid",
    "exclude_montesinos_knot",
    "exclude_montesinos_link_two_components",
    "exclude_seifert_link_two_components",
    "exclude_torus_knot",
    "torus_knot_genus_conflict",
    "quotient_knot_genus",
    "certify_no_sfs",
]

SCHEMA_VERSION = 1

EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"
CERTIFIED = "no-seifert-fibered-surgery"

MONTESINOS_THRESHOLD = 4

# Branch bookkeeping: a slope is settled only when both halves of the
# quotient-link dichotomy carry an excluding verdict.  The toroidal rule
# is not a dichotomy case; it rules the whole slope out at once.
_RULE_BRANCHES = {
    "montesinos-knot": ("montesinos",),
    "montesinos-link-bridge": ("montesinos",),
    "seifert-link-taxonomy": ("seifert",),
    "torus-knot-det-genus": ("seifert",),
    "toroidal-slope": ("montesinos", "seifert"),
}
_REQUIRED_BRANCHES = frozenset(("montesinos", "seifert"))
_ABSENT = object()  # a key or entry one side lacks; _shown prints it as "nothing"


@dataclasses.dataclass(frozen=True)
class ExclusionVerdict:
    """Outcome of one exclusion rule with the numbers it was decided on."""

    rule: str
    conclusion: str
    evidence: dict

    def __post_init__(self):
        if not isinstance(self.rule, str) or self.rule not in _RULE_BRANCHES:
            raise ValueError(f"unknown rule {_shown(self.rule)}")
        if self.conclusion not in (EXCLUDED, INCONCLUSIVE):
            raise ValueError(f"unknown conclusion {_shown(self.conclusion)}")

    def to_dict(self) -> dict:
        """The verdict as JSON values, sharing no dict or list with it."""
        return copy.deepcopy(self._fields())

    def _fields(self) -> dict:
        return {"rule": self.rule, "conclusion": self.conclusion, "evidence": self.evidence}

    @staticmethod
    def from_dict(d: dict) -> "ExclusionVerdict":
        if not isinstance(d, dict) or d.keys() != {"rule", "conclusion", "evidence"}:
            raise ValueError("a verdict needs exactly the keys rule, conclusion and evidence")
        if not isinstance(d["evidence"], dict) or not d["evidence"]:
            raise ValueError(f"verdict {_shown(d['rule'])} has no evidence")
        return ExclusionVerdict(d["rule"], d["conclusion"], d["evidence"])


@dataclasses.dataclass(frozen=True)
class SlopeReport:
    """A candidate slope r, the slope-restriction result that admits it,
    and the verdicts on it."""

    r: int
    admitted_by: str
    verdicts: tuple[ExclusionVerdict, ...]

    @property
    def parity(self) -> str:
        return "odd" if self.r % 2 else "even"

    @property
    def excluded(self) -> bool:
        return _REQUIRED_BRANCHES <= {branch for v in self.verdicts if v.conclusion == EXCLUDED
                                      for branch in _RULE_BRANCHES[v.rule]}

    def to_dict(self) -> dict:
        return self._with_verdicts([v.to_dict() for v in self.verdicts])

    def _with_verdicts(self, verdicts) -> dict:
        return {"r": self.r, "parity": self.parity, "admitted_by": self.admitted_by,
                "verdicts": verdicts, "excluded": self.excluded}


@dataclasses.dataclass(frozen=True)
class CertificateReport:
    """Full certification run: the parameters and the per-slope verdicts."""

    parameters: dict
    slopes: tuple[SlopeReport, ...]

    def _pretzel(self) -> _Family:
        return _pretzel_family(self.parameters["p"], self.parameters["q"])

    family = property(lambda self: self._pretzel().name)
    assumptions = property(lambda self: self._pretzel().assumptions)
    notes = property(lambda self: self._pretzel().notes)

    @property
    def certified(self) -> bool:
        return all(s.excluded for s in self.slopes)

    @property
    def conclusion(self) -> str:
        return CERTIFIED if self.certified else INCONCLUSIVE

    def to_dict(self) -> dict:
        return self._with_slopes([s.to_dict() for s in self.slopes])

    def _with_slopes(self, slopes: list) -> dict:
        family = self._pretzel()
        return {
            "schema_version": SCHEMA_VERSION,
            "family": family.name,
            "parameters": dict(self.parameters),
            "assumptions": list(family.assumptions),
            "notes": list(family.notes),
            "slopes": slopes,
            "conclusion": self.conclusion,
        }

    @staticmethod
    def from_dict(d: dict) -> "CertificateReport":
        """Rebuild the report that the recorded p and q fix, with the
        recorded verdicts (parsed, not replayed), and compare the file with
        its to_dict() once, through the recorded evidence, not a copy of it.
        Raises ValueError naming the first difference."""
        if type(d) is not dict:
            raise ValueError(f"a certificate must be an object, got {_shown(d)}")
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported certificate schema version "
                             f"{_shown(d.get('schema_version'))}")
        params = d.get("parameters")
        p, q = (params.get("p"), params.get("q")) if isinstance(params, dict) else (params, None)
        family = _pretzel_family(p, q)
        report = CertificateReport(family.parameters, tuple(
            SlopeReport(r, family.admitted_by, _recorded_verdicts(d.get("slopes"), i))
            for i, r in enumerate(family.slopes)))
        difference = _first_difference(report._with_slopes([
            s._with_verdicts([v._fields() for v in s.verdicts]) for s in report.slopes]), d)
        if difference:
            raise ValueError(f"certificate{difference[0]}: {difference[1]}")
        return report

    def to_json(self) -> str:
        """to_dict() as JSON text, each verdict tuple written once however
        many slopes hold it."""
        written: dict[int, _Written] = {}  # by id(); self keeps every tuple alive
        slopes = []
        for s in self.slopes:
            verdicts = written.get(id(s.verdicts))
            if verdicts is None:
                verdicts = written[id(s.verdicts)] = _Written(_json_text(
                    [v._fields() for v in s.verdicts], _VERDICTS_INDENT))
            slopes.append(s._with_verdicts(verdicts))
        return _json_text(self._with_slopes(slopes))

    @staticmethod
    def from_json(text: str) -> "CertificateReport":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply to parse") from None
        return CertificateReport.from_dict(data)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_VERDICTS_INDENT = "\n" + "  " * 3  # a slope's verdicts: top dict, slopes, slope dict


class _Written(str):
    """JSON text already written, which _json_text copies as is."""


def _json_text(value, indent: str = "\n") -> str:
    """value as the ``json`` module writes it with ``indent=2`` and
    ``sort_keys=True``, byte for byte, for str, int, bool, None, list and
    dict with str keys; TypeError on anything else.  Written directly,
    since CPython skips its C encoder whenever an indent is set.  indent
    is the line break and indentation before the value's closing bracket.
    A _Written value is copied as is: it was written at this indent."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            [f"{_json_string(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        ) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + indent + "]"
    if kind is _Written:
        return value
    if value is None or kind is bool:
        return _JSON_CONSTANTS[value]
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _recorded_verdicts(slopes, i: int) -> tuple[ExclusionVerdict, ...]:
    """The verdicts recorded at slopes[i], or none where there is no list."""
    try:
        verdicts = slopes[i]["verdicts"]
    except (IndexError, KeyError, TypeError):
        return ()
    try:
        return tuple(map(ExclusionVerdict.from_dict, verdicts)) if type(verdicts) is list else ()
    except ValueError as exc:
        raise ValueError(f"certificate.slopes[{i}].verdicts: {exc}") from None


def _first_difference(built, recorded) -> tuple[str, str] | None:
    """Where recorded, a JSON container of built's type, first differs from it,
    as (the path below it, what), or None.  Types are strict: 1.0 and true are not 1."""
    if type(built) is dict:
        step = ".{}".format
        if built.keys() == recorded.keys():
            pairs = zip(built, built.values(), map(recorded.__getitem__, built))
        else:
            keys, absent = {**built, **recorded}, itertools.repeat(_ABSENT)
            pairs = zip(keys, map(built.get, keys, absent), map(recorded.get, keys, absent))
    else:
        step, pairs = "[{}]".format, itertools.zip_longest(
            range(max(len(built), len(recorded))), built, recorded, fillvalue=_ABSENT)
    for key, b, r in pairs:
        if b is r:
            continue
        kind = type(b)
        if kind is not type(r) or (kind is not dict and kind is not list and b != r):
            return step(key), f"recorded {_shown(r)}, expected {_shown(b)}"
        difference = (kind is dict or kind is list) and _first_difference(b, r)
        if difference:
            return step(key) + difference[0], difference[1]
    return None


def exclude_montesinos_knot(s: int, sigma: int) -> ExclusionVerdict:
    """Montesinos test: |s + sigma| <= 2 for Montesinos knots, so s + sigma
    >= 4 or <= -4 excludes them.  Both invariants are even integers, so any
    other input is rejected."""
    _check_integers("s and sigma", s, sigma)
    if s % 2 or sigma % 2:
        raise ValueError(f"s and sigma must be even integers, got ({_shown(s)}, {_shown(sigma)})")
    return _montesinos_verdict(s, sigma, sigma)


def _montesinos_verdict(s: int, sigma_lo: int, sigma_hi: int) -> ExclusionVerdict:
    """The Montesinos test on an exact s and sigma in [sigma_lo, sigma_hi]:
    it excludes when the whole enclosure of s + sigma lies in [4, inf) or
    (-inf, -4].  The evidence records sigma as one int when it is exact."""
    total = [s + sigma_lo, s + sigma_hi]
    excluded = total[0] >= MONTESINOS_THRESHOLD or total[1] <= -MONTESINOS_THRESHOLD
    evidence = {
        "s": s,
        "sigma": sigma_lo if sigma_lo == sigma_hi else [sigma_lo, sigma_hi],
        "s_plus_sigma": total,
        "threshold": MONTESINOS_THRESHOLD,
    }
    return ExclusionVerdict(
        "montesinos-knot", EXCLUDED if excluded else INCONCLUSIVE, evidence)


def exclude_montesinos_link_two_components(p: int, q: int) -> ExclusionVerdict:
    """Bridge-number test for the even-slope quotient link of the odd
    family, whose components are the torus knots T(2,q) and T(2,2p+q).

    A Montesinos link matching a fibration with three exceptional fibers
    has three tangles, hence bridge number at most 3.  Two nontrivial
    components force bridge number at least 2 + 2 = 4.  ValueError when
    the two components have more than braid.MAX_INPUT_LETTERS crossings."""
    _check_integers("pretzel parameters", p, q)
    _check_size("quotient link components of", abs(q) + abs(2 * p + q), "crossings")
    rule = "montesinos-link-bridge"
    components = [[2, q], [2, 2 * p + q]]
    if abs(q) <= 1 or abs(2 * p + q) <= 1:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "components": components,
            "failed_step": "nontrivial-components",
            "reason": "a component is an unknot, so the bridge bound degenerates",
        })
    return ExclusionVerdict(rule, EXCLUDED, {
        "components": components,
        "component_bridge_index": 2,
        "link_bridge_lower_bound": 4,
        "montesinos_three_tangle_bridge_bound": 3,
    })


def exclude_seifert_link_two_components(p: int, q: int) -> ExclusionVerdict:
    """Taxonomy test: a two-component Seifert link is a torus link (its
    components are parallel) or a torus knot with a core circle of its
    torus (one component is unknotted).  T(2,q) and T(2,2p+q) with p > 0
    and q >= 3 are neither parallel nor unknotted.  ValueError as in
    ``exclude_montesinos_link_two_components``."""
    _check_integers("pretzel parameters", p, q)
    _check_size("quotient link components of", abs(q) + abs(2 * p + q), "crossings")
    rule = "seifert-link-taxonomy"
    components = [[2, q], [2, 2 * p + q]]
    if p == 0:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "components": components,
            "failed_step": "distinct-components",
            "reason": "components are parallel, so a two-component torus link is not ruled out",
        })
    if abs(q) <= 1 or abs(2 * p + q) <= 1:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "components": components,
            "failed_step": "nontrivial-components",
            "reason": "a trivial component leaves the torus-knot-with-core case open",
        })
    return ExclusionVerdict(rule, EXCLUDED, {
        "components": components,
        "torus_knot_case": "quotient link has two components",
        "torus_link_case": f"components differ: {_shown(q)} != {_shown(2 * p + q)}",
        "knot_with_core_case": "both components are knotted",
    })


def torus_knot_genus_conflict(determinant_value: int, genus_value: int) -> tuple[bool, dict]:
    """Compare a knot against the only torus knot its determinant allows.

    A braid-index-four torus knot is T(4,x) with det = x, so the knot's
    determinant fixes the candidate; a genus mismatch refutes it.  The
    comparison itself must not over-fire: feeding it the determinant and
    genus of an actual T(4,x) closure reports no conflict.
    """
    _check_integers("determinant and genus", determinant_value, genus_value)
    x = determinant_value
    candidate_genus = torus_genus(4, x)
    evidence = {
        "torus_candidate": [4, x],
        "torus_candidate_genus": candidate_genus,
        "knot_genus": genus_value,
    }
    return genus_value != candidate_genus, evidence


def exclude_torus_knot(first: int, q: int, r: int) -> ExclusionVerdict:
    """Torus-knot test for the odd-slope quotient knot of r-surgery on
    P(first,q,q).

    Three certified steps: the quotient braid is positive and contains a
    full twist, so the closure has braid index exactly four and the only
    torus candidates are T(4,x); the determinant of the closure must be
    the homology order |r| of the surgery, which forces x = |r|; the
    genus of the closure (positive braid formula, cross-checked against
    the closed form) differs from the genus of T(4,|r|).  The determinant
    comes from one streaming pass over the word's blocks, as in
    ``certify_no_sfs``.  The full twist is the word's 12-letter head, whose
    Garside normal form is computed once per process; a word without that
    head is inconclusive.
    """
    rule = "torus-knot-det-genus"
    family = _pretzel_family(first, q)
    _check_integers("surgery slopes", r)
    if r % 2 == 0:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "failed_step": "knot-closure",
            "reason": f"slope {_shown(r)} is even, so the quotient is a two-component link",
        })
    # The closed-form genus the test needs is known at every odd slope of
    # an odd first parameter but only at 4q-1 and 4q+1 of an even one.
    try:
        genus = family.genus(r)
    except ValueError as exc:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "failed_step": "admissible-slope",
            "reason": str(exc),
        })
    block, middle, tail = family.powers(r)
    word = quotient_braid(block, middle, tail)
    [[(_, det)]] = _quotient_tail_invariants([block], middle, [tail])
    return _torus_knot_verdict(first, q, r, word, _positive_word_genus(word), genus, det)


def _knot_slope_verdicts(family: _Family) -> dict[int, tuple[ExclusionVerdict, ...]]:
    """The Montesinos and torus-knot verdicts of each odd slope, by slope.

    Both read the quotient word, with no diagram built: its Goeritz
    matrix gives sigma and the determinant, and its genus gives s = 2 *
    genus (the Rasmussen invariant of a positive knot) for the Montesinos
    test and the genus for the torus test.  The only other word is the
    tangle-move partner's, with two blocks fewer, for the Montesinos
    chain.  The slopes differ only in their s1 tails, so one streaming
    pass over the partner's blocks and the word's two more,
    ``diagram._quotient_tail_invariants``, gives sigma and det of both at
    every slope, each closing finished with the pass's own Bareiss step.
    The word and the partner are built once each, at the shortest tail,
    for the genus and the twist head.  The tails differ by even k, and
    the k more letters s1 are positive, so the genus grows by k/2.  Every
    tail is at least 5, so every slope's word and the shortest one share
    the head that shows the full twist.
    """
    odd = [r for r in family.slopes if r % 2]  # ascending, and the tail is base + r - odd[0]
    q, first, base = family.powers(odd[0])
    extra = [r - odd[0] for r in odd]
    word, partner = quotient_braid(q, first, base), quotient_braid(q - 2, first, base)
    genus, partner_genus = _positive_word_genus(word), _positive_word_genus(partner)
    partners, knots = _quotient_tail_invariants([q - 2, q], first, [base + k for k in extra])
    verdicts = {}
    for r, k, (sigma, det), (sigma_partner, _) in zip(odd, extra, knots, partners):
        montesinos = _montesinos_knot_verdict(
            q - 2, 2 * (genus + k // 2), sigma, 2 * (partner_genus + k // 2), sigma_partner)
        verdicts[r] = montesinos, _torus_knot_verdict(
            first, q, r, word, genus + k // 2, family.genus(r), det)
    return verdicts


def _torus_knot_verdict(first: int, q: int, r: int, word: BraidWord, genus_direct: int,
                        genus_closed_form: int, det: int) -> ExclusionVerdict:
    """The torus-knot verdict of odd slope r, from its quotient knot's
    determinant, its genus both from the word and in closed form, and a
    word whose head is its quotient word's.  The full twist is proved once
    per process, on the head that ``quotient_braid`` spells it with; a
    word starting with that head is the full twist times a positive braid."""
    rule = "torus-knot-det-genus"
    if word.letters[:len(_TWIST_HEAD)] != _TWIST_HEAD or not _twist_head_contains_full_twist():
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "failed_step": "full-twist",
            "reason": "the quotient braid does not visibly contain a full twist",
        })
    # |H_1| of r-surgery on a knot is |r|; r is odd here, so never 0.
    det_homology = abs(r)
    if det != det_homology:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "failed_step": "determinant-homology",
            "determinant": det,
            "homology_order": det_homology,
        })
    if genus_direct != genus_closed_form:
        return ExclusionVerdict(rule, INCONCLUSIVE, {
            "failed_step": "genus-cross-check",
            "genus_direct": genus_direct,
            "genus_closed_form": genus_closed_form,
        })
    conflict, comparison = torus_knot_genus_conflict(det, genus_closed_form)
    evidence = {
        "full_twist": True,
        "braid_index": 4,
        "determinant": det,
        "homology_order": det_homology,
        **comparison,
    }
    if first % 2 == 0:
        # The mismatch in closed form, n = first/2: T(4,4q+1) needs
        # 6n-3q = 1 and T(4,4q-1) needs 6n-3q = -1, both impossible mod 3.
        evidence["six_n_minus_three_q"] = 3 * first - 3 * q
        evidence["torus_match_requires"] = 1 if r == 4 * q + 1 else -1
    return ExclusionVerdict(rule, EXCLUDED if conflict else INCONCLUSIVE, evidence)


def _positive_word_genus(word: BraidWord) -> int:
    """Genus of the knot closing a positive braid word that uses every
    generator, as every quotient word does.  Seifert's algorithm on the
    closure leaves one circle per strand and is minimal on positive
    diagrams, so the genus is (letters - strands + 1) / 2."""
    if not word.is_positive:
        raise ValueError("genus formula requires a positive braid word")
    return (len(word) - word.strands + 1) // 2


@functools.cache
def _twist_head_contains_full_twist() -> bool:
    return contains_full_twist(BraidWord(4, _TWIST_HEAD))


def _toroidal_slope_verdict() -> ExclusionVerdict:
    return ExclusionVerdict("toroidal-slope", EXCLUDED, {
        "slope": 0,
        "pretzel_genus": 1,
        "reason": "a genus-one knot has an essential once-punctured torus Seifert "
                  "surface, so 0-surgery contains an essential torus and is not an "
                  "atoroidal Seifert fibered space",
    })


# The tangle move removing one (s2 s3 s1 s2)^2 block, between positive
# diagrams with equal Seifert circle counts and 8 crossings apart: s drops
# by exactly 8 and sigma rises by 2 to 6.
_MOVE_S_DROP = 8
_MOVE_SIGMA_WINDOW = (2, 6)


def _montesinos_knot_verdict(partner_block_power: int, s_direct: int, sigma_direct: int,
                             s_partner: int, sigma_partner: int) -> ExclusionVerdict:
    """Montesinos exclusion for a quotient knot, computed two ways.

    The knot is the closure of (s2 s3 s1 s2)^q (s2 s3^2 s2)^first s1^tail,
    and its partner has block power q - 2.  Direct: s and sigma of the
    knot.  Chain: the tangle move removing one (s2 s3 s1 s2)^2 block drops
    s by exactly 8 and raises sigma by 2 to 6, so the partner's invariants
    bound s + sigma from below by s' + sigma' + 2.

    The sigma window is the move lemma's parameter-free form [2, 6],
    valid whatever the resolved diagram at the move site looks like.  The
    narrower two-component window [2, 4] is not available here: direct
    computation shows sigma jumps of 6 at some parameters (q' = q - 2,
    small tails), so any certificate leaning on [2, 4] would contradict
    its own invariants.  The chain enclosure is checked against the
    directly computed sum and the verdict refuses to certify on any
    disagreement.
    """
    direct = exclude_montesinos_knot(s_direct, sigma_direct)
    s_drop = s_direct - s_partner
    if s_drop != _MOVE_S_DROP:
        raise AssertionError(f"tangle move must drop s by {_MOVE_S_DROP}, got {s_drop}")

    # sigma(partner) sits in [sigma + 2, sigma + 6]; invert the window to
    # enclose sigma of the original knot.
    low, high = _MOVE_SIGMA_WINDOW
    chain = _montesinos_verdict(
        s_partner + _MOVE_S_DROP, sigma_partner - high, sigma_partner - low)

    chain_lo, chain_hi = chain.evidence["s_plus_sigma"]
    contained = chain_lo <= s_direct + sigma_direct <= chain_hi
    if not contained:
        raise AssertionError(
            f"chain enclosure [{chain_lo}, {chain_hi}] misses the direct sum "
            f"{s_direct + sigma_direct}; the move-site invariant bookkeeping is wrong")
    evidence = {
        "direct": direct.evidence,
        "chain": {
            **chain.evidence,
            "partner_block_power": partner_block_power,
            "partner_s": s_partner,
            "partner_sigma": sigma_partner,
            "partner_s_plus_sigma": s_partner + sigma_partner,
            "s_drop": s_drop,
            "sigma_window": list(_MOVE_SIGMA_WINDOW),
            "sigma_window_note": (
                "parameter-free form of the move lemma; the two-component "
                "window [2, 4] is contradicted by direct computation at "
                "some parameters (sigma jump 6)"),
        },
        "direct_sum_in_chain_interval": contained,
    }
    both = direct.conclusion == EXCLUDED and chain.conclusion == EXCLUDED
    return ExclusionVerdict(
        "montesinos-knot", EXCLUDED if both else INCONCLUSIVE, evidence)


_COMMON_ASSUMPTIONS = (
    "P(p,q,q) with the certified parameters is a hyperbolic, strongly invertible "
    "knot; r-surgery on it is the double cover of the 3-sphere branched over the "
    "quotient link of the inversion",
    "if the surgered manifold were Seifert fibered, it would be atoroidal with "
    "infinite fundamental group and base orbifold the 2-sphere with exactly three "
    "exceptional fibers, and its quotient link would be a Montesinos link or a "
    "Seifert link",
    "the tangle move relating the quotient knot to its partner obeys the "
    "signature window 2 <= sigma(partner) - sigma(knot) <= 6; the window is "
    "used in this parameter-free form because the narrower two-component "
    "form fails against direct computation at some parameters",
)

_ODD_ASSUMPTIONS = _COMMON_ASSUMPTIONS + (
    "the knot is alternating, so Seifert fibered surgery slopes are integers",
    "the knot has genus one, so 0-surgery is toroidal and every Seifert fibered "
    "slope r satisfies |r| <= 8",
    "the quotient link of r-surgery is the closure of the four-strand braid "
    "(s2 s3 s1 s2)^q (s2 s3^2 s2)^p s1^(2p+2q+r)",
    "for even r the quotient link has two components, the torus knots T(2,q) "
    "and T(2,2p+q)",
)

_EVEN_ASSUMPTIONS = _COMMON_ASSUMPTIONS + (
    "the knot has cyclic period two with factor knot T(2,q); a Seifert fibered "
    "surgery would descend to a lens space surgery on the factor, so the slope "
    "is 4q-1 or 4q+1",
    "the quotient link of r-surgery is the closure of the four-strand braid "
    "(s2 s3 s1 s2)^q (s2 s3^2 s2)^(2n) s1^(2(2n-q)+r)",
)


_RECOMPUTE_NOTE = (
    "verdict evidence recomputes from the braid, diagram, and invariant "
    "engines; the assumptions above are geometric inputs, not computed")


class _Family(NamedTuple):
    """What P(first,q,q) fixes: its family name and recorded parameters,
    its candidate slopes and the result that admits them, the quotient-word
    powers and the quotient knot's genus at slope r, and the report header."""

    name: str
    parameters: dict
    tail_at_zero: int
    slopes: tuple[int, ...]
    admitted_by: str
    assumptions: tuple[str, ...]
    notes: tuple[str, ...]

    def powers(self, r: int) -> tuple[int, int, int]:
        """Block, middle and tail powers of the quotient word of r-surgery,
        (s2 s3 s1 s2)^q (s2 s3^2 s2)^first s1^tail."""
        return self.parameters["q"], self.parameters["p"], self.tail_at_zero + r

    def genus(self, r: int) -> int:
        """Closed-form genus of the quotient knot of integer slope r:
        3(first + q) + (r - 3)/2 at every odd r whose quotient word has a
        tail 2(first + q) + r >= 0 when first is odd; when first is even,
        3(first + q) - 1 at r = 4q + 1 and 3(first + q) - 2 at r = 4q - 1,
        the only slopes the even cells admit.  ValueError at any other r."""
        first, q = self.parameters["p"], self.parameters["q"]
        if first % 2:
            if r % 2 == 0:
                raise ValueError(f"the quotient closes to a knot only for odd r, got {_shown(r)}")
            if self.tail_at_zero + r < 0:
                raise ValueError(f"slope {_shown(r)} gives the quotient word a negative tail "
                                 f"2(first+q)+r = {_shown(self.tail_at_zero + r)}")
            return 3 * (first + q) + (r - 3) // 2
        if r not in self.slopes:
            raise ValueError(f"an even first parameter admits only the slopes 4q-1 and 4q+1, "
                             f"got r={_shown(r)} with q={_shown(q)}")
        return 3 * (first + q) - (1 if r == 4 * q + 1 else 2)


def _pretzel_family(first: int, q: int) -> _Family:
    """The family of P(first,q,q): odd for an odd first >= 3, even (n =
    first/2) for an even first >= 2; q >= 3 odd in both.  Raises ValueError
    for invalid parameters, or for a cell whose longest quotient word, at
    its largest slope, has more than braid.MAX_INPUT_LETTERS letters."""
    _check_integers("pretzel parameters", first, q)
    if q % 2 == 0:
        raise ValueError(f"P(p,q,q) with even q = {_shown(q)} has more than one "
                         f"component; q must be odd")
    if q < 3:
        raise ValueError(f"q must be >= 3, got {_shown(q)}")
    if first < 2:
        raise ValueError(f"the first pretzel parameter must be >= 2, got {_shown(first)}")
    if first % 2:
        # Non-integral slopes never give Seifert fibered spaces because the
        # knot is alternating; integral ones are bounded by 8 because the
        # genus-one knot has toroidal 0-surgery, so every Seifert fibered
        # slope is exceptional.
        family = _Family("odd", {"p": first, "q": q}, 2 * first + 2 * q,
                         tuple(range(-8, 9)), "exceptional-slope-bound",
                         _ODD_ASSUMPTIONS, (_RECOMPUTE_NOTE,))
    else:
        # The knot has cyclic period two with factor knot T(2,q); a Seifert
        # fibered surgery would descend to a lens space surgery on the
        # factor, which pins the slope to 4q +/- 1.
        family = _Family("even", {"p": first, "n": first // 2, "q": q}, 2 * (first - q),
                         (4 * q - 1, 4 * q + 1), "period-two-lens-factor",
                         _EVEN_ASSUMPTIONS,
                         ("every admissible slope 4q-1, 4q+1 is odd, so the even family "
                          "has no two-component quotient case", _RECOMPUTE_NOTE))
    what = f"P({_shown(first)},{_shown(q)},{_shown(q)}) needs quotient braid words of up to"
    _check_quotient_powers(*family.powers(max(family.slopes)), what)
    return family


def pretzel_quotient_braid(first: int, q: int, r: int) -> BraidWord:
    """Four-strand braid (s2 s3 s1 s2)^q (s2 s3^2 s2)^first s1^tail whose
    closure is the quotient knot or link of r-surgery on P(first,q,q).

    The tail is 2(first + q) + r for an odd first and 2(first - q) + r
    for an even one; it must be nonnegative.  The block power q is odd
    and at least 3, so the word spells the positive full twist explicitly
    whenever the tail is at least 4.
    """
    family = _pretzel_family(first, q)
    _check_integers("surgery slopes", r)
    block, middle, tail = family.powers(r)
    if tail < 0:
        raise ValueError(f"slope {_shown(r)} gives the quotient word of "
                         f"P({first},{q},{q}) a negative tail {_shown(tail)}")
    return quotient_braid(block, middle, tail)


def quotient_knot_genus(first: int, q: int, r: int) -> int:
    """Genus of the quotient knot of r-surgery on P(first,q,q), in closed
    form (``_Family.genus``).  ValueError for a cell ``certify_no_sfs``
    refuses, and for a slope whose quotient is no knot of the family."""
    _check_integers("surgery slopes", r)
    return _pretzel_family(first, q).genus(r)


def certify_no_sfs(first: int, q: int) -> CertificateReport:
    """Run the full slope-by-slope exclusion for P(first, q, q).

    The first parameter is any integer >= 2; q must be odd and >= 3
    (even q gives a link, not a knot).  The returned report is certified
    exactly when every candidate slope carries excluding verdicts on both
    branches of the quotient-link dichotomy.  The odd family's two link
    verdicts read only first and q, so they are built once, and every
    nonzero even slope holds that one tuple; ``to_json`` writes it once.
    """
    family = _pretzel_family(first, q)
    verdicts = _knot_slope_verdicts(family)
    even = [r for r in family.slopes if r % 2 == 0]  # the odd family's, 0 among them
    if even:
        verdicts.update(dict.fromkeys(even, (exclude_montesinos_link_two_components(first, q),
                                             exclude_seifert_link_two_components(first, q))))
        verdicts[0] = (_toroidal_slope_verdict(),)
    return CertificateReport(family.parameters, tuple(
        SlopeReport(r, family.admitted_by, verdicts[r]) for r in family.slopes))
