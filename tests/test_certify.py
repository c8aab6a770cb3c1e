"""Certificate layer tests: rule verdicts, branch coverage, serialization.

Each excluding rule is exercised on parameters where it must fire, on
parameters where it must refuse to fire (inconclusive with a named failed
step), and on inputs it must reject outright.
"""

import dataclasses
import hashlib
import json
import re

import pytest

from knotcert import (
    BraidWord,
    CertificateReport,
    ExclusionVerdict,
    SlopeReport,
    braid_closure,
    certify_no_sfs,
    contains_full_twist,
    determinant,
    exclude_montesinos_knot,
    exclude_montesinos_link_two_components,
    exclude_seifert_link_two_components,
    exclude_torus_knot,
    full_twist,
    normal_form,
    positive_genus,
    pretzel_quotient_braid,
    quotient_knot_genus,
    torus_braid,
    torus_knot_genus_conflict,
)
from knotcert.braid import MAX_INPUT_LETTERS, _shown
from knotcert.certify import (
    _TWIST_HEAD,
    EXCLUDED,
    INCONCLUSIVE,
    SCHEMA_VERSION,
    _json_text,
    _montesinos_knot_verdict,
    _torus_knot_verdict,
)

from conftest import grid_knot_slope_words, logged


class TestMontesinosKnotRule:
    def test_excludes_large_positive_sum(self):
        v = exclude_montesinos_knot(10, -4)
        assert v.conclusion == "excluded"
        assert v.evidence["s_plus_sigma"] == [6, 6]
        assert v.evidence["threshold"] == 4

    def test_excludes_large_negative_sum(self):
        assert exclude_montesinos_knot(-10, 4).conclusion == "excluded"

    def test_sum_at_threshold_excludes(self):
        assert exclude_montesinos_knot(4, 0).conclusion == "excluded"

    def test_small_sum_is_inconclusive(self):
        assert exclude_montesinos_knot(2, 0).conclusion == "inconclusive"
        assert exclude_montesinos_knot(0, 0).conclusion == "inconclusive"

    def test_interval_straddling_threshold_is_inconclusive(self):
        # The direct sum 4 excludes, but the chain encloses sigma in
        # [-20 - 6, -20 - 2], so s + sigma only in [0, 4].
        v = _montesinos_knot_verdict(3, 26, -22, 18, -20)
        assert v.evidence["direct"]["s_plus_sigma"] == [4, 4]
        assert v.evidence["chain"]["sigma"] == [-26, -22]
        assert v.evidence["chain"]["s_plus_sigma"] == [0, 4]
        assert v.conclusion == "inconclusive"

    def test_interval_inside_exclusion_zone(self):
        v = _montesinos_knot_verdict(3, 26, -18, 18, -14)
        assert v.evidence["chain"]["s_plus_sigma"] == [6, 10]
        assert v.conclusion == "excluded"

    @pytest.mark.parametrize("s_partner, sigma_partner, message", [
        (18, -10, r"chain enclosure \[10, 14\] misses the direct sum 4"),
        (20, -20, "must drop s by 8, got 6"),
    ], ids=["sigma-outside-window", "s-drop"])
    def test_move_bookkeeping_guards(self, s_partner, sigma_partner, message):
        """A partner whose sigma puts the chain enclosure off the direct
        sum, or whose s is not 8 below the knot's, is an internal error,
        not a verdict; no quotient knot reaches either guard."""
        with pytest.raises(AssertionError, match=message):
            _montesinos_knot_verdict(3, 26, -22, s_partner, sigma_partner)

    def test_rejects_odd_values(self):
        with pytest.raises(ValueError, match="even integers"):
            exclude_montesinos_knot(3, 0)
        for s, sigma in ((4, 1.5), (4, 2.0), (False, 4), (4, True)):
            with pytest.raises(ValueError, match="must be integers"):
                exclude_montesinos_knot(s, sigma)


class TestQuotientLinkRules:
    def test_bridge_rule_fires(self):
        v = exclude_montesinos_link_two_components(3, 3)
        assert v.conclusion == "excluded"
        assert v.evidence["components"] == [[2, 3], [2, 9]]
        assert v.evidence["link_bridge_lower_bound"] == 4
        assert v.evidence["montesinos_three_tangle_bridge_bound"] == 3

    def test_bridge_rule_degenerates_on_unknot_component(self):
        v = exclude_montesinos_link_two_components(3, 1)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "nontrivial-components"

    def test_taxonomy_rule_fires(self):
        v = exclude_seifert_link_two_components(5, 3)
        assert v.conclusion == "excluded"
        assert v.evidence["components"] == [[2, 3], [2, 13]]

    def test_taxonomy_rule_needs_distinct_components(self):
        v = exclude_seifert_link_two_components(0, 3)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "distinct-components"

    def test_taxonomy_rule_needs_knotted_components(self):
        v = exclude_seifert_link_two_components(3, -1)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "nontrivial-components"

    @pytest.mark.parametrize("rule", [exclude_montesinos_link_two_components,
                                      exclude_seifert_link_two_components],
                             ids=["bridge", "taxonomy"])
    def test_input_limit(self, rule):
        """At most MAX_INPUT_LETTERS crossings in T(2,q) and T(2,2p+q)
        together.  Both counts have the parity of q, so the sum is even and
        the first refused is MAX_INPUT_LETTERS + 2."""
        assert rule(1, MAX_INPUT_LETTERS // 2 - 1).conclusion == "excluded"
        assert rule(-MAX_INPUT_LETTERS // 2, MAX_INPUT_LETTERS // 2 - 1).conclusion == "excluded"
        with pytest.raises(ValueError, match="2002 crossings, over the input limit 2000"):
            rule(1, MAX_INPUT_LETTERS // 2)


class TestTorusKnotRule:
    def test_fires_on_odd_family_grid(self):
        for (p, q) in [(3, 3), (3, 5), (5, 3)]:
            for r in (-7, -1, 1, 7):
                v = exclude_torus_knot(p, q, r)
                assert v.conclusion == "excluded", (p, q, r)
                assert v.evidence["determinant"] == abs(r)
                assert v.evidence["full_twist"] is True
                assert v.evidence["braid_index"] == 4

    def test_fires_on_even_family(self):
        for (n, q) in [(1, 3), (2, 3), (1, 5)]:
            for r in (4 * q - 1, 4 * q + 1):
                v = exclude_torus_knot(2 * n, q, r)
                assert v.conclusion == "excluded", (n, q, r)
                assert v.evidence["six_n_minus_three_q"] == 6 * n - 3 * q
                assert v.evidence["torus_match_requires"] == (1 if r == 4 * q + 1 else -1)
                assert v.evidence["six_n_minus_three_q"] % 3 == 0

    def test_even_slope_is_not_a_knot(self):
        v = exclude_torus_knot(3, 3, 2)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "knot-closure"

    def test_even_family_rejects_other_slopes(self):
        v = exclude_torus_knot(2, 3, 7)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "admissible-slope"

    def test_negative_tail_slope_is_inconclusive(self):
        for r in (-39, -13):
            v = exclude_torus_knot(3, 3, r)
            assert v.conclusion == "inconclusive"
            assert v.evidence["failed_step"] == "admissible-slope"
            assert v.evidence["reason"].startswith(f"slope {r} gives the quotient word a negative tail")

    def test_word_without_visible_twist_is_inconclusive(self):
        # tail 2p+2q+r = 3 stays below the four letters a full twist needs
        assert pretzel_quotient_braid(3, 3, -9).letters[:len(_TWIST_HEAD)] != _TWIST_HEAD
        v = exclude_torus_knot(3, 3, -9)
        assert v.conclusion == "inconclusive"
        assert v.evidence["failed_step"] == "full-twist"

    @pytest.mark.parametrize("genus, det, evidence", [
        (20, 9, {"failed_step": "determinant-homology", "determinant": 9, "homology_order": 7}),
        (21, 7, {"failed_step": "genus-cross-check", "genus_direct": 21,
                 "genus_closed_form": 20}),
    ], ids=["determinant", "genus"])
    def test_cross_checks_stop_the_verdict(self, genus, det, evidence):
        """The quotient knot of 7-surgery on P(3,3,3) has det 7 and genus
        20, and excludes; a determinant other than |r| or a direct genus
        other than the closed form stops the verdict at its step, which no
        quotient knot reaches."""
        word = pretzel_quotient_braid(3, 3, 7)
        assert _torus_knot_verdict(3, 3, 7, word, 20, 20, 7).conclusion == EXCLUDED
        v = _torus_knot_verdict(3, 3, 7, word, genus, 20, det)
        assert (v.conclusion, v.evidence) == (INCONCLUSIVE, evidence)

    def test_reads_the_streaming_pass(self, monkeypatch):
        """The determinant comes from one streaming pass over the quotient
        word's blocks, with no diagram, Goeritz matrix or symmetric_inertia
        call, in both families."""
        import knotcert.certify
        import knotcert.diagram
        calls = []
        monkeypatch.setattr(knotcert.certify, "_quotient_tail_invariants",
                            logged(calls, knotcert.certify._quotient_tail_invariants))
        for name in ("braid_closure", "goeritz", "symmetric_inertia"):
            monkeypatch.setattr(knotcert.diagram, name,
                                logged(calls, getattr(knotcert.diagram, name)))
        for first, q, r in ((3, 3, 7), (2, 3, 13)):
            calls.clear()
            assert exclude_torus_knot(first, q, r).conclusion == EXCLUDED, (first, q, r)
            assert calls == ["_quotient_tail_invariants"], (first, q, r)

    def test_twist_head_is_the_full_twist(self):
        head = BraidWord(4, _TWIST_HEAD)
        assert normal_form(head) == normal_form(full_twist(4))

    def test_head_check_agrees_with_normal_form_on_the_grid(self):
        """The certificate path's full twist test, a head compare, against
        contains_full_twist on every candidate knot slope word of certify
        --grid 2..9 3..9 and its partner."""
        heads = set()
        for p, q, r, word, partner in grid_knot_slope_words():
            for w in (word, partner):
                has_head = w.letters[:len(_TWIST_HEAD)] == _TWIST_HEAD
                assert has_head == contains_full_twist(w), (p, q, r, w.letters)
                heads.add(has_head)
        assert heads == {True, False}

    def test_cell_over_the_input_limit_builds_no_word(self, monkeypatch):
        import knotcert.certify
        calls = []
        monkeypatch.setattr(knotcert.certify, "quotient_braid",
                            logged(calls, knotcert.certify.quotient_braid))
        for entry in (exclude_torus_knot, pretzel_quotient_braid):
            with pytest.raises(ValueError, match="input limit"):
                entry(20001, 3, 1)
        assert calls == []

    def test_slope_over_the_input_limit_builds_no_word(self, monkeypatch):
        """P(3,3,3) at slope r needs 36 + r letters: r = 1964 builds, 1965
        is refused by the word builder before any letter exists."""
        assert exclude_torus_knot(3, 3, 1963).conclusion == "excluded"
        assert len(pretzel_quotient_braid(3, 3, 1964)) == MAX_INPUT_LETTERS
        for entry in (exclude_torus_knot, pretzel_quotient_braid):
            with pytest.raises(ValueError, match="2001 letters, over the input limit"):
                entry(3, 3, 1965)

    @pytest.mark.parametrize("r", [10**50 + 1, 10**5000 + 1], ids=["167-bit", "16610-bit"])
    def test_genus_refuses_a_slope_over_the_input_limit(self, r):
        """quotient_knot_genus refuses the slopes whose quotient word the
        torus-knot test and the word builder refuse, with their message,
        the letter count named by its bit length through braid._shown."""
        messages = set()
        for entry in (quotient_knot_genus, exclude_torus_knot, pretzel_quotient_braid):
            with pytest.raises(ValueError) as exc:
                entry(3, 3, r)
            messages.add(str(exc.value))
        assert messages == {f"quotient word of {_shown(36 + r)} letters, over the input limit 2000"}

    @pytest.mark.parametrize("r", [1.5, "1", True, "x" * 10**6],
                             ids=["float", "str", "bool", "long-str"])
    def test_slope_must_be_an_integer(self, r):
        for entry in (exclude_torus_knot, pretzel_quotient_braid):
            with pytest.raises(ValueError, match="slopes must be integers") as exc:
                entry(3, 3, r)
            assert len(str(exc.value)) < 200

    def test_no_over_fire_on_genuine_torus_knot(self):
        d = braid_closure(torus_braid(4, 7))
        conflict, evidence = torus_knot_genus_conflict(determinant(d), positive_genus(d))
        assert conflict is False
        assert evidence["torus_candidate"] == [4, 7]
        assert evidence["torus_candidate_genus"] == evidence["knot_genus"] == 9

    def test_conflict_on_family_values(self):
        conflict, evidence = torus_knot_genus_conflict(7, 13)
        assert conflict is True
        assert evidence["torus_candidate_genus"] == 9


class TestCertifyNoSfs:
    def test_odd_family_fully_certified(self):
        report = certify_no_sfs(3, 3)
        assert report.certified
        assert report.conclusion == "no-seifert-fibered-surgery"
        assert report.family == "odd"
        assert report.parameters == {"p": 3, "q": 3}
        assert [s.r for s in report.slopes] == list(range(-8, 9))
        assert all(s.excluded for s in report.slopes)

    def test_odd_family_rule_dispatch(self):
        report = certify_no_sfs(3, 3)
        for slope in report.slopes:
            rules = [v.rule for v in slope.verdicts]
            if slope.r == 0:
                assert rules == ["toroidal-slope"]
            elif slope.r % 2 == 0:
                assert rules == ["montesinos-link-bridge", "seifert-link-taxonomy"]
            else:
                assert rules == ["montesinos-knot", "torus-knot-det-genus"]

    def test_chain_interval_contains_direct_sum(self):
        report = certify_no_sfs(3, 3)
        for slope in report.slopes:
            for v in slope.verdicts:
                if v.rule == "montesinos-knot":
                    assert v.evidence["direct_sum_in_chain_interval"] is True
                    assert v.evidence["chain"]["s_drop"] == 8
                    assert v.evidence["chain"]["sigma_window"] == [2, 6]

    def test_sigma_jump_of_six_occurs(self):
        """The narrow two-component window [2, 4] is untenable: at r = -3
        and r = -1 the signature jump across the tangle move is exactly 6,
        for every odd parameter pair.  Confirmed by two independent
        signature implementations; this pins the fact so the wide window
        stays in place."""
        from knotcert import signature_and_determinant
        block = (2, 3, 1, 2)
        for r in (-3, -1):
            tail = 12 + r
            knot = braid_closure(BraidWord(4, block * 3 + (2, 3, 3, 2) * 3 + (1,) * tail))
            partner = braid_closure(BraidWord(4, block * 1 + (2, 3, 3, 2) * 3 + (1,) * tail))
            assert (signature_and_determinant(partner)[0]
                    - signature_and_determinant(knot)[0]) == 6

    def test_even_family_fully_certified(self):
        report = certify_no_sfs(2, 3)
        assert report.certified
        assert report.family == "even"
        assert report.parameters == {"p": 2, "n": 1, "q": 3}
        assert [s.r for s in report.slopes] == [11, 13]

    def test_larger_even_parameter(self):
        report = certify_no_sfs(4, 5)
        assert report.certified
        assert [s.r for s in report.slopes] == [19, 21]

    def test_knot_slopes_read_the_word(self, monkeypatch):
        """The odd slopes read sigma and det from one streaming pass over
        the partner's and then the word's letters, build no diagram, and
        prove no full twist once the head's proof is cached.  The pass
        closes twice with its own Bareiss step, the tail region pivoted
        last, so no symmetric_inertia call is made, and the genus of every
        slope comes from the word at the shortest tail: (3,3) has eight odd
        slopes and (2,3) two, and both cost one pass and two quotient
        words."""
        import knotcert.braid
        import knotcert.certify
        import knotcert.diagram
        knotcert.certify._twist_head_contains_full_twist()
        eliminations = []
        monkeypatch.setattr(knotcert.diagram, "symmetric_inertia",
                            logged(eliminations, knotcert.diagram.symmetric_inertia))
        words = []
        monkeypatch.setattr(knotcert.certify, "quotient_braid",
                            logged(words, knotcert.certify.quotient_braid))
        calls = []
        monkeypatch.setattr(knotcert.certify, "_quotient_tail_invariants",
                            logged(calls, knotcert.certify._quotient_tail_invariants))
        for name in ("braid_closure", "faces", "goeritz"):
            monkeypatch.setattr(knotcert.diagram, name,
                                logged(calls, getattr(knotcert.diagram, name)))
        monkeypatch.setattr(knotcert.braid, "normal_form",
                            logged(calls, knotcert.braid.normal_form))
        for first in (3, 2):
            calls.clear()
            eliminations.clear()
            words.clear()
            certify_no_sfs(first, 3)
            assert calls == ["_quotient_tail_invariants"], first
            assert eliminations == [], first
            assert len(words) == 2, first

    def test_genus_needs_a_positive_word(self):
        from knotcert.certify import _positive_word_genus
        assert _positive_word_genus(BraidWord(4, (1, 2, 3) * 3)) == 3
        with pytest.raises(ValueError, match="positive"):
            _positive_word_genus(BraidWord(3, (1, -2, 1, -2)))

    @pytest.mark.parametrize("first, q", [(3, 3), (5, 3), (2, 3), (4, 5)])
    def test_torus_verdicts_match_the_direct_entry_point(self, first, q):
        """Both read the streaming pass, so the determinant is also checked
        against the diagram path, at the cell's first odd slope."""
        report = certify_no_sfs(first, q)
        torus = {slope.r: next(v for v in slope.verdicts if v.rule == "torus-knot-det-genus")
                 for slope in report.slopes if slope.r % 2}
        for r, verdict in torus.items():
            assert verdict == exclude_torus_knot(first, q, r), r
        r = min(torus)
        word = pretzel_quotient_braid(first, q, r)
        assert torus[r].evidence["determinant"] == determinant(braid_closure(word)) == abs(r)

    def test_validation(self):
        with pytest.raises(ValueError):
            certify_no_sfs(1, 3)
        with pytest.raises(ValueError):
            certify_no_sfs(3, 4)
        with pytest.raises(ValueError):
            certify_no_sfs(True, 3)
        with pytest.raises(ValueError, match="more than one component"):
            certify_no_sfs(3, 2)

    def test_assumptions_are_recorded(self):
        report = certify_no_sfs(3, 3)
        assert len(report.assumptions) >= 4
        assert all(isinstance(a, str) and a for a in report.assumptions)


class TestBranchCoverage:
    def test_single_branch_does_not_settle_a_slope(self):
        montesinos_only = SlopeReport(1, "exceptional-slope-bound",
                                      (exclude_montesinos_knot(10, -4),))
        assert not montesinos_only.excluded

    def test_inconclusive_verdict_does_not_settle_its_branch(self):
        report = SlopeReport(1, "exceptional-slope-bound", (
            exclude_montesinos_knot(2, 0),
            exclude_torus_knot(3, 3, 1),
        ))
        assert not report.excluded

    def test_toroidal_rule_settles_both_branches(self):
        report = certify_no_sfs(3, 3)
        zero = next(s for s in report.slopes if s.r == 0)
        assert zero.excluded


DROP = object()

# Tampered certificates: the JSON path changed (keys and indices, () for the
# whole file), the value put there (DROP deletes the entry, an index one
# past the end appends, a function of the data gives the value) and a part
# of the ValueError it must raise.  Slope
# 9 of the odd family is r = 1, which is excluded.
MALFORMED = {
    "not-an-object": ((), [], "a certificate must be an object"),
    "missing-family": (("family",), DROP, "certificate.family: recorded nothing"),
    "missing-verdicts": (("slopes", 0, "verdicts"), DROP, "certificate.slopes[0].verdicts: "),
    "null-slopes": (("slopes",), None, "certificate.slopes: recorded None"),
    "string-r": (("slopes", 0, "r"), "x", "certificate.slopes[0].r: recorded 'x'"),
    "unknown-key": (("bogus",), 1, "certificate.bogus: recorded 1, expected nothing"),
    "bogus-family": (("family",), "bogus", "certificate.family: recorded 'bogus'"),
    "missing-parameter": (("parameters", "q"), DROP, "got None"),
    "string-parameter": (("parameters", "p"), "x", "got 'x'"),
    "bool-parameter": (("parameters", "q"), True, "got True"),
    "int-assumption": (("assumptions", 7), 1, "certificate.assumptions[7]: recorded 1"),
    "int-note": (("notes",), [1], "certificate.notes[0]: recorded 1"),
    "empty-evidence": (("slopes", 16, "verdicts", 0, "evidence"), {}, "has no evidence"),
    "no-slopes": (("slopes",), [], "certificate.slopes[0]: recorded nothing"),
    "dropped-slope": (("slopes", 1), DROP, "certificate.slopes[1].r: recorded -6, expected -7"),
    "added-slope": (("slopes", 17), lambda data: {**data["slopes"][-1], "r": 10},
                    "certificate.slopes[17]: recorded an object"),
    "odd-family-even-p": (("parameters", "p"), 4, "certificate.family: recorded 'odd'"),
    "even-family-wrong-n": (("parameters", "n"), 2, "certificate.parameters.n: recorded 2"),
    "edited-assumption": (("assumptions", 0), "anything", "certificate.assumptions[0]: "),
    "dropped-note": (("notes", 0), DROP, "certificate.notes[0]: recorded nothing"),
    "bool-schema-version": (("schema_version",), True, "certificate.schema_version: "
                                                       "recorded True, expected 1"),
    "float-schema-version": (("schema_version",), 1.0, "recorded 1.0, expected 1"),
    "int-excluded": (("slopes", 9, "excluded"), 1, "certificate.slopes[9].excluded: "
                                                   "recorded 1, expected True"),
    "float-r": (("slopes", 9, "r"), 1.0, "certificate.slopes[9].r: recorded 1.0, expected 1"),
    "bool-r": (("slopes", 9, "r"), True, "certificate.slopes[9].r: recorded True, expected 1"),
    "even-family-float-n": (("parameters", "n"), 1.0, "certificate.parameters.n: "
                                                      "recorded 1.0, expected 1"),
    "list-rule": (("slopes", 9, "verdicts", 0, "rule"), ["montesinos-knot"],
                  "certificate.slopes[9].verdicts: unknown rule"),
    "null-conclusion": (("slopes", 9, "verdicts", 0, "conclusion"), None,
                        "certificate.slopes[9].verdicts: unknown conclusion None"),
    "list-evidence": (("slopes", 9, "verdicts", 0, "evidence"), [1], "has no evidence"),
    "wrong-parity": (("slopes", 9, "parity"), "even", "certificate.slopes[9].parity: "
                                                      "recorded 'even', expected 'odd'"),
    "wrong-admitted-by": (("slopes", 9, "admitted_by"), "period-two-lens-factor",
                          "certificate.slopes[9].admitted_by: "),
    "list-slope": (("slopes", 9), [1], "certificate.slopes[9]: recorded an array"),
    "object-verdicts": (("slopes", 9, "verdicts"), {"rule": "montesinos-knot"},
                        "certificate.slopes[9].verdicts: recorded an object"),
    "list-parameters": (("parameters",), [3, 3], "got an array"),
    "p-over-input-limit": (("parameters", "p"), 401, "over the input limit 2000"),
}


def tampered(data, path: tuple, value):
    """data with the entry at path set to value, as MALFORMED describes."""
    if callable(value):
        value = value(data)
    if not path:
        return value
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    if value is DROP:
        del target[last]
    elif isinstance(target, list) and last == len(target):
        target.append(value)
    else:
        target[last] = value
    return data


class TestSerialization:
    def test_report_round_trip(self):
        """Also: an edit to to_dict() output, of the report, a slope or a
        verdict, never reaches the report, another slope or the next to_json()."""
        report = certify_no_sfs(3, 3)
        text = report.to_json()
        back = CertificateReport.from_json(text)
        assert back == report
        assert back.to_json() == text
        data = report.to_dict()
        data["parameters"]["p"] = 0
        data["slopes"][0]["verdicts"][0]["evidence"]["components"] = "edited"
        assert "edited" not in json.dumps(data["slopes"][1:])
        report.slopes[1].to_dict()["verdicts"][0]["evidence"]["components"] = "edited"
        report.slopes[2].verdicts[0].to_dict()["evidence"]["components"] = "edited"
        assert report.to_json() == text and report.parameters["p"] == 3

    def test_tampered_conclusion_is_rejected(self):
        data = json.loads(certify_no_sfs(3, 3).to_json())
        data["conclusion"] = "inconclusive"
        with pytest.raises(ValueError, match="conclusion"):
            CertificateReport.from_dict(data)

    def test_tampered_excluded_is_rejected(self):
        data = json.loads(certify_no_sfs(3, 3).to_json())
        for slope in data["slopes"]:
            for verdict in slope["verdicts"]:
                verdict["conclusion"] = "inconclusive"
        with pytest.raises(ValueError, match="excluded"):
            CertificateReport.from_dict(data)

    @pytest.mark.parametrize("p, q, prefix", [
        (25, 25, "0fe297c887d318fa"),
        (51, 51, "9c32f32064b97327"),
        (10, 9, "3fc8117932b6786f"),
    ])
    def test_certificate_bytes_are_pinned(self, p, q, prefix):
        """SHA-256 prefixes of certificates written by earlier versions: a
        change to any verdict, evidence value or the serialization shows."""
        text = certify_no_sfs(p, q).to_json()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix

    def test_grid_certificate_bytes_are_pinned(self):
        """One SHA-256 prefix over the 200 certificates of p in 2..21 and
        odd q in 3..21, p outer, each text followed by a newline, as
        written by earlier versions."""
        digest = hashlib.sha256()
        for p in range(2, 22):
            for q in range(3, 22, 2):
                digest.update((certify_no_sfs(p, q).to_json() + "\n").encode())
        assert digest.hexdigest()[:16] == "bfcf8217587afbe4"

    def test_every_grid_certificate_round_trips(self):
        for p in range(2, 10):
            for q in range(3, 10, 2):
                text = certify_no_sfs(p, q).to_json()
                assert CertificateReport.from_json(text).to_json() == text, (p, q)

    @pytest.mark.parametrize("key, value", [
        ("q", -10 ** 4299), ("q", 2 * 10 ** 4298), ("p", -10 ** 4299), ("p", 10 ** 4299),
        ("p", "x" * 10 ** 5),
    ], ids=["negative-q", "even-q", "negative-p", "over-limit-p", "string-p"])
    def test_huge_parameter_error_is_short(self, key, value):
        """A parameter of thousands of digits is named in a short message."""
        data = json.loads(certify_no_sfs(3, 3).to_json())
        data["parameters"][key] = value
        with pytest.raises(ValueError) as exc:
            CertificateReport.from_json(json.dumps(data))
        assert len(str(exc.value)) < 200, str(exc.value)[:300]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_rejected(self, case):
        path, value, message = MALFORMED[case]
        cell = (2, 3) if case.startswith("even-family") else (3, 3)
        data = tampered(json.loads(certify_no_sfs(*cell).to_json()), path, value)
        with pytest.raises(ValueError, match=re.escape(message)):
            CertificateReport.from_json(json.dumps(data))

    @pytest.mark.parametrize("prefix, suffix", [("", ""), ('{"schema_version": 1, "parameters": ', "}")])
    def test_deeply_nested_json_is_rejected(self, prefix, suffix):
        text = prefix + "[" * 100000 + "]" * 100000 + suffix
        with pytest.raises(ValueError, match="nests too deeply"):
            CertificateReport.from_json(text)

    @pytest.mark.parametrize("field", ["excluded", "parity"])
    @pytest.mark.parametrize("i", [0, 9, 16])
    def test_error_names_the_differing_path(self, i, field):
        data = json.loads(certify_no_sfs(3, 5).to_json())
        slope = data["slopes"][i]
        slope[field] = {True: False, False: True, "odd": "even", "even": "odd"}[slope[field]]
        with pytest.raises(ValueError, match=re.escape(f"certificate.slopes[{i}].{field}: ")):
            CertificateReport.from_dict(data)

    LONG = "x" * 10**6

    @pytest.mark.parametrize("path, value", [
        (("parameters", "p"), LONG),
        (("schema_version",), LONG),
        (("slopes", 9, "verdicts", 0, "rule"), LONG),
        (("slopes", 9, "verdicts", 0, "conclusion"), LONG),
        (("slopes", 9, "verdicts", 0), {"rule": LONG, "conclusion": EXCLUDED, "evidence": {}}),
    ], ids=["p", "schema_version", "rule", "conclusion", "rule-without-evidence"])
    def test_error_text_is_bounded(self, path, value):
        """A megabyte string in the file does not make a megabyte message."""
        data = tampered(json.loads(certify_no_sfs(3, 3).to_json()), path, value)
        with pytest.raises(ValueError) as exc:
            CertificateReport.from_dict(data)
        assert len(str(exc.value)) < 200

    def test_schema_version_is_stamped(self):
        data = json.loads(certify_no_sfs(2, 3).to_json())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["conclusion"] == "no-seifert-fibered-surgery"

    def test_verdict_round_trip(self):
        v = exclude_montesinos_knot(10, -4)
        assert ExclusionVerdict.from_dict(v.to_dict()) == v

    @pytest.mark.parametrize("rule", [["montesinos-knot"], {"a": 1}, None, 1])
    def test_verdict_with_a_non_string_rule_is_rejected(self, rule):
        d = {**exclude_montesinos_knot(10, -4).to_dict(), "rule": rule}
        with pytest.raises(ValueError, match="unknown rule"):
            ExclusionVerdict.from_dict(d)

    def test_json_is_plain_data(self):
        data = json.loads(certify_no_sfs(2, 3).to_json())
        assert set(data) >= {"schema_version", "family", "parameters",
                             "assumptions", "slopes", "conclusion"}
        assert isinstance(data["slopes"], list)
        assert all(isinstance(s["verdicts"], list) for s in data["slopes"])


def random_json_value(rng, depth: int = 0):
    """A nested value of the types _json_text writes, with escapes to make:
    control, non-ASCII, astral and lone-surrogate characters, ints past 64
    bits, None, booleans, and empty and nested containers."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 64, 65, 200)))
    if kind in (3, 4):
        return random_json_string(rng)
    if kind == 5:
        return [random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {random_json_string(rng): random_json_value(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def random_json_string(rng) -> str:
    ranges = ((0, 0x20), (0x20, 0x7f), (0x7f, 0x800), (0xd800, 0xe000), (0x10000, 0x10400))
    return "".join(chr(rng.randrange(*rng.choice(ranges))) for _ in range(rng.randrange(6)))


class TestJsonText:
    """_json_text writes what the json module writes with indent=2 and sorted keys."""

    def test_every_grid_certificate_matches_json_dumps(self):
        """Both through _json_text and through to_json, which writes each
        verdict tuple once."""
        for p in range(2, 16):
            for q in range(3, 16, 2):
                report = certify_no_sfs(p, q)
                data = report.to_dict()
                expected = json.dumps(data, indent=2, sort_keys=True)
                assert _json_text(data) == expected and report.to_json() == expected, (p, q)

    def test_random_values_match_json_dumps(self, rng):
        for _ in range(10000):
            value = random_json_value(rng)
            assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True), value

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), {1, 2}, [1, [2.0]], {"a": (1,)}, {1: "a"},
    ], ids=["float", "tuple", "set", "nested-float", "nested-tuple", "int-key"])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


class TestSharedVerdicts:
    """An odd cell's even slopes hold one verdict pair, and to_json writes
    each verdict tuple once: its text must land at exactly the slopes that
    hold that tuple."""

    @staticmethod
    def dumped(report) -> str:
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def with_link_verdicts(report, tuples):
        """report with tuples[i] as the verdicts of its i-th nonzero even slope."""
        even = [s.r for s in report.slopes if s.r % 2 == 0 and s.r]
        return CertificateReport(report.parameters, tuple(
            dataclasses.replace(s, verdicts=tuples[even.index(s.r)]) if s.r in even else s
            for s in report.slopes))

    def test_even_slopes_hold_one_pair(self):
        report = certify_no_sfs(3, 5)
        pairs = [s.verdicts for s in report.slopes if s.r % 2 == 0 and s.r]
        assert len(pairs) == 8 and all(v is pairs[0] for v in pairs)
        assert [v.rule for v in pairs[0]] == ["montesinos-link-bridge", "seifert-link-taxonomy"]
        written = [s["verdicts"] for s in report.to_dict()["slopes"] if s["r"] % 2 == 0 and s["r"]]
        assert written[0] == written[1] and written[0] is not written[1]

    def test_equal_but_distinct_verdicts(self):
        report = self.with_link_verdicts(certify_no_sfs(3, 5), [
            (exclude_montesinos_link_two_components(3, 5), exclude_seifert_link_two_components(3, 5))
            for _ in range(8)])
        assert report.to_json() == self.dumped(report) == certify_no_sfs(3, 5).to_json()

    def test_different_verdicts(self):
        """Five distinct tuples, two of them at several slopes and
        interleaved: the cell's pair, another pair, an empty one, the
        cell's pair reversed and another cell's pair."""
        pair = certify_no_sfs(3, 5).slopes[0].verdicts
        other = (exclude_seifert_link_two_components(5, 7), exclude_montesinos_knot(10, -4))
        tuples = [pair, other, (), pair[::-1], other, pair, certify_no_sfs(5, 3).slopes[0].verdicts,
                  other]
        report = self.with_link_verdicts(certify_no_sfs(3, 5), tuples)
        text = report.to_json()
        assert text == self.dumped(report)
        assert [len(s["verdicts"]) for s in json.loads(text)["slopes"] if s["r"] % 2 == 0
                and s["r"]] == [len(t) for t in tuples]

    def test_loaded_report(self):
        text = certify_no_sfs(7, 3).to_json()
        report = CertificateReport.from_json(text)
        assert report.to_json() == self.dumped(report) == text
