"""End-to-end runs of the command line front end via main(argv)."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import knotcert
from knotcert import cli
from knotcert.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from knotcert.braid import MAX_INPUT_LETTERS, MAX_INPUT_STRANDS

TREFOIL = ["--braid", "1 1 1", "-n", "2"]


class TestInvariants:
    def test_text_output(self, capsys):
        assert main(["invariants", *TREFOIL]) == EXIT_OK
        out = capsys.readouterr().out
        assert "determinant:     3" in out
        assert "signature" in out and "-2" in out

    def test_json_output(self, capsys):
        assert main(["invariants", "--json", *TREFOIL]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["determinant"] == 3
        assert record["signature"] == -2
        assert record["rasmussen"] == 2
        assert record["genus"] == 1
        assert record["positive"] is True

    def test_positive_knot_has_one_genus_computation(self, monkeypatch, capsys):
        """The genus is computed once, and s is twice it."""
        import knotcert.invariants
        calls = []
        genus = knotcert.invariants.positive_genus

        def counted_genus(d):
            calls.append("genus")
            return genus(d)

        monkeypatch.setattr(cli, "positive_genus", counted_genus)
        monkeypatch.setattr(knotcert.invariants, "positive_genus", counted_genus)
        assert main(["invariants", "--json", *TREFOIL]) == EXIT_OK
        assert calls == ["genus"]
        record = json.loads(capsys.readouterr().out)
        assert (record["genus"], record["rasmussen"]) == (1, 2)

    def test_pretzel_with_negative_leading_twist(self, capsys):
        # argparse needs the = form when the value starts with a dash
        assert main(["invariants", "--json", "--pretzel=-2,3,7"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["determinant"] == 1
        assert record["components"] == 1

    def test_link_gets_notes_instead_of_knot_invariants(self, capsys):
        assert main(["invariants", "--json", "--braid", "1 1", "-n", "2"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["components"] == 2
        assert record["signature"] is None
        assert any("components" in n for n in record["notes"])

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "inv.json"
        assert main(["invariants", "--json", "--out", str(path), *TREFOIL]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["determinant"] == 3

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "inv.json"
        assert main(["invariants", "--out", str(path), *TREFOIL]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_braid_without_strand_count_is_usage_error(self, capsys):
        assert main(["invariants", "--braid", "1 1 1"]) == EXIT_USAGE
        assert "strand count" in capsys.readouterr().err

    def test_bad_pretzel_token_is_usage_error(self, capsys):
        assert main(["invariants", "--pretzel", "3,x,3"]) == EXIT_USAGE
        assert "'x'" in capsys.readouterr().err

    def test_pretzel_over_crossing_limit_is_usage_error(self, capsys):
        twists = f"3,{MAX_INPUT_LETTERS - 5},-3"
        assert main(["invariants", "--pretzel", twists]) == EXIT_USAGE
        assert "input limit" in capsys.readouterr().err

    def test_braid_over_input_limits_is_usage_error(self, capsys):
        long_word = " ".join(["1"] * (MAX_INPUT_LETTERS + 1))
        for braid, strands in (("1", MAX_INPUT_STRANDS + 1), (long_word, 2)):
            assert main(["invariants", "--braid", braid, "-n", str(strands)]) == EXIT_USAGE
            assert "input limit" in capsys.readouterr().err


class TestNormalForm:
    def test_nf_of_full_twist_word(self, capsys):
        word = " ".join(["1 2 3"] * 4)
        assert main(["nf", "--braid", word, "-n", "4", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["infimum"] == 2
        assert payload["canonical_length"] == 0
        assert payload["factors"] == []

    def test_equality_decision(self, capsys):
        assert main(["nf", "--braid", "1 2 1", "-n", "3",
                     "--equal", "2 1 2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "equal"
        assert main(["nf", "--braid", "1 2 1", "-n", "3",
                     "--equal", "1 2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "not equal"

    def test_bad_token_is_usage_error(self, capsys):
        assert main(["nf", "--braid", "1 z", "-n", "3"]) == EXIT_USAGE
        assert "'z'" in capsys.readouterr().err


class TestHomfly:
    def test_trefoil_terms(self, capsys):
        assert main(["homfly", "--json", *TREFOIL]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert {tuple(t[:2]): t[2] for t in payload["terms"]} == {
            (2, 0): 2, (2, 2): 1, (4, 0): -1}
        assert payload["mfw_bound"] == 2

    def test_text_output_has_bound(self, capsys):
        assert main(["homfly", *TREFOIL]) == EXIT_OK
        assert "mfw bound:  2" in capsys.readouterr().out

    def test_strand_guard_is_usage_error(self, capsys):
        word = " ".join(str(i) for i in range(1, 8))
        assert main(["homfly", "--braid", word, "-n", "8"]) == EXIT_USAGE
        assert "strands" in capsys.readouterr().err
        word = " ".join(["1 2 3 4 5"] * 400)
        assert main(["homfly", "--braid", word, "-n", "6"]) == EXIT_USAGE
        assert "letters" in capsys.readouterr().err


class TestCertify:
    def test_smallest_odd_pair_certifies(self, capsys):
        assert main(["certify", "3", "3", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"] == {"p": 3, "q": 3}
        assert all(s["excluded"] for s in report["slopes"])

    def test_text_summary(self, capsys):
        assert main(["certify", "2", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "P(2,3,3)" in out
        assert "conclusion" in out
        assert "OPEN" not in out

    def test_even_q_is_usage_error(self, capsys):
        assert main(["certify", "3", "2"]) == EXIT_USAGE
        assert "more than one component" in capsys.readouterr().err

    def test_removed_seed_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "3", "3", "--seed", "7"])
        assert exc.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_over_input_limit_is_usage_error(self, capsys):
        # The odd family's longest word, at r = 8: 6*(331+3)+8 = 2012 letters.
        assert main(["certify", "331", "3"]) == EXIT_USAGE
        assert "up to 2012 letters, over the input limit" in capsys.readouterr().err

    @pytest.mark.parametrize("first, q, longest", [(332, 3, 2011), (2, 333, 2011)])
    def test_refusal_names_the_longest_word(self, first, q, longest, capsys):
        # An even cell's longest word, at r = 4q+1, has 6*(first+q)+1 letters.
        assert main(["certify", str(first), str(q)]) == EXIT_USAGE
        assert f"words of up to {longest} letters" in capsys.readouterr().err

    @pytest.mark.parametrize("first, q", [(330, 3), (329, 3), (2, 331)])
    def test_cells_at_the_input_limit_certify(self, first, q, capsys):
        # Their longest words have 1,999, 2,000 and 1,999 letters; the limit is 2,000.
        assert main(["certify", str(first), str(q)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("conclusion: no-seifert-fibered-surgery\n")

    def test_wrong_arity_is_usage_error(self, capsys):
        assert main(["certify", "3"]) == EXIT_USAGE
        assert "two parameters" in capsys.readouterr().err

    def test_out_writes_certificate(self, tmp_path):
        path = tmp_path / "cert.json"
        assert main(["certify", "3", "3", "--out", str(path)]) == EXIT_OK
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "dir" / "x.json"
        assert main(["certify", "3", "3", "--out", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_inconclusive_report_exits_one(self, capsys, monkeypatch):
        class Stub:
            certified = False

            def to_json(self):
                return "{}"

        monkeypatch.setattr(cli, "certify_no_sfs", lambda p, q: Stub())
        assert main(["certify", "3", "3", "--json"]) == EXIT_INCONCLUSIVE

    def test_internal_failure_exits_three(self, capsys, monkeypatch):
        def boom(p, q):
            raise AssertionError("enclosure check tripped")

        monkeypatch.setattr(cli, "certify_no_sfs", boom)
        assert main(["certify", "3", "3"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_closed_stdout_exits_without_traceback(self):
        # `knotcert certify 3 3 | head -0`, made deterministic: the pipe has
        # no reader before the process starts.
        src = str(pathlib.Path(knotcert.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knotcert.cli", "certify", "3", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestErrorText:
    TOKEN = "x" * 100_000

    @pytest.mark.parametrize("argv", [
        ["invariants", "--pretzel", f"3,{TOKEN},3"],
        ["nf", "--braid", f"1 {TOKEN}", "-n", "3"],
        ["certify", "--grid", f"3..{TOKEN}", "3..3"],
        ["certify", "--grid", "3..3", f"{TOKEN}..3"],
    ], ids=["pretzel", "braid", "grid-first", "grid-q"])
    def test_bad_token_is_shown_short(self, argv, capsys):
        """A 100,000-character bad token gives a short error line."""
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200, err[:300]

    BIG = "9" * 4000  # an int token under CPython's 4,300-digit parsing limit

    @pytest.mark.parametrize("argv", [
        ["nf", "--braid", f"1 {BIG}", "-n", "3"],
        ["nf", "--braid", "1", "-n", BIG],
        ["invariants", "--braid", "1", "-n", BIG],
        ["homfly", "--braid", "1", "-n", BIG],
        ["invariants", "--pretzel", f"3,{BIG},3"],
    ], ids=["nf-letter", "nf-strands", "invariants-strands", "homfly-strands", "pretzel"])
    def test_big_integer_is_shown_short(self, argv, capsys):
        """A 4,000-digit integer that parses is named by its size, not its digits."""
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
        assert len(err) < 200 and "-bit integer>" in err, err[:300]

    @pytest.mark.parametrize("argv", [
        ["certify", "3", TOKEN],
        ["nf", "--braid", "1", "-n", TOKEN],
        ["homfly", "--braid", "1", "-n", TOKEN],
        ["invariants", "--braid", "1", "-n", TOKEN],
    ], ids=["certify-param", "nf-strands", "homfly-strands", "invariants-strands"])
    def test_bad_int_argument_is_shown_short(self, argv, capsys):
        """argparse's usage error names a bad integer argument bounded."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid int value: 'xxx" in err
        assert all(len(line) < 200 for line in err.splitlines()), err[:300]


class TestCertifyGrid:
    def test_grid_writes_one_file_per_odd_q_cell(self, tmp_path, capsys):
        assert main(["certify", "--grid", "2..3", "3..4",
                     "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["certificate-p2-q3.json", "certificate-p3-q3.json"]
        assert "q=4: skipped" in out
        for name in names:
            report = json.loads((tmp_path / name).read_text())
            assert report["conclusion"] == "no-seifert-fibered-surgery"

    def test_grid_range_of_one_value(self, capsys):
        assert main(["certify", "--grid", "3", "3..5"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "p=3 q=3: certified (17 slopes)",
            "p=3 q=4: skipped (q even: P(p,q,q) is not a knot)",
            "p=3 q=5: certified (17 slopes)"]

    def test_grid_below_two_is_usage_error(self, capsys):
        assert main(["certify", "--grid", "1..3", "3..3"]) == EXIT_USAGE
        assert "start at 2" in capsys.readouterr().err

    def test_grid_json_mode(self, capsys):
        assert main(["certify", "--grid", "3..3", "3..3", "--json"]) == EXIT_OK
        cells = json.loads(capsys.readouterr().out)["grid"]
        assert cells == [{"p": 3, "q": 3, "status": "certified", "slopes": 17}]

    def test_grid_over_input_limit_writes_nothing(self, tmp_path, capsys):
        assert main(["certify", "--grid", "3..331", "3..3",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        assert "2012 letters, over the input limit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["certify", "--grid", "3..3", "3..3", "--out", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_all_even_grid_is_usage_error(self, tmp_path, capsys):
        # The 10**12-row grid must fail before any cell is listed.
        for p_range in ("2..2", f"2..{10**12}"):
            out = tmp_path / p_range
            assert main(["certify", "--grid", p_range, "4..4", "--out", str(out)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert "no odd-q" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_grid_and_params_conflict(self, capsys):
        assert main(["certify", "3", "3", "--grid", "2..2", "3..3"]) == EXIT_USAGE

    def test_malformed_range_is_usage_error(self, capsys):
        assert main(["certify", "--grid", "3..x", "3..3"]) == EXIT_USAGE
        assert "range" in capsys.readouterr().err


GOLDEN = [
    (["invariants", "--braid", "1 1 1", "-n", "2"], """\
crossings:       3
components:      1
seifert circles: 2
writhe:          3
positive:        yes
determinant:     3
signature:       -2
s:               2
genus:           1
slice genus:     1
"""),
    (["invariants", "--braid", "1 1 1", "-n", "2", "--json"], """\
{
  "components": 1,
  "crossings": 3,
  "determinant": 3,
  "genus": 1,
  "notes": [],
  "positive": true,
  "rasmussen": 2,
  "seifert_circles": 2,
  "signature": -2,
  "slice_genus": 1,
  "writhe": 3
}
"""),
    (["invariants", "--pretzel=-2,3,7"], """\
crossings:       12
components:      1
seifert circles: 3
writhe:          12
positive:        yes
determinant:     1
signature:       -8
s:               10
genus:           5
slice genus:     5
"""),
    (["invariants", "--pretzel=-2,3,7", "--json"], """\
{
  "components": 1,
  "crossings": 12,
  "determinant": 1,
  "genus": 5,
  "notes": [],
  "positive": true,
  "rasmussen": 10,
  "seifert_circles": 3,
  "signature": -8,
  "slice_genus": 5,
  "writhe": 12
}
"""),
    (["nf", "--braid", "1 2 1", "-n", "3"], """\
strands:          3
infimum:          1
canonical length: 0
"""),
    (["nf", "--braid", "1 2 1", "-n", "3", "--json"], """\
{
  "canonical_length": 0,
  "factors": [],
  "infimum": 1,
  "strands": 3,
  "supremum": 1
}
"""),
    (["nf", "--braid", "1 2 1", "-n", "3", "--equal", "2 1 2"], """\
equal
"""),
    (["nf", "--braid", "1 2 1", "-n", "3", "--equal", "2 1 2", "--json"], """\
{
  "equal": true
}
"""),
    (["homfly", "--braid", "1 1 1", "-n", "2"], """\
polynomial: 2*a^2*z^0 + 1*a^2*z^2 + -1*a^4*z^0
mfw bound:  2
"""),
    (["homfly", "--braid", "1 1 1", "-n", "2", "--json"], """\
{
  "mfw_bound": 2,
  "polynomial": "2*a^2*z^0 + 1*a^2*z^2 + -1*a^4*z^0",
  "terms": [
    [
      2,
      0,
      2
    ],
    [
      2,
      2,
      1
    ],
    [
      4,
      0,
      -1
    ]
  ]
}
"""),
    (["certify", "3", "3"], """\
P(3,3,3)  family=odd
  r= -8  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r= -7  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r= -6  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r= -5  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r= -4  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r= -3  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r= -2  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r= -1  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r=  0  excluded  [toroidal-slope:excluded]
  r=  1  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r=  2  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r=  3  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r=  4  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r=  5  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r=  6  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
  r=  7  excluded  [montesinos-knot:excluded, torus-knot-det-genus:excluded]
  r=  8  excluded  [montesinos-link-bridge:excluded, seifert-link-taxonomy:excluded]
conclusion: no-seifert-fibered-surgery
"""),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_is_pinned(argv, expected, capsys):
    """Exact standard output of the README examples: labels, padding,
    JSON indentation and key order are all part of the interface."""
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("module", ["knotcert"] + [
    f"knotcert.{m.name}" for m in pkgutil.iter_modules(knotcert.__path__)])
def test_public_names_resolve(module):
    """Every __all__ entry names an attribute.  A stale entry left by a
    removal breaks `from module import *` but not a plain import."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
