"""Command line front end.

Four subcommands: ``invariants`` reports diagram invariants of a braid
closure or pretzel, ``nf`` prints Garside normal forms and decides word
equality, ``homfly`` prints the two-variable polynomial with its braid
index bound, and ``certify`` runs the no-Seifert-fibered-surgery pipeline
for one parameter pair or a parameter grid.

Exit codes: 0 success (certified, for ``certify``), 1 inconclusive
certification, 2 usage or parameter error, 3 internal consistency failure,
141 standard output closed early (as for a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from .braid import BraidWord, _shown, normal_form, parse_braid
from .certify import CertificateReport, _json_text, _pretzel_family, certify_no_sfs
from .diagram import (
    LinkDiagram,
    braid_closure,
    component_count,
    determinant,
    is_positive,
    pretzel_diagram,
    seifert_circle_count,
    signature_and_determinant,
    writhe,
)
from .homfly import homfly, mfw_bound
from .invariants import positive_genus

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(token)}") from None


def _parse_word(args: argparse.Namespace) -> BraidWord:
    if args.strands is None:
        raise ValueError("braid input needs a strand count (-n)")
    return parse_braid(args.braid, args.strands)


def _diagram_from_args(args: argparse.Namespace) -> LinkDiagram:
    if args.braid is not None:
        return braid_closure(_parse_word(args))
    twists = []
    for tok in args.pretzel.split(","):
        try:
            twists.append(int(tok))
        except ValueError:
            raise ValueError(f"bad pretzel twist count {_shown(tok)}: not an integer") from None
    return pretzel_diagram(twists)


def _write(path: str | pathlib.Path, text: str):
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def _fields(pairs: list[tuple[str, object]]) -> list[str]:
    """``label: value`` lines, each value two columns past the longest label."""
    width = max(len(label) for label, _ in pairs) + 2
    return [f"{label + ':':<{width}}{value}" for label, value in pairs]


def _emit(args: argparse.Namespace, record: dict, lines: list[str], out: str | None):
    """Print a result, or write it to the file ``out``: ``record`` as indented,
    key-sorted JSON with --json, else the text ``lines``."""
    text = _json_text(record) if args.json else "\n".join(lines)
    if out:
        _write(out, text)
    else:
        print(text)


def invariant_record(d: LinkDiagram) -> dict:
    """Every invariant the engines certify for this diagram.  None marks
    one they cannot compute for it, with the reason in ``notes``."""
    comps = component_count(d)
    pos = is_positive(d)
    notes: list[str] = []
    sig = None
    if comps == 1:
        sig, det = signature_and_determinant(d)
    else:
        det = determinant(d)
        notes.append(f"signature: needs a knot, diagram has {comps} components")
    ras = gen = None
    if comps == 1 and pos:
        gen = positive_genus(d)
        ras = 2 * gen  # the Rasmussen invariant of a positive knot
    elif comps == 1:
        notes.append("s, genus, slice genus: certified only for positive diagrams")
    else:
        notes.append("s, genus, slice genus: need a positive knot diagram")
    return {
        "crossings": len(d.crossings),
        "components": comps,
        "seifert_circles": seifert_circle_count(d),
        "writhe": writhe(d),
        "positive": pos,
        "determinant": det,
        "signature": sig,
        "rasmussen": ras,
        "genus": gen,
        "slice_genus": gen,
        "notes": notes,
    }


def _cmd_invariants(args: argparse.Namespace) -> int:
    record = invariant_record(_diagram_from_args(args))
    # One field per known invariant, in the record's order; notes follow.
    shown = {**record, "positive": "yes" if record["positive"] else "no", "notes": None}
    lines = _fields([("s" if key == "rasmussen" else key.replace("_", " "), value)
                     for key, value in shown.items() if value is not None])
    lines += [f"unavailable: {note}" for note in record["notes"]]
    _emit(args, record, lines, args.out)
    return EXIT_OK


def _cmd_nf(args: argparse.Namespace) -> int:
    nf = normal_form(_parse_word(args))
    if args.equal is not None:
        same = nf == normal_form(parse_braid(args.equal, args.strands))
        _emit(args, {"equal": same}, ["equal" if same else "not equal"], args.out)
        return EXIT_OK
    factors = [" ".join(str(i + 1) for i in f.reduced_word()) for f in nf.factors]
    record = {"strands": nf.strands, "infimum": nf.infimum, "supremum": nf.supremum,
              "canonical_length": nf.canonical_length, "factors": factors}
    lines = _fields([(key.replace("_", " "), record[key])
                     for key in ("strands", "infimum", "canonical_length")])
    lines += [f"factor {k}: {f}" for k, f in enumerate(factors, 1)]
    _emit(args, record, lines, args.out)
    return EXIT_OK


def _cmd_homfly(args: argparse.Namespace) -> int:
    poly = homfly(_parse_word(args))
    bound = mfw_bound(poly)
    record = {"polynomial": str(poly), "terms": [[i, j, c] for i, j, c in poly.terms()],
              "mfw_bound": bound}
    _emit(args, record, _fields([("polynomial", poly), ("mfw bound", bound)]), args.out)
    return EXIT_OK


def _summarize(report: CertificateReport) -> str:
    par = report.parameters
    lines = [f"P({par['p']},{par['q']},{par['q']})  family={report.family}"]
    for slope in report.slopes:
        rules = ", ".join(f"{v.rule}:{v.conclusion}" for v in slope.verdicts)
        mark = "excluded" if slope.excluded else "OPEN"
        lines.append(f"  r={slope.r:>3}  {mark:<9} [{rules}]")
    lines.append(f"conclusion: {report.conclusion}")
    return "\n".join(lines)


def _parse_range(text: str, name: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad {name} range {_shown(text)}: expected MIN..MAX") from None
    if a > b:
        raise ValueError(f"bad {name} range {_shown(text)}: empty")
    return range(a, b + 1)


def _cmd_certify_grid(args: argparse.Namespace) -> int:
    p_range = _parse_range(args.grid[0], "first-parameter")
    q_range = _parse_range(args.grid[1], "q")
    if p_range.start < 2 or q_range.start < 2:
        raise ValueError("grid parameters start at 2")
    last_odd_q = q_range[-1] if q_range[-1] % 2 else q_range[-1] - 1
    if last_odd_q < q_range.start:
        raise ValueError("grid contains no odd-q cells to certify")
    # The family refuses a cell past the input limit.  The longest quotient word
    # is at the last odd q, in the last row or, if that is even-family, the one above.
    for first in p_range[-2:]:
        _pretzel_family(first, last_odd_q)
    if args.out:
        pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    cells = []
    for p in p_range:
        for q in q_range:
            if q % 2 == 0:
                cells.append({"p": p, "q": q, "status": "skipped",
                              "reason": "q even: P(p,q,q) is not a knot"})
                continue
            report = certify_no_sfs(p, q)
            cells.append({"p": p, "q": q,
                          "status": "certified" if report.certified else "inconclusive",
                          "slopes": len(report.slopes)})
            if args.out:
                _write(pathlib.Path(args.out, f"certificate-p{p}-q{q}.json"), report.to_json())
    lines = [f"p={cell['p']} q={cell['q']}: {cell['status']} "
             + (f"({cell['slopes']} slopes)" if "slopes" in cell else f"({cell['reason']})")
             for cell in cells]
    _emit(args, {"grid": cells}, lines, None)
    return EXIT_INCONCLUSIVE if any(c["status"] == "inconclusive" for c in cells) else EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.grid:
        if args.params:
            raise ValueError("give either two parameters or --grid, not both")
        return _cmd_certify_grid(args)
    if len(args.params) != 2:
        raise ValueError("certify needs two parameters: FIRST Q (or --grid)")
    first, q = args.params
    report = certify_no_sfs(first, q)
    certificate = report.to_json()
    if args.out:
        _write(args.out, certificate)
    # Printed as encoded by CertificateReport.to_json, the bytes a file gets.
    print(certificate if args.json else _summarize(report))
    return EXIT_OK if report.certified else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--out", metavar="PATH",
                        help="write the result to PATH (a directory for --grid)")

    parser = argparse.ArgumentParser(
        prog="knotcert",
        description="Exact knot invariants and Seifert fibered surgery "
                    "obstruction certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", parents=[common],
                         help="invariants of a braid closure or pretzel diagram")
    src = inv.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", metavar="WORD",
                     help="whitespace-separated signed generator indices, e.g. '1 1 1'")
    src.add_argument("--pretzel", metavar="T1,T2,...",
                     help="comma-separated signed twist counts, e.g. '3,3,3'")
    inv.add_argument("-n", "--strands", type=_int, help="strand count for --braid")
    inv.set_defaults(func=_cmd_invariants)

    braid_word = argparse.ArgumentParser(add_help=False)
    braid_word.add_argument("--braid", metavar="WORD", required=True)
    braid_word.add_argument("-n", "--strands", type=_int, required=True)

    nf = sub.add_parser("nf", parents=[common, braid_word],
                        help="Garside normal form, or word equality with --equal")
    nf.add_argument("--equal", metavar="WORD2",
                    help="second word; prints whether both represent the same braid")
    nf.set_defaults(func=_cmd_nf)

    hom = sub.add_parser("homfly", parents=[common, braid_word],
                         help="two-variable polynomial of a braid closure")
    hom.set_defaults(func=_cmd_homfly)

    cert = sub.add_parser("certify", parents=[common],
                          help="certify that P(first,q,q) admits no Seifert "
                               "fibered surgery")
    cert.add_argument("params", nargs="*", type=_int, metavar="PARAM",
                      help="the pretzel parameters: FIRST Q")
    cert.add_argument("--grid", nargs=2, metavar=("PMIN..PMAX", "QMIN..QMAX"),
                      help="certify a whole parameter rectangle")
    cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader went away (``knotcert ... | head``).  Point stdout at
        # devnull so the interpreter's flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # An --out path that cannot be written is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
