"""The benchmark's three workloads: seeded inputs, one pass, known answers.

Each workload has ``make(seed, reference)``, which builds its inputs, and
``run(inputs, workdir)``, which runs one pass over them and returns one
``Op`` per input.  An op fails if it raises, is not certified, fails a
known-answer check, or writes certificate bytes that differ from the
reference digests in ``reference.json`` (recorded from the seed state of
the package; certificates must stay byte-identical).

Workloads, and why each is here:

* ``cert-large``: two odd-family diagonal cells whose quotient knots have
  187 and 259 crossings, each through ``certify_no_sfs`` and ``to_json``.
  Dense exact linear algebra on Goeritz matrices up to dimension 174
  dominates, and no braid closure repeats, so a faster signature or
  determinant shows here and a closure cache shows nothing.
* ``cert-grid``: the in-process command ``certify --grid 3..9 3..9 --out
  DIR --json`` (28 cells of both families), then every written
  certificate is read back.  Many small matrices, repeated closures, and
  certificate writes beside reads.
* ``engines``: seeded braids through the skein polynomial (torus knots
  and random 5-6 strand knots) and through word-problem equality (random
  mixed 4-6 strand words against a partner rewritten by braid relations
  and a perturbed copy).  Hecke and Garside layers do the work; the
  matrix layer almost none, so it catches a certify-path change that
  slows a shared layer.

The cert workloads have fixed inputs by design, since their answers are
pinned to reference digests; there the seed only orders the cells.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import random
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

LARGE_CELLS = ((15, 15), (21, 21))
GRID = ("3..9", "3..9")
GRID_CELLS = tuple((p, q) for p in range(3, 10) for q in range(3, 10, 2))

TORUS_KNOTS = ((3, 4), (3, 5), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7), (6, 11))
RANDOM_KNOT_STRANDS = (5, 6) * 6
RANDOM_KNOT_LENGTH = 60
# Fewer letters on more strands, so that every equality op costs about the
# same and the median op sits inside one cluster of similar times.  Many
# words, so that a pass's cost hardly depends on the seed.
EQUAL_WORDS = ((4, 200), (5, 170), (6, 140)) * 8
REWRITE_PAIRS = 30
REWRITE_MOVES = 600


@dataclasses.dataclass(frozen=True)
class Op:
    """One input's run: the ``perf_counter`` intervals that make up its
    time (converted to seconds by the caller) and whether it passed."""
    label: str
    spans: tuple[tuple[float, float], ...]
    ok: bool


def kc(module: str):
    """A knotcert submodule by its import path.  Attribute access on the
    package does not work for every name: the package re-exports the
    function ``homfly`` over the submodule of the same name."""
    return importlib.import_module(f"knotcert.{module}")


def _timed(label: str, fn, *args) -> Op:
    start = perf_counter()
    try:
        ok = bool(fn(*args))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    end = perf_counter()
    if not ok:
        print(f"op failed: {label}", file=sys.stderr)
    return Op(label, ((start, end),), ok)


def certificate_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _certificate_ok(text: str, digest: str) -> bool:
    """Certified, each torus-knot determinant equals |r|, bytes as recorded."""
    data = json.loads(text)
    if data["conclusion"] != "no-seifert-fibered-surgery":
        return False
    for slope in data["slopes"]:
        for verdict in slope["verdicts"]:
            if (verdict["rule"] == "torus-knot-det-genus"
                    and verdict["evidence"]["determinant"] != abs(slope["r"])):
                return False
    return certificate_digest(text) == digest


# ---------------------------------------------------------------- cert-large

def make_large(seed: int, reference: dict) -> list:
    cells = list(LARGE_CELLS)
    random.Random(seed).shuffle(cells)
    return [(p, q, reference[f"{p},{q}"]) for p, q in cells]


def _large_op(p: int, q: int, digest: str) -> bool:
    report = kc("certify").certify_no_sfs(p, q)
    return report.certified and _certificate_ok(report.to_json() + "\n", digest)


def run_large(inputs: list, workdir: Path) -> list[Op]:
    return [_timed(f"P({p},{q},{q})", _large_op, p, q, digest) for p, q, digest in inputs]


# ----------------------------------------------------------------- cert-grid

def make_grid(seed: int, reference: dict) -> list:
    cells = [(p, q, reference[f"{p},{q}"]) for p, q in GRID_CELLS]
    random.Random(seed).shuffle(cells)
    return cells


def _read_back(path: Path, digest: str) -> bool:
    text = path.read_text(encoding="utf-8")
    report = kc("certify").CertificateReport.from_json(text)
    return report.certified and _certificate_ok(text, digest)


def run_grid(inputs: list, workdir: Path) -> list[Op]:
    """One in-process grid run, then each certificate read back in seeded
    order.  A cell's op time is the stretch of the grid run from the start
    of its certification to the start of the next (certify, serialize,
    write) plus its read-back."""
    cli = kc("cli")
    out = workdir / "grid"
    shutil.rmtree(out, ignore_errors=True)
    starts: dict[tuple[int, int], float] = {}
    certify_no_sfs = cli.certify_no_sfs

    def marked(p, q):
        starts[(p, q)] = perf_counter()
        return certify_no_sfs(p, q)

    cli.certify_no_sfs = marked
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["certify", "--grid", *GRID, "--out", str(out), "--json"])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    finally:
        cli.certify_no_sfs = certify_no_sfs
    end = perf_counter()
    if code != 0:
        print(f"grid run failed with exit code {code}", file=sys.stderr)
        return [Op(f"P({p},{q},{q})", (), False) for p, q, _ in inputs]
    listed = {(c["p"], c["q"]) for c in json.loads(stdout.getvalue())["grid"]
              if c["status"] == "certified"}
    order = sorted(starts, key=starts.get)
    spans = {cell: ((starts[cell], starts[nxt] if nxt else end),)
             for cell, nxt in zip(order, order[1:] + [None])}
    ops = []
    for p, q, digest in inputs:
        read = _timed(f"P({p},{q},{q})", _read_back,
                      out / f"certificate-p{p}-q{q}.json", digest)
        ok = read.ok and (p, q) in listed and (p, q) in spans
        ops.append(Op(read.label, spans.get((p, q), ()) + read.spans, ok))
    return ops


# ------------------------------------------------------------------- engines

def _permutation(strands: int, letters) -> list[int]:
    perm = list(range(strands))
    for e in letters:
        i = abs(e) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def _is_knot(strands: int, letters) -> bool:
    perm = _permutation(strands, letters)
    x, steps = perm[0], 1
    while x != 0:
        x, steps = perm[x], steps + 1
    return steps == strands


def _random_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def _random_knot(rng: random.Random, strands: int, length: int) -> list[int]:
    # An n-cycle is a product of n - 1 transpositions, so fix the parity.
    length -= (length - strands + 1) % 2
    while True:
        letters = _random_letters(rng, strands, length)
        if _is_knot(strands, letters):
            return letters


def rewrite(rng: random.Random, strands: int, letters: list[int]) -> list[int]:
    """The same braid, respelled: cancelling pairs inserted at random
    places, then random far commutations and braid relations."""
    w = list(letters)
    for _ in range(REWRITE_PAIRS):
        g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        i = rng.randrange(len(w) + 1)
        w[i:i] = [g, -g]
    for _ in range(REWRITE_MOVES):
        i = rng.randrange(len(w) - 2)
        a, b, c = w[i:i + 3]
        if abs(abs(a) - abs(b)) >= 2:
            w[i], w[i + 1] = b, a
        elif a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            w[i:i + 3] = [b, a, b]
    return w


def make_engines(seed: int, reference: dict) -> list:
    """(label, kind, word, expected) inputs; kinds are 'torus', 'knot', 'equal'."""
    BraidWord = kc("braid").BraidWord
    rng = random.Random(seed)
    inputs = []
    for a, b in TORUS_KNOTS:
        inputs.append((f"T({a},{b})", "torus", kc("braid").torus_braid(a, b), min(a, b)))
    for k, n in enumerate(RANDOM_KNOT_STRANDS):
        word = BraidWord(n, tuple(_random_knot(rng, n, RANDOM_KNOT_LENGTH)))
        inputs.append((f"knot{k}", "knot", word, n))
    for k, (n, length) in enumerate(EQUAL_WORDS):
        u = _random_letters(rng, n, length)
        v = rewrite(rng, n, u)
        w = list(v)
        flip = rng.randrange(len(w))
        w[flip] = -w[flip]  # changes the exponent sum, so never the same braid
        word = BraidWord(n, tuple(u))
        inputs.append((f"same{k}", "equal", (word, BraidWord(n, tuple(v))), True))
        inputs.append((f"other{k}", "equal", (word, BraidWord(n, tuple(w))), False))
    rng.shuffle(inputs)
    return inputs


def _polynomial_op(kind: str, word, strands_bound: int) -> bool:
    """Known answers: the braid index bound is min(a, b) on T(a, b) and at
    most the strand count otherwise; the polynomial's determinant matches
    the diagram's; a torus braid T(a, b) with b >= a holds a full twist."""
    homfly, diagram = kc("homfly"), kc("diagram")
    poly = homfly.homfly(word)
    bound = homfly.mfw_bound(poly)
    ok = bound == strands_bound if kind == "torus" else bound <= strands_bound
    ok = ok and homfly.det_from_homfly(poly) == diagram.determinant(diagram.braid_closure(word))
    if kind == "torus":
        ok = ok and kc("braid").contains_full_twist(word)
    return ok


def _equal_op(pair, expected: bool) -> bool:
    return kc("braid").braids_equal(*pair) == expected


def run_engines(inputs: list, workdir: Path) -> list[Op]:
    return [_timed(label, _equal_op, word, expected) if kind == "equal"
            else _timed(label, _polynomial_op, kind, word, expected)
            for label, kind, word, expected in inputs]


WORKLOADS = {
    "cert-large": (make_large, run_large),
    "cert-grid": (make_grid, run_grid),
    "engines": (make_engines, run_engines),
}

