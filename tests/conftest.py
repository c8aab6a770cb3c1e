"""Shared fixtures for the test suite.

Randomized tests draw from the ``rng`` fixture, which is reseeded per test
from the ``--rng-seed`` command line option, so any failing run can be
reproduced by passing the same seed.  A watchdog ends the run, with every
thread's traceback and exit status 1, when one test takes longer than
WATCHDOG_SECONDS, so a loop that never ends fails the suite instead of
hanging it.  The acceptance suite reports one pass/fail line per criterion
in the terminal summary.
"""

import faulthandler
import os
import random
import re
import zlib

import pytest

from knotcert import BraidWord, permutation_of, quotient_braid
from knotcert.certify import _pretzel_family

DEFAULT_SEED = 20260819
WATCHDOG_SECONDS = 60
_watchdog_fd = 2


def pytest_addoption(parser):
    parser.addoption(
        "--rng-seed", type=int, default=DEFAULT_SEED, metavar="N",
        help="seed for randomized property tests (default: %(default)s)")


def pytest_configure(config):
    """Keep a copy of stderr for the watchdog: pytest captures fd 2 while a
    test runs, and the watchdog's exit would leave that capture unprinted."""
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


@pytest.fixture(autouse=True)
def watchdog():
    """Dump every thread's traceback, the test's own frame among them, and
    exit with status 1 if the test runs longer than WATCHDOG_SECONDS."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng(request) -> random.Random:
    """Per-test RNG: the global seed mixed with the test id, so tests draw
    independent streams but stay reproducible under one flag."""
    seed = request.config.getoption("--rng-seed")
    mixed = (seed << 32) ^ zlib.crc32(request.node.nodeid.encode())
    return random.Random(mixed)


def make_random_word(rng: random.Random, strands: int, length: int,
                     positive: bool = False) -> BraidWord:
    gens = range(1, strands)
    letters = []
    for _ in range(length):
        e = rng.choice(gens)
        if not positive and rng.random() < 0.5:
            e = -e
        letters.append(e)
    return BraidWord(strands, tuple(letters))


def logged(calls: list, fn):
    """fn, appending its name to calls on every call."""
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


def cycle_count(w: BraidWord) -> int:
    """Cycles of the braid's permutation, one per component of its closure."""
    mapping = permutation_of(w).mapping
    seen: set[int] = set()
    cycles = 0
    for start in range(len(mapping)):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = mapping[j]
    return cycles


def make_random_knot_word(rng: random.Random, max_strands: int = 4,
                          max_length: int = 14) -> BraidWord:
    """Random word using every generator whose closure is a knot."""
    while True:
        n = rng.randint(2, max_strands)
        length = rng.randint(n, max_length)
        w = make_random_word(rng, n, length)
        if {abs(e) for e in w.letters} != set(range(1, n)):
            continue
        if cycle_count(w) == 1:
            return w


def grid_knot_slope_words():
    """(p, q, r, word, partner) for every odd candidate slope r of the
    cells of ``certify --grid 2..9 3..9``: the quotient word of r-surgery
    on P(p,q,q) and its tangle-move partner, one block pair shorter."""
    for p in range(2, 10):
        for q in range(3, 10, 2):
            family = _pretzel_family(p, q)
            for r in family.slopes:
                if r % 2:
                    block, middle, tail = family.powers(r)
                    yield (p, q, r, quotient_braid(block, middle, tail),
                           quotient_braid(block - 2, middle, tail))


@pytest.fixture
def random_word(rng):
    def make(strands: int, length: int, positive: bool = False) -> BraidWord:
        return make_random_word(rng, strands, length, positive)
    return make


@pytest.fixture
def random_knot_word(rng):
    def make(max_strands: int = 4, max_length: int = 14) -> BraidWord:
        return make_random_knot_word(rng, max_strands, max_length)
    return make


_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    m = _ACCEPTANCE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.failed:
        _acceptance_results[num] = "FAIL"
    elif report.when == "call":
        _acceptance_results.setdefault(num, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        terminalreporter.write_line(f"criterion {num:2d}: {_acceptance_results[num]}")
